import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastjl import ParameterError, choose_k
from fastjl import q_ailon_chazelle, q_lower_threshold, q_theorem1
from fastjl.sparsity import Q_FLOOR


class TestQTheorem1:
    def test_hand_value_small_eps(self):
        # ratio eps ln n / ln(1/eps) = 0.600 < 1, so the max picks 1
        q = q_theorem1(0.1, 1e6, 65536)
        assert math.isclose(q, math.log(1e6) / 65536, rel_tol=1e-12)
        assert math.isclose(q, 2.1081e-4, rel_tol=1e-4)

    def test_hand_value_large_eps(self):
        # ratio ~ 14.949 > 1
        q = q_theorem1(0.5, 1e9, 4096)
        expected = (math.log(1e9) / 4096) * (0.5 * math.log(1e9) / math.log(2.0))
        assert math.isclose(q, expected, rel_tol=1e-12)
        assert math.isclose(q, 0.075637, rel_tol=1e-4)

    def test_never_exceeds_c_q_eps(self):
        for eps in (0.05, 0.1, 0.3, 0.5):
            for n in (10, 1e4, 1e9):
                for d in (4, 1024, 2**20):
                    for c_q in (0.5, 1.0, 4.0):
                        assert q_theorem1(eps, n, d, c_q) <= c_q * eps + 1e-15

    def test_clamped_into_unit_interval(self):
        assert q_theorem1(0.9, 3, 2) <= 1.0
        assert q_theorem1(0.5, 2, 2**40) >= Q_FLOOR

    def test_validation(self):
        with pytest.raises(ParameterError):
            q_theorem1(1.0, 100, 64)
        with pytest.raises(ParameterError):
            q_theorem1(0.1, 1, 64)
        with pytest.raises(ParameterError):
            q_theorem1(0.1, 100, 1)
        with pytest.raises(ParameterError):
            q_theorem1(0.1, 100, 64, c_q=0.0)

    @pytest.mark.parametrize("n, c_q", [(math.nan, 1.0), (math.inf, 1.0), (100, math.inf), (100, math.nan)])
    def test_non_finite_n_or_multiplier_rejected(self, n, c_q):
        # q_theorem1(0.3, nan, 64) returned 0.3, and c_q = inf clamped q to 1
        with pytest.raises(ParameterError, match="finite"):
            q_theorem1(0.3, n, 64, c_q)
        with pytest.raises(ParameterError, match="finite"):
            q_ailon_chazelle(n, 64, c_q)


class TestQAilonChazelle:
    def test_hand_value(self):
        assert math.isclose(q_ailon_chazelle(math.e**10, 10**4), 0.01, rel_tol=1e-12)

    def test_clamp_at_one(self):
        assert q_ailon_chazelle(math.e**4, 2) == 1.0

    def test_linear_in_c_q_below_clamp(self):
        base = q_ailon_chazelle(1e6, 2**16, c_q=1.0)
        assert math.isclose(q_ailon_chazelle(1e6, 2**16, c_q=2.0), 2 * base, rel_tol=1e-12)


class TestQLowerThreshold:
    def test_hand_value_max_picks_one(self):
        q = q_lower_threshold(0.25, 0.05, 1024)
        assert math.isclose(q, math.log(20.0) / 1024, rel_tol=1e-12)
        assert math.isclose(q, 2.9255e-3, rel_tol=1e-4)

    def test_hand_value_clamped_by_eps(self):
        q = q_lower_threshold(0.25, math.exp(-40.0), 1024)
        assert q == 0.25  # min picks eps: (40/1024) * (10/ln 4) = 0.2818 > 0.25

    def test_never_exceeds_c_q_eps(self):
        for eps in (0.1, 0.25, 0.5):
            for delta in (0.2, 1e-3, 1e-9):
                assert q_lower_threshold(eps, delta, 512) <= eps + 1e-15

    def test_agrees_with_theorem1_at_delta_inverse_n(self):
        for eps in (0.05, 0.1, 0.25, 0.5):
            for n in (100.0, 1e4, 1e8):
                for d in (256, 2**13, 2**16):
                    a = q_theorem1(eps, n, d)
                    b = q_lower_threshold(eps, 1.0 / n, d)
                    assert math.isclose(a, b, rel_tol=1e-12)

    def test_monotone_in_c_q(self):
        values = [q_lower_threshold(0.25, 0.01, 1024, c_q=c) for c in (0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values)


class TestChooseK:
    def test_n_mode_hand_value(self):
        assert choose_k(0.1, n=1e6) == 1382  # ceil(100 * 13.8155)

    def test_delta_mode_hand_value(self):
        assert choose_k(0.25, delta=0.05) == 48  # ceil(16 * 2.9957)

    def test_zero_c_k_rejected(self):
        with pytest.raises(ParameterError):
            choose_k(0.1, n=100, c_k=0.0)

    @pytest.mark.parametrize("n, c_k", [(math.nan, 1.0), (math.inf, 1.0), (100, math.inf)])
    def test_non_finite_n_or_c_k_rejected(self, n, c_k):
        # math.ceil raised ValueError (nan) or OverflowError (inf) instead
        with pytest.raises(ParameterError, match="finite"):
            choose_k(0.1, n=n, c_k=c_k)

    @pytest.mark.parametrize("eps, c_k", [(1e-200, 1.0), (0.1, 1e307)])
    def test_derived_k_beyond_the_size_bound_rejected(self, eps, c_k):
        # eps**-2 raised OverflowError, a traceback from CLI verify-upper --eps 1e-200
        with pytest.raises(ParameterError, match="derived k"):
            choose_k(eps, n=100, c_k=c_k)

    def test_requires_exactly_one_mode(self):
        with pytest.raises(ParameterError):
            choose_k(0.1, n=100, delta=0.1)
        with pytest.raises(ParameterError):
            choose_k(0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 0.9), st.floats(0.011, 0.99))
    def test_monotone_non_increasing_in_eps(self, eps_lo, eps_hi):
        if eps_lo > eps_hi:
            eps_lo, eps_hi = eps_hi, eps_lo
        assert choose_k(eps_lo, n=1e5) >= choose_k(eps_hi, n=1e5) >= 1


class TestSavingsFactor:
    def test_ratio_bounded_by_claimed_savings(self):
        # q_theorem1 / q_ailon_chazelle <= 2 / min(ln(1/eps)/eps, ln n) on a
        # grid in the sparse regime (ln^2 n < d)
        for eps in (0.05, 0.1, 0.25, 0.5):
            for n in (math.e**2, 1e3, 1e6, 1e9):
                for d in (2**10, 2**13, 2**16):
                    ratio = q_theorem1(eps, n, d) / q_ailon_chazelle(n, d)
                    cap = 2.0 / min(math.log(1.0 / eps) / eps, math.log(n))
                    assert ratio <= cap + 1e-12, (eps, n, d, ratio, cap)
