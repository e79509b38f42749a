import functools
import json
import math

import numpy as np
import pytest
from scipy import stats

from fastjl import DimensionError, DomainError, JlParams, NormCriterion, ParameterError, embed
from fastjl import verify
from fastjl.verify import (
    BoundSpec,
    Lemma,
    TailEstimate,
    Verdict,
    binomial_tail_exact,
    check_bound,
    chisq_lower_tail_check,
    coord_exceedance_rate,
    default_bound_grid,
    elementary_grid,
    elementary_ineq_check,
    estimate_failure_rate,
    gaussian_square_grid,
    gaussian_square_tail_check,
    lemma_bound,
    lower_bound_witness,
    make_record,
    mgf_premise_estimate,
    reverse_chernoff_check,
    reverse_chernoff_grid,
    run_bound_check,
    simulate_z_statistics,
    total_mass_statistic,
    wilson_interval,
)
from fastjl.instances import random_unit_vector
from fastjl.rng import TRIAL_BLOCK, block_ranges, derive_seed, substream
from fastjl.sparsity import q_lower_threshold, q_theorem1

from helpers import wilson_reference


class TestWilson:
    def test_zero_successes_floor(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0

    def test_all_successes_ceiling(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo < 1.0

    def test_hand_value(self):
        lo, hi = wilson_interval(50, 100, z=1.96)
        assert lo == pytest.approx(0.4038, abs=1e-3)
        assert hi == pytest.approx(0.5962, abs=1e-3)

    @pytest.mark.parametrize("successes,trials", [(0, 7), (3, 9), (250, 1000), (999, 1000)])
    def test_matches_textbook_formula(self, successes, trials):
        assert wilson_interval(successes, trials, 1.96) == pytest.approx(
            wilson_reference(successes, trials, 1.96), abs=1e-12
        )

    def test_estimate_invariants(self):
        est = TailEstimate.from_counts(3, 10)
        assert 0.0 <= est.wilson_lo <= est.p_hat <= est.wilson_hi <= 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            wilson_interval(5, 0)
        with pytest.raises(ParameterError):
            wilson_interval(11, 10)
        with pytest.raises(ParameterError):
            wilson_interval(1, 10, z=0.0)


class TestFailureRate:
    def test_deterministic_replay(self):
        params = JlParams(d=16, k=4, eps=0.3, q=0.5, seed=11)
        x = random_unit_vector(16, 0)
        a = estimate_failure_rate(params, x, 500)
        b = estimate_failure_rate(params, x, 500)
        assert a == b

    def test_parallel_matches_sequential(self):
        params = JlParams(d=16, k=4, eps=0.3, q=0.5, seed=11)
        x = random_unit_vector(16, 0)
        a = estimate_failure_rate(params, x, 10_000, workers=1)
        b = estimate_failure_rate(params, x, 10_000, workers=4)
        assert a == b

    def test_chi_square_bracket(self):
        # d=2, k=1, q=1: squared norm is chi^2_1; the outside-(0.5,1.5) mass
        params = JlParams(d=2, k=1, eps=0.5, q=1.0, seed=101)
        est = estimate_failure_rate(params, np.array([1.0, 0.0]), 20_000)
        target = 1.0 - (stats.chi2.cdf(1.5, 1) - stats.chi2.cdf(0.5, 1))
        sigma = math.sqrt(target * (1 - target) / est.trials)
        assert abs(est.p_hat - target) < 4 * sigma

    def test_theorem1_rate_keeps_failures_rare(self):
        # constants c_q = c_k = 4 at desk scale: failure rate below 5%
        d, n, eps = 1024, 64.0, 0.25
        q = q_theorem1(eps, n, d, c_q=4.0)
        k = math.ceil(4.0 * eps**-2 * math.log(n))
        params = JlParams(d=d, k=k, eps=eps, q=q, seed=7)
        est = estimate_failure_rate(params, random_unit_vector(d, 1), 10_000)
        assert est.p_hat < 0.05

    def test_norm_criterion_is_wider(self):
        x = np.array([1.0, 0.0])
        sq = estimate_failure_rate(JlParams(d=2, k=1, eps=0.5, q=1.0, seed=5), x, 4000)
        nm = estimate_failure_rate(
            JlParams(d=2, k=1, eps=0.5, q=1.0, seed=5, norm_criterion=NormCriterion.NORM), x, 4000
        )
        assert nm.p_hat < sq.p_hat

    def test_zero_vector_rejected(self):
        params = JlParams(d=4, k=2, eps=0.3, q=0.5, seed=0)
        with pytest.raises(ParameterError):
            estimate_failure_rate(params, np.zeros(4), 10)

    def test_per_trial_generator_source(self):
        params = JlParams(d=8, k=4, eps=0.9, q=1.0, seed=3)
        est = estimate_failure_rate(params, lambda rng: random_unit_vector(8, int(rng.integers(2**32))), 200)
        assert est.trials == 200

    def test_pairwise_mode(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((6, 64))
        params = JlParams(d=64, k=64, eps=0.95, q=1.0, seed=9)
        est = estimate_failure_rate(params, points, 300, pairwise=True)
        # k = d with a huge window: distortions beyond 95% are very rare
        assert est.p_hat < 0.05
        tight = JlParams(d=64, k=2, eps=0.05, q=1.0, seed=9)
        est_tight = estimate_failure_rate(tight, points, 300, pairwise=True)
        assert est_tight.p_hat > est.p_hat

    def test_pairwise_duplicate_points_rejected(self):
        points = np.ones((2, 8))
        params = JlParams(d=8, k=2, eps=0.5, q=1.0, seed=0)
        with pytest.raises(ParameterError):
            estimate_failure_rate(params, points, 10, pairwise=True)

    def test_callable_source_runs_through_the_chunk_loop(self):
        # a source that ignores its generator leaves the stream of the fixed-vector path
        params = JlParams(d=64, k=20, eps=0.3, q=0.5, seed=4)
        x = random_unit_vector(64, 2)
        calls = []

        def source(rng):
            calls.append(rng)
            return x

        est = estimate_failure_rate(params, source, 1000)
        assert est == estimate_failure_rate(params, x, 1000)
        assert len(calls) == 1000 and all(isinstance(rng, np.random.Generator) for rng in calls)

    def test_callable_source_is_validated(self):
        params = JlParams(d=8, k=4, eps=0.3, q=0.5, seed=0)
        with pytest.raises(DimensionError):
            estimate_failure_rate(params, lambda rng: np.ones(4), 10)
        with pytest.raises(ParameterError):
            estimate_failure_rate(params, lambda rng: np.zeros(8), 10)

    def test_workers_agree_across_partial_chunks_and_blocks(self):
        # sub-chunks of 2^15 // (k d q) = 51 trials: neither 4096 nor 61 is a multiple
        params = JlParams(d=64, k=20, eps=0.3, q=0.5, seed=17)
        x = random_unit_vector(64, 3)
        trials = TRIAL_BLOCK + 61
        a = estimate_failure_rate(params, x, trials, workers=1)
        b = estimate_failure_rate(params, x, trials, workers=4)
        assert a == b and a.trials == trials

    def test_conditional_law_matches_direct_embedding(self):
        # the rate drawn from the conditional law against embed at fresh seeds
        d, k, q, eps = 64, 8, 0.25, 0.3
        x = random_unit_vector(d, 5)
        est = estimate_failure_rate(JlParams(d=d, k=k, eps=eps, q=q, seed=23), x, 20_000)
        direct_trials = 5000
        direct = 0
        for seed in range(direct_trials):
            y = embed(x, JlParams(d=d, k=k, eps=eps, q=q, seed=10_000 + seed))
            direct += not 1.0 - eps < float(y @ y) < 1.0 + eps
        p_direct = direct / direct_trials
        pooled = (est.successes + direct) / (est.trials + direct_trials)
        sigma = math.sqrt(pooled * (1 - pooled) * (1 / est.trials + 1 / direct_trials))
        assert 0.1 < pooled < 0.9
        assert abs(est.p_hat - p_direct) < 4 * sigma


class TestPairwiseGram:
    @pytest.mark.parametrize("n", [2, 3, 128])
    def test_row_block_distances_match_the_gather(self, n):
        Y = np.random.default_rng(n).standard_normal((n, 48)) * 10.0 ** np.arange(-3, 3, 0.125)
        ii, jj = np.triu_indices(n, k=1)
        expected = ((Y[ii] - Y[jj]) ** 2).sum(axis=1)
        assert np.array_equal(verify._pair_sq_distances(Y), expected)

    # success counts of the direct formula ((emb[ii] - emb[jj]) ** 2).sum(axis=1),
    # recorded before the Gram distances replaced it
    @pytest.mark.parametrize(
        "seed,eps,criterion,k,count",
        [
            (11, 0.5, NormCriterion.NORM, 32, 18),
            (12, 0.5, NormCriterion.SQUARED_NORM, 64, 95),
            (13, 0.3, NormCriterion.NORM, 64, 60),
        ],
    )
    def test_counts_match_the_direct_formula(self, monkeypatch, seed, eps, criterion, k, count):
        points = np.random.default_rng(5).standard_normal((40, 64))
        params = JlParams(d=64, k=k, eps=eps, q=0.25, seed=seed, norm_criterion=criterion)
        assert estimate_failure_rate(params, points, 100, pairwise=True).successes == count
        # a huge margin makes every pair borderline, so every verdict is recomputed
        forced = functools.partial(verify._pairwise_trial_fails, margin=1e300)
        monkeypatch.setattr(verify, "_pairwise_trial_fails", forced)
        assert estimate_failure_rate(params, points, 100, pairwise=True).successes == count

    def test_near_duplicate_points_match_the_direct_formula(self):
        points = np.random.default_rng(5).standard_normal((12, 64))
        points[1] = points[0] + 1e-7
        params = JlParams(d=64, k=64, eps=0.5, q=0.25, seed=4)
        assert estimate_failure_rate(params, points, 100, pairwise=True).successes == 40
        # alone, the near pair's Gram distance is mostly rounding error, so the recheck decides
        for seed, count in ((4, 0), (5, 1)):
            params = JlParams(d=64, k=64, eps=0.5, q=0.25, seed=seed)
            assert estimate_failure_rate(params, points[:2], 100, pairwise=True).successes == count

    def test_verdict_matches_the_direct_formula_per_trial(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((10, 32))
        ii, jj = np.triu_indices(10, k=1)
        true_sq = verify._pair_sq_distances(points)
        verdicts = set()
        for _ in range(200):
            emb = points @ rng.standard_normal((32, 6)) / math.sqrt(6)
            ratio = ((emb[ii] - emb[jj]) ** 2).sum(axis=1) / true_sq
            for criterion in NormCriterion:
                direct = bool(np.any(verify._norm_window_fails(ratio, 0.6, criterion)))
                assert verify._pairwise_trial_fails(emb, ii, jj, true_sq, 0.6, criterion) is direct
                verdicts.add(direct)
        assert verdicts == {True, False}

    def test_gram_overflow_falls_back_to_the_direct_formula(self):
        # G_00 + G_11 overflows to inf, but the difference of the rows is (0, -1)
        emb = np.array([[1e154, 0.0], [1e154, 1.0]])
        ii, jj = np.triu_indices(2, k=1)
        assert not verify._pairwise_trial_fails(emb, ii, jj, np.ones(1), 0.5, NormCriterion.SQUARED_NORM)
        emb[1, 1] = 2.0
        assert verify._pairwise_trial_fails(emb, ii, jj, np.ones(1), 0.5, NormCriterion.SQUARED_NORM)


class TestCoordExceedance:
    def test_basis_vector_is_flat(self):
        # HD e_1 has |coordinate| = 1/sqrt(d) everywhere, so any c ln n > 1 gives 0
        x = np.zeros(64)
        x[0] = 1.0
        est = coord_exceedance_rate(x, threshold_c=1.0, n=10.0, trials=2000, seed=4)
        assert est.successes == 0

    def test_deterministic(self):
        x = random_unit_vector(128, 5)
        a = coord_exceedance_rate(x, 2.0, 100.0, 1000, seed=6)
        b = coord_exceedance_rate(x, 2.0, 100.0, 1000, seed=6)
        assert a == b

    def test_random_unit_vector_rarely_exceeds(self):
        x = random_unit_vector(1024, 8)
        est = coord_exceedance_rate(x, 8.0, 1e4, 10_000, seed=9)
        assert est.p_hat < 1e-2

    def test_requires_unit_norm(self):
        with pytest.raises(ParameterError):
            coord_exceedance_rate(np.ones(4), 1.0, 10.0, 10, seed=0)


class TestZStatistics:
    def test_degenerate_all_successes(self):
        batch = simulate_z_statistics(m=1, q=1.0, k=5, trials=50, seed=0)
        assert np.all(batch.max_z == 1.0)
        assert np.all(batch.sum_z == 5.0)
        assert np.all(batch.sum_zsq == 5.0)

    def test_mean_sum_matches_kq(self):
        m, q, k, trials = 64, 0.25, 8, 100_000
        batch = simulate_z_statistics(m, q, k, trials, seed=1)
        sigma = math.sqrt(k * q * (1 - q) / m / trials)
        assert abs(batch.sum_z.mean() - k * q) < 4 * sigma

    def test_single_z_variance(self):
        batch = simulate_z_statistics(m=32, q=0.3, k=1, trials=100_000, seed=2)
        target = 0.3 * 0.7 / 32
        assert abs(batch.sum_z.var(ddof=1) - target) < 0.2 * target

    def test_sample_ordering_invariants(self):
        batch = simulate_z_statistics(m=16, q=0.4, k=6, trials=5000, seed=3)
        assert np.all(batch.max_z <= 1.0)
        assert np.all(batch.sum_zsq <= batch.sum_z + 1e-12)
        assert np.all(batch.sum_z <= 6.0 + 1e-12)

    def test_sequence_protocol(self):
        batch = simulate_z_statistics(m=4, q=0.5, k=2, trials=10, seed=4)
        assert len(batch) == 10
        sample = batch[3]
        assert sample.sum_zsq <= sample.sum_z

    def test_parallel_matches_sequential(self):
        a = simulate_z_statistics(8, 0.2, 4, 20_000, seed=5, workers=1)
        b = simulate_z_statistics(8, 0.2, 4, 20_000, seed=5, workers=3)
        assert np.array_equal(a.sum_zsq, b.sum_zsq)


class TestLemmaBounds:
    def test_max_z_hand_value(self):
        spec = BoundSpec(Lemma.MAX_Z, {"m": 100, "q": 0.5, "k": 10, "alpha": 0.25})
        exact = 10.0 * math.exp(-100.0 * 0.5 * math.log(4.0) / (32.0 * 0.25))
        assert lemma_bound(spec) == pytest.approx(exact, rel=1e-12)
        assert lemma_bound(spec) == pytest.approx(1.7246e-3, rel=2e-3)

    def test_single_z_hand_value(self):
        spec = BoundSpec(Lemma.SINGLE_Z, {"m": 10, "q": 0.1, "t": 0.5})
        assert lemma_bound(spec) == pytest.approx((0.5 / (math.e * 0.1)) ** -5.0, rel=1e-12)
        assert lemma_bound(spec) == pytest.approx(0.04751, abs=5e-5)

    def test_sum_zsq_alt_hand_value(self):
        spec = BoundSpec(
            Lemma.SUM_ZSQ_ALT,
            {"m": 100, "q": 0.05, "k": round(math.log(1000.0) / 0.05**2), "t": 1e6,
             "n": 1000.0, "c1": 1.0, "c2": 1.0, "eps": 0.05},
        )
        assert lemma_bound(spec) == pytest.approx(3e-12, rel=1e-9)

    def test_missing_parameter(self):
        with pytest.raises(ParameterError, match="alpha"):
            BoundSpec(Lemma.MAX_Z, {"m": 10, "q": 0.5, "k": 2})

    def test_domain_violation_reported(self):
        spec = BoundSpec(Lemma.MAX_Z, {"m": 10, "q": 0.5, "k": 2, "alpha": 0.3})
        assert not spec.domain_satisfied
        with pytest.raises(DomainError, match="alpha"):
            lemma_bound(spec)

    def test_single_z_needs_t_above_q(self):
        spec = BoundSpec(Lemma.SINGLE_Z, {"m": 10, "q": 0.5, "t": 0.5})
        with pytest.raises(DomainError):
            lemma_bound(spec)

    def test_sum_zsq_domain(self):
        spec = BoundSpec(Lemma.SUM_ZSQ, {"m": 100, "q": 0.25, "k": 8, "t": 1.0})
        violations = spec.domain_violations()
        assert any("64*24*e^3" in v for v in violations)

    def test_vacuous_bound_can_exceed_one(self):
        spec = BoundSpec(Lemma.MAX_Z, {"m": 16, "q": 0.05, "k": 8, "alpha": 0.25})
        assert lemma_bound(spec) > 1.0


class TestCheckBound:
    def test_vacuous_regardless_of_estimate(self):
        spec = BoundSpec(Lemma.MAX_Z, {"m": 16, "q": 0.05, "k": 8, "alpha": 0.25})
        est = TailEstimate.from_counts(999, 1000)
        assert check_bound(spec, est) is Verdict.VACUOUS

    def test_zero_successes_pass(self):
        spec = BoundSpec(Lemma.MAX_Z, {"m": 100, "q": 0.5, "k": 10, "alpha": 0.25})
        est = TailEstimate.from_counts(0, 10_000)
        assert check_bound(spec, est) is Verdict.PASS

    def test_fail_when_estimate_dominates_bound(self):
        spec = BoundSpec(Lemma.MAX_Z, {"m": 10_000, "q": 0.05, "k": 1, "alpha": 0.05})
        assert lemma_bound(spec) < 1e-100
        est = TailEstimate.from_counts(1000, 1000)
        assert check_bound(spec, est) is Verdict.FAIL

    def test_example_grid_point_passes(self):
        spec = BoundSpec(Lemma.MAX_Z, {"m": 100, "q": 0.5, "k": 10, "alpha": 0.25})
        check = run_bound_check(spec, trials=20_000, seed=6)
        assert check.verdict is Verdict.PASS

    def test_single_z_event_is_observable(self):
        # P[Z > 0.5] for Z = Bin(10, 0.1)/10 is ~1.47e-4; bound is 0.0475
        spec = BoundSpec(Lemma.SINGLE_Z, {"m": 10, "q": 0.1, "t": 0.5})
        check = run_bound_check(spec, trials=200_000, seed=7)
        exact = float(stats.binom.sf(5, 10, 0.1))
        assert check.estimate.wilson_lo <= exact <= check.estimate.wilson_hi
        assert check.verdict is Verdict.PASS

    def test_default_grid_is_hypothesis_satisfying(self):
        grid = default_bound_grid()
        assert len(grid) > 80
        assert all(spec.domain_satisfied for spec in grid)
        assert {spec.lemma for spec in grid} == set(Lemma)


class TestBinomialTail:
    def test_enumeration_value(self):
        assert binomial_tail_exact(4, 0.5, 2) == pytest.approx(11 / 16, abs=1e-14)

    def test_certain_event(self):
        assert binomial_tail_exact(17, 0.3, 0) == 1.0

    def test_two_coins(self):
        assert binomial_tail_exact(2, 0.5, 2) == pytest.approx(0.25, abs=1e-14)

    def test_against_scipy_survival(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = int(rng.integers(1, 2000))
            q = float(rng.uniform(0.01, 0.99))
            s = int(rng.integers(0, r + 1))
            mine = binomial_tail_exact(r, q, s)
            ref = float(stats.binom.sf(s - 1, r, q)) if s > 0 else 1.0
            assert mine == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_edge_probabilities(self):
        assert binomial_tail_exact(5, 0.0, 1) == 0.0
        assert binomial_tail_exact(5, 1.0, 5) == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            binomial_tail_exact(4, 0.5, 5)
        with pytest.raises(ParameterError):
            binomial_tail_exact(20_000, 0.5, 5)


class TestReverseChernoff:
    def test_example_point_passes(self):
        check = reverse_chernoff_check(16, 0.25, 0.5)
        assert check.threshold == 6
        assert check.bound == pytest.approx(0.25 * math.exp(-2.0), rel=1e-12)
        assert check.exact == pytest.approx(float(stats.binom.sf(5, 16, 0.25)), rel=1e-9)
        assert check.verdict is Verdict.PASS

    def test_alpha_zero_at_integer_mean(self):
        check = reverse_chernoff_check(16, 0.25, 0.0)
        assert check.bound == 0.25
        assert check.exact >= 0.25
        assert check.verdict is Verdict.PASS

    def test_hypothesis_violations(self):
        with pytest.raises(DomainError):
            reverse_chernoff_check(16, 0.3, 0.5)
        with pytest.raises(DomainError):
            reverse_chernoff_check(16, 0.25, 1.5)  # alpha q > 1/4

    def test_grid_has_three_known_counterexamples(self):
        # The multiplicative form is falsified at qr = 0.2, where the event
        # X >= (1+alpha) q r collapses to X >= 1 and
        # P[Bin(4, 0.05) >= 1] = 1 - 0.95^4 = 0.1855 < (1/4) exp(-2 alpha^2 q r)
        # for alpha in {0, 0.25, 0.5}.  Everything else on the grid passes.
        failing = []
        for r, q, alpha in reverse_chernoff_grid():
            check = reverse_chernoff_check(r, q, alpha)
            if check.verdict is Verdict.FAIL:
                failing.append((r, q, alpha))
                assert check.exact == pytest.approx(1.0 - 0.95**4, rel=1e-12)
        assert failing == [(4, 0.05, 0.0), (4, 0.05, 0.25), (4, 0.05, 0.5)]


class TestChiSquareLowerTail:
    def test_single_weight_brackets_exact(self):
        check = chisq_lower_tail_check((1.0,), 0.0, 100_000, c3=0.1, C3=2.0, seed=8)
        exact = float(stats.chi2.sf(1.0, 1))  # P[g^2 - 1 >= 0]
        assert exact == pytest.approx(0.3173105, abs=1e-7)  # oracle sanity vs reference value
        assert check.estimate.wilson_lo <= exact <= check.estimate.wilson_hi
        assert check.verdict is Verdict.PASS

    def test_four_weights(self):
        check = chisq_lower_tail_check((1.0, 1.0, 1.0, 1.0), 0.0, 50_000, c3=0.1, C3=2.0, seed=9)
        assert check.estimate.p_hat >= 0.3
        assert check.verdict is Verdict.PASS

    def test_far_tail_underflows_to_pass(self):
        check = chisq_lower_tail_check((1.0,), 1000.0, 1000, c3=0.1, C3=2.0, seed=10)
        assert check.estimate.successes == 0
        assert check.bound == 0.0
        assert check.verdict is Verdict.PASS

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            chisq_lower_tail_check((1.0, -1.0), 0.0, 10, c3=0.1, C3=2.0, seed=0)


class TestGaussianSquareTail:
    def test_hand_values_at_one(self):
        check = gaussian_square_tail_check(1.0)
        assert check.exact == pytest.approx(0.31731, abs=5e-6)
        assert check.bound == pytest.approx(0.31376, abs=5e-6)
        assert check.verdict is Verdict.PASS

    def test_certain_event_at_zero(self):
        check = gaussian_square_tail_check(0.0)
        assert check.exact == 1.0
        assert check.bound == 1.0
        assert check.verdict is Verdict.PASS

    def test_grid_passes(self):
        for x in gaussian_square_grid():
            assert gaussian_square_tail_check(x).verdict is Verdict.PASS

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_square_tail_check(-0.5)


class TestElementaryInequality:
    @pytest.mark.parametrize("x,a", [(0.0, 7.0), (0.5, 2.0), (1.0, 1.0)])
    def test_examples(self, x, a):
        assert elementary_ineq_check(x, a) is Verdict.PASS

    def test_full_grid(self):
        grid = elementary_grid()
        assert len(grid) == 10_000
        assert all(elementary_ineq_check(x, a) is Verdict.PASS for x, a in grid)

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            elementary_ineq_check(1.5, 0.5)
        with pytest.raises(DomainError):
            elementary_ineq_check(0.5, 3.0)  # a x > 1


class TestLowerBoundWitness:
    def test_degenerate_q_one_matches_chi_square(self):
        # q=1 makes every Z_i = 1, so total ~ chi^2_k
        eps, delta, d = 0.25, 0.05, 1024
        report = lower_bound_witness(eps, delta, d, 1.0, 20_000, seed=12)
        k = report.k
        target = float(stats.chi2.cdf((1 - eps) * k, k) + stats.chi2.sf((1 + eps) * k, k))
        sigma = math.sqrt(target * (1 - target) / report.trials)
        assert abs(report.estimate.p_hat - target) < 4 * sigma

    def test_same_seed_identical_report(self):
        a = lower_bound_witness(0.25, 0.05, 256, 0.01, 2000, seed=13)
        b = lower_bound_witness(0.25, 0.05, 256, 0.01, 2000, seed=13)
        assert np.array_equal(a.total, b.total)
        assert a.estimate == b.estimate

    def test_decomposition_sums_exactly(self):
        report = lower_bound_witness(0.25, 0.05, 1024, 0.001, 5000, seed=14)
        assert np.abs(report.first_term + report.rest_sum - report.total).max() < 1e-9
        assert np.abs(report.max_term + report.rest_excluding_max - report.total).max() < 1e-9

    def test_below_threshold_failure_is_macroscopic(self):
        # the acceptance-scale demonstration target: wilson_lo > delta*sqrt(2 delta)
        eps, delta, d = 0.25, 0.05, 1024
        q = q_lower_threshold(eps, delta, d) / 16.0
        report = lower_bound_witness(eps, delta, d, q, 20_000, seed=15)
        assert report.estimate.wilson_lo > delta * math.sqrt(2 * delta)

    def test_failure_rate_monotone_in_q(self):
        eps, delta, d = 0.25, 0.05, 1024
        q_thr = q_lower_threshold(eps, delta, d)
        rates = [
            lower_bound_witness(eps, delta, d, q_thr / div, 20_000, seed=16).estimate.p_hat
            for div in (1.0, 4.0, 16.0)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_parallel_matches_sequential(self):
        a = lower_bound_witness(0.25, 0.05, 256, 0.01, 8192, seed=17, workers=1)
        b = lower_bound_witness(0.25, 0.05, 256, 0.01, 8192, seed=17, workers=4)
        assert np.array_equal(a.total, b.total)

    def test_q_validation(self):
        with pytest.raises(ParameterError):
            lower_bound_witness(0.25, 0.05, 256, 0.0, 10, seed=0)


class TestTotalMass:
    def test_q_one_is_exact(self):
        result = total_mass_statistic(0.25, 1e-3, 1024, 1.0, 2000, seed=18)
        assert np.all(result.samples == result.samples[0])
        assert result.samples[0] == pytest.approx(math.ceil(0.25**-2 * math.log(1e3)), rel=1e-12)
        assert result.estimate.successes == 0

    def test_mean_and_variance(self):
        eps, delta, d, q = 0.25, 1e-3, 1024, 0.01
        result = total_mass_statistic(eps, delta, d, q, 100_000, seed=19)
        from fastjl.instances import hard_vector
        from fastjl.sparsity import choose_k

        inst = hard_vector(delta, d)
        k = choose_k(eps, delta=delta)
        mean_target = float(k)
        var_target = k * 2**inst.level * (1 - q) / (d * q)
        sigma = math.sqrt(var_target / result.samples.size)
        assert abs(result.samples.mean() - mean_target) < 4 * sigma
        assert abs(result.samples.var(ddof=1) - var_target) < 0.2 * var_target

    def test_large_delta_rejected(self):
        with pytest.raises(DomainError):
            total_mass_statistic(0.25, 0.05, 1024, 0.01, 10, seed=0)


class TestMgfPremise:
    def test_matches_closed_form(self):
        est = mgf_premise_estimate(200_000, seed=20)
        assert est.target == pytest.approx((0.4) ** -0.5 * math.exp(-0.3), rel=1e-15)
        assert abs(est.mean - est.target) <= 3 * est.stderr
        assert est.verdict is Verdict.PASS

    def test_deterministic(self):
        assert mgf_premise_estimate(50_000, seed=21) == mgf_premise_estimate(50_000, seed=21)

    def test_seed_where_plain_draws_fail_passes(self):
        # the stream of verify-lemmas --seed 902
        trials, seed = 10**6, derive_seed(902, 2)
        est = mgf_premise_estimate(trials, seed)
        assert est.verdict is Verdict.PASS
        # plain draws of exp(0.3 (N^2 - 1)) from the same normals: infinite variance, so
        # their 3-standard-error test fails here although the mean is fine
        parts = []
        for index, lo, hi in block_ranges(trials):
            x = np.exp(verify.MGF_RATE * (substream(seed, index).standard_normal(hi - lo) ** 2 - 1.0))
            parts.append((x.sum(), (x * x).sum()))
        mean = math.fsum(p[0] for p in parts) / trials
        var = (math.fsum(p[1] for p in parts) - trials * mean * mean) / (trials - 1)
        assert abs(mean - est.target) > 3.0 * math.sqrt(var / trials)


class TestRecords:
    def test_round_trip_preserves_p_hat(self):
        est = TailEstimate.from_counts(1234, 56789)
        record = make_record("demo", params={"q": 0.25}, estimate=est, seed=7, wall_time_ms=1.5)
        back = json.loads(json.dumps(record))
        assert back["successes"] / back["trials"] == back["p_hat"]
        assert back["p_hat"] == est.p_hat

    def test_optional_fields_omitted(self):
        record = make_record("demo", params={})
        assert "bound" not in record and "verdict" not in record and "trials" not in record

    def test_verdict_serialized_as_string(self):
        record = make_record("demo", params={}, verdict=Verdict.VACUOUS)
        assert record["verdict"] == "VACUOUS"
