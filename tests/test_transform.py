import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastjl import (
    DimensionError,
    JlParams,
    ParameterError,
    SignDiagonal,
    apply_phd,
    embed,
    embed_with,
    fwht_inplace,
    sample_projection,
    sample_signs,
)
from fastjl import transform
from fastjl.transform import (
    DENSE_PROJECTION_MAX_CELLS,
    _CHUNK_CELLS,
    PhdKernel,
    _dense_projection_pays,
    _fwht_last_axis,
    _gap_batch,
    _geometric_positions,
    sample_dense_matrix,
)

from helpers import dense_hadamard


def _row(proj, i):
    """(column indices, weights) of row ``i`` of the sparse projection ``proj``."""
    lo, hi = proj.indptr[i], proj.indptr[i + 1]
    return proj.cols[lo:hi], proj.weights[lo:hi]


def fwht_fresh_intermediates(X):
    """The chunked, factored FWHT of the rows of X with a fresh array per Kronecker product."""
    d = X.shape[1]
    *inner, last = transform._hadamard_blocks(d)
    out = X.copy()
    step = max(1, _CHUNK_CELLS // d)
    for lo in range(0, len(X), step):
        u, right = out[lo : lo + step], d
        for H in inner:
            right //= len(H)
            u = np.matmul(H, u.reshape(-1, len(H), right))
        out[lo : lo + step] = (u.reshape(-1, len(last)) @ last).reshape(-1, d)
    return out


class TestFwht:
    def test_h2_first_basis_vector(self):
        v = np.array([1.0, 0.0])
        assert np.allclose(fwht_inplace(v), [2**-0.5, 2**-0.5], atol=1e-15)

    def test_h4_first_basis_vector(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(fwht_inplace(v), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_d1_is_identity(self):
        v = np.array([3.5])
        assert fwht_inplace(v)[0] == 3.5

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
    def test_matches_dense_hadamard(self, d):
        H = dense_hadamard(d)
        rng = np.random.default_rng(d)
        for _ in range(5):
            x = rng.standard_normal(d)
            assert np.abs(fwht_inplace(x.copy()) - H @ x).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 64, 1024, 2**14])
    def test_involution(self, d):
        x = np.random.default_rng(d).standard_normal(d)
        y = x.copy()
        fwht_inplace(y)
        fwht_inplace(y)
        assert np.abs(y - x).max() < 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            fwht_inplace(np.zeros(3))

    def test_rejects_2d(self):
        with pytest.raises(DimensionError):
            fwht_inplace(np.zeros((2, 2)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_involution_property(self, log_d, seed):
        d = 2**log_d
        x = np.random.default_rng(seed).standard_normal(d)
        y = x.copy()
        fwht_inplace(y)
        fwht_inplace(y)
        assert np.abs(y - x).max() < 1e-9


class TestFwhtDensePath:
    """The factored transform against the dense H_d at d = 512 and 1024, two blocks each."""

    DIMS = [512, 1024]

    @pytest.mark.parametrize("d", DIMS)
    def test_vector_in_place_matches_dense_hadamard(self, d):
        x = np.random.default_rng(d).standard_normal(d)
        v = x.copy()
        assert fwht_inplace(v) is v
        assert np.abs(v - dense_hadamard(d) @ x).max() < 1e-12

    @pytest.mark.parametrize("d", DIMS)
    def test_block_in_place_matches_dense_hadamard(self, d):
        X = np.random.default_rng(d + 1).standard_normal((5, d))
        A = X.copy()
        assert _fwht_last_axis(A) is A
        assert np.abs(A - X @ dense_hadamard(d)).max() < 1e-12

    # two and three inner blocks, so the intermediates alternate between the
    # thread's two scratch buffers; 20 rows at 16384 end in a short chunk
    @pytest.mark.parametrize("d, rows", [(16384, 20), (1 << 19, 3)])
    def test_scratch_ping_pong_matches_fresh_intermediates(self, d, rows):
        X = np.random.default_rng(d).standard_normal((rows, d))
        want = fwht_fresh_intermediates(X)
        _fwht_last_axis(np.random.default_rng(1).standard_normal((2, 4096)))  # leaves the scratch dirty
        assert np.array_equal(_fwht_last_axis(X.copy()), want)
        assert np.array_equal(_fwht_last_axis(X.copy()), want)

    @pytest.mark.parametrize("d", [32, 128])  # one block, two blocks
    def test_strided_view_is_transformed_in_place(self, d):
        X = np.random.default_rng(3).standard_normal((4, 2 * d))
        A = X.copy()
        view = A[:, ::2]
        assert _fwht_last_axis(view) is view
        assert np.abs(A[:, ::2] - X[:, ::2] @ dense_hadamard(d)).max() < 1e-12
        assert np.array_equal(A[:, 1::2], X[:, 1::2])


class TestSigns:
    def test_identity_signs(self):
        # with D = I the kernel computes k^-1/2 P H x
        x = np.random.default_rng(2).standard_normal(16)
        diag, proj = SignDiagonal(signs=np.ones(16), seed=0), sample_projection(8, 16, 0.5, seed=2)
        assert np.abs(embed_with(x, diag, proj) - hadamard_rows(x[None, :])[0] @ _dense(proj).T * 8**-0.5).max() < 1e-12

    def test_componentwise_product(self):
        # D multiplies x entry by entry: embedding x under D is embedding D x under I
        x = np.random.default_rng(3).standard_normal((2, 16))
        diag, proj = sample_signs(16, seed=3), sample_projection(8, 16, 0.5, seed=3)
        identity = SignDiagonal(signs=np.ones(16), seed=0)
        assert np.array_equal(apply_phd(x, diag, proj), apply_phd(diag.signs * x, identity, proj))
        assert np.array_equal(embed_with(x[0], diag, proj), embed_with(diag.signs * x[0], identity, proj))

    def test_length_mismatch(self):
        proj = sample_projection(2, 8, 0.5, seed=0)
        with pytest.raises(DimensionError):
            embed_with(np.zeros(8), sample_signs(4, seed=0), proj)
        with pytest.raises(DimensionError):
            apply_phd(np.zeros((2, 8)), sample_signs(4, seed=0), proj)

    def test_rejects_non_unit_entries(self):
        with pytest.raises(ParameterError):
            SignDiagonal(signs=np.array([1.0, 0.5]), seed=0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            d = 64
            v = rng.standard_normal(d)
            diag = sample_signs(d, seed=seed)
            assert math.isclose(np.linalg.norm(diag.signs * v), np.linalg.norm(v), rel_tol=0, abs_tol=1e-12)

    def test_unitary_with_hadamard(self):
        # H D is unitary: 100 random unit vectors for each d
        for d in (16, 256, 2**14):
            rng = np.random.default_rng(d)
            for seed in range(100):
                x = rng.standard_normal(d)
                x /= np.linalg.norm(x)
                u = sample_signs(d, seed=seed).signs * x
                fwht_inplace(u)
                assert abs(np.linalg.norm(u) - 1.0) < 1e-9

    def test_deterministic(self):
        assert np.array_equal(sample_signs(128, seed=9).signs, sample_signs(128, seed=9).signs)


class TestSampleProjection:
    def test_q_one_fills_every_row(self):
        P = sample_projection(2, 4, 1.0, seed=1)
        for i in range(2):
            cols, weights = _row(P, i)
            assert cols.tolist() == [0, 1, 2, 3]
            assert np.all(np.isfinite(weights))

    def test_deterministic_replay(self):
        a = sample_projection(7, 64, 0.2, seed=42)
        b = sample_projection(7, 64, 0.2, seed=42)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.weights, b.weights)

    def test_stream_is_pinned_at_every_width(self):
        # every d from 1 to 1024: the columns of a power-of-two d come from a mask, the rest from %
        h = hashlib.sha256()
        for d in range(1, 1025):
            P = sample_projection(min(d, 8), d, 0.3, seed=d)
            for a in (P.indptr, P.cols, P.weights):
                h.update(a.tobytes())
        assert h.hexdigest()[:16] == "2ae64a402edbe76c"

    def test_nnz_matches_binomial_mean(self):
        # 100 seeds at k=100, d=1000, q=0.01: mean nnz within 3 sigma of Binomial(1e5, 0.01)
        k, d, q = 100, 1000, 0.01
        nnz = [sample_projection(k, d, q, seed=s).nnz for s in range(100)]
        mean = k * d * q
        sigma_mean = math.sqrt(k * d * q * (1 - q) / len(nnz))
        assert abs(np.mean(nnz) - mean) < 3 * sigma_mean

    def test_nnz_variance(self):
        # kdq = 1e4: sample variance within 20% of kdq(1-q)
        k, d, q = 100, 10_000, 0.01
        nnz = np.array([sample_projection(k, d, q, seed=s).nnz for s in range(400)])
        target = k * d * q * (1 - q)
        assert abs(nnz.var(ddof=1) - target) < 0.2 * target

    def test_columns_strictly_increasing(self):
        P = sample_projection(11, 257 * 4, 0.3, seed=3)
        for i in range(P.k):
            cols, _ = _row(P, i)
            if len(cols) > 1:
                assert np.all(np.diff(cols) > 0)
            assert np.all((cols >= 0) & (cols < P.d))

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_bad_q(self, q):
        with pytest.raises(ParameterError):
            sample_projection(2, 4, q, seed=0)

    def test_tiny_q_is_cheap(self):
        P = sample_projection(100, 2**16, 2.0**-20, seed=5)
        assert P.nnz < 100  # expected ~6 entries



def _reference_positions(rng, ncells, q, batch):
    """Gap skipping with ``rng.geometric``: the cumulative sums of the gaps, minus one, inside the grid."""
    if q >= 1.0:
        return np.arange(ncells)
    pos = np.cumsum(rng.geometric(q, size=batch)) - 1
    while pos[-1] < ncells:
        pos = np.concatenate((pos, np.cumsum(rng.geometric(q, size=16)) + pos[-1]))
    return pos[: np.searchsorted(pos, ncells)]


# numpy draws a geometric variate by inversion below q = 1/3 and by search from there on
GAP_QS = [1e-9, 1e-4, 0.003, 0.01625, 0.1327, 0.25, 0.3333, 1 / 3, 0.34, 0.5, 0.9, 1.0]


class TestGeometricPositions:
    """The gaps are ``rng.geometric``'s, bit for bit, and leave the generator where it would."""

    def _check(self, ncells, q, seed, scratch=None, batch=None):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _geometric_positions(got_rng, ncells, q, scratch)
        ref = _reference_positions(ref_rng, ncells, q, batch or _gap_batch(ncells, q))
        assert got.dtype == np.int64
        assert np.array_equal(got, ref)
        assert got_rng.random() == ref_rng.random()  # the same number of draws
        return got

    @pytest.mark.parametrize("q", GAP_QS)
    @pytest.mark.parametrize("ncells", [1, 7, 1000, 273_408])
    def test_matches_rng_geometric(self, q, ncells):
        for seed in (0, 1, 11):
            self._check(ncells, q, seed)

    @pytest.mark.parametrize("q", GAP_QS)
    def test_scratch_holds_the_positions(self, q):
        ncells = 4096
        n = _gap_batch(ncells, q)
        gaps, out = np.empty(n), np.empty(n, dtype=np.int64)
        got = self._check(ncells, q, 5, (gaps, out))
        if q < 1.0 and len(got):
            assert np.shares_memory(got, out)

    @pytest.mark.parametrize("q", GAP_QS)
    def test_short_scratch_is_not_used(self, q):
        gaps, out = np.full(3, np.nan), np.full(3, -1, dtype=np.int64)
        got = self._check(4096, q, 6, (gaps, out))
        assert not np.shares_memory(got, out) and np.all(out == -1)

    @pytest.mark.parametrize("q", [0.003, 0.25, 1 / 3, 0.5, 0.9])
    def test_top_up_branch(self, monkeypatch, q):
        # a first batch of one gap almost never reaches the end, so the 16-gap top-ups do the work
        monkeypatch.setattr(transform, "_gap_batch", lambda ncells, q: 1)
        for seed in range(4):
            for scratch in (None, (np.empty(1), np.empty(1, dtype=np.int64))):
                got = self._check(round(40 / q), q, seed, scratch, batch=1)
                assert len(got) > 1  # so at least one top-up

    def test_sample_projection_uses_the_same_positions(self):
        for q in (0.01625, 0.34):
            P = sample_projection(9, 256, q, seed=3)
            pos = _reference_positions(transform.substream(3, transform._PROJECTION_KEY), 9 * 256, q,
                                       _gap_batch(9 * 256, q))
            assert np.array_equal(P.cols, pos % 256)
            assert np.array_equal(P.indptr, np.searchsorted(pos, np.arange(0, 10 * 256, 256)))


def _gather(P, v):
    return transform._project_core(P.indptr, P.cols, P.weights, v)


class TestProject:
    def test_single_entry(self):
        from fastjl import SparseProjection

        single = SparseProjection(
            k=3, d=4, q=0.5,
            indptr=np.array([0, 1, 1, 1], dtype=np.int64),
            cols=np.array([2], dtype=np.int64),
            weights=np.array([1.75]),
        )
        v = np.array([0.0, 0.0, 3.0, 0.0])
        out = _gather(single, v)
        assert np.allclose(out, [5.25, 0.0, 0.0], atol=1e-15)

    def test_empty_row_gives_zero(self):
        from fastjl import SparseProjection

        P = SparseProjection(
            k=2, d=2, q=0.5,
            indptr=np.array([0, 0, 1], dtype=np.int64),
            cols=np.array([1], dtype=np.int64),
            weights=np.array([2.0]),
        )
        assert np.array_equal(_gather(P, np.array([5.0, 7.0])), [0.0, 14.0])

    def test_linearity(self):
        P = sample_projection(9, 128, 0.25, seed=8)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(128)
        assert np.abs(_gather(P, 3.5 * v) - 3.5 * _gather(P, v)).max() < 1e-9

    def test_dimension_mismatch(self):
        # the gather trusts its caller; the one-vector entry point checks the length first
        P = sample_projection(2, 8, 0.5, seed=0)
        with pytest.raises(DimensionError):
            embed_with(np.zeros(4), sample_signs(4, 0), P)


class TestEmbed:
    def test_zero_vector_maps_to_zero(self):
        params = JlParams(d=16, k=4, eps=0.1, q=0.5, seed=2)
        assert np.array_equal(embed(np.zeros(16), params), np.zeros(4))

    def test_linear_in_x_for_fixed_seed(self):
        params = JlParams(d=64, k=16, eps=0.1, q=0.3, seed=17)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        a, b = 2.25, -0.75
        lhs = embed(a * x + b * y, params)
        rhs = a * embed(x, params) + b * embed(y, params)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_embed_with_matches_embed(self):
        params = JlParams(d=32, k=8, eps=0.2, q=0.4, seed=23)
        x = np.random.default_rng(2).standard_normal(32)
        diag = sample_signs(params.d, params.seed)
        proj = sample_projection(params.k, params.d, params.q, params.seed)
        assert np.array_equal(embed(x, params), embed_with(x, diag, proj))

    def test_embed_with_matches_embed_d1024(self):
        params = JlParams(d=1024, k=64, eps=0.2, q=0.05, seed=29)
        x = np.random.default_rng(3).standard_normal(1024)
        diag = sample_signs(params.d, params.seed)
        proj = sample_projection(params.k, params.d, params.q, params.seed)
        assert np.array_equal(embed(x, params), embed_with(x, diag, proj))

    def test_chi_square_mean(self):
        # d=2, k=1, q=1, unit x: squared output is chi^2_1; mean near 1
        x = np.array([1.0, 0.0])
        trials = 20_000
        total = 0.0
        for seed in range(trials):
            y = embed(x, JlParams(d=2, k=1, eps=0.5, q=1.0, seed=seed))
            total += float(y @ y)
        mean = total / trials
        stderr = math.sqrt(2.0 / trials)  # chi^2_1 variance is 2
        assert abs(mean - 1.0) < 4 * stderr

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            embed(np.zeros(8), JlParams(d=16, k=4, eps=0.1, q=0.5, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        params = JlParams(d=16, k=4, eps=0.1, q=0.5, seed=0)
        x = np.ones(16)
        x[3] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            embed(x, params)
        with pytest.raises(ParameterError, match="non-finite"):
            embed_with(x, sample_signs(16, 0), sample_projection(4, 16, 0.5, 0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=12, k=4, eps=0.1, q=0.5, seed=0),     # d not a power of two
            dict(d=16, k=32, eps=0.1, q=0.5, seed=0),    # k > d
            dict(d=16, k=4, eps=1.2, q=0.5, seed=0),     # eps out of range
            dict(d=16, k=4, eps=0.1, q=0.0, seed=0),     # q out of range
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ParameterError):
            JlParams(**kwargs)


def hadamard_rows(X):
    """X @ H_d from the explicit recursion; H_d = H_a (x) H_b once dense H_d grows large."""
    n, d = X.shape
    if d <= 1024:
        return X @ dense_hadamard(d)
    a = 1 << ((d.bit_length() - 1) // 2)
    Ha, Hb = dense_hadamard(a), dense_hadamard(d // a)
    return (Ha @ X.reshape(n, a, d // a) @ Hb.T).reshape(n, d)


def _dense(proj):
    """The sparse projection ``proj`` written out as a dense k x d matrix."""
    P = np.zeros((proj.k, proj.d))
    for i in range(proj.k):
        cols, weights = _row(proj, i)
        P[i, cols] = weights
    return P


def dense_phd(X, diag, proj):
    """k^{-1/2} P H D x for each row x of X, with P written out densely."""
    return hadamard_rows(X * diag.signs) @ _dense(proj).T * proj.k**-0.5


class TestApplyPhd:
    @pytest.mark.parametrize("d", [1, 2, 64, 128, 1024, 16384])  # 1, 1, 1, 2, 2 and 3 blocks
    def test_matches_dense_formula(self, d):
        k, q = min(d, 24), 1.0 if d <= 2 else 0.3
        diag, proj = sample_signs(d, seed=d), sample_projection(k, d, q, seed=d)
        X = np.random.default_rng(d).standard_normal((40, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        # one row takes the gather; 40 rows, at least k, fold (D, P) into a dense copy of P
        assert not _dense_projection_pays(1, proj.nnz, k * d)
        assert _dense_projection_pays(40, proj.nnz, k * d)
        want = dense_phd(X, diag, proj)
        assert np.abs(apply_phd(X, diag, proj) - want).max() < 1e-12
        assert np.abs(apply_phd(X[:1], diag, proj) - want[:1]).max() < 1e-12

    # the first folds (D, P) into a dense copy of P, the second (k * d above the cap) takes the gather
    @pytest.mark.parametrize("d, k, q", [(1024, 32, 0.05), (16384, 256, 0.002)])
    def test_rows_straddling_chunks(self, d, k, q):
        chunk_rows = _CHUNK_CELLS // d
        diag, proj = sample_signs(d, seed=4), sample_projection(k, d, q, seed=4)
        assert (k * d <= DENSE_PROJECTION_MAX_CELLS) == _dense_projection_pays(2 * chunk_rows + 3, proj.nnz, k * d)
        X = np.random.default_rng(4).standard_normal((2 * chunk_rows + 3, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        Y = apply_phd(X, diag, proj)
        assert np.abs(Y - dense_phd(X, diag, proj)).max() < 1e-12
        alone = np.array([embed_with(x, diag, proj) for x in X[chunk_rows - 1 : chunk_rows + 1]])
        assert np.abs(Y[chunk_rows - 1 : chunk_rows + 1] - alone).max() < 1e-12
        assert np.array_equal(apply_phd(X, diag, proj, workers=2), Y)

    def test_more_workers_than_cores_with_fast_thread_switches(self):
        d, k = 1024, 32
        diag, proj = sample_signs(d, seed=8), sample_projection(k, d, 0.05, seed=8)
        X = np.random.default_rng(8).standard_normal((9 * (_CHUNK_CELLS // d) + 7, d))
        want = apply_phd(X, diag, proj)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = apply_phd(X, diag, proj, workers=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_no_thread_outlives_a_threaded_call(self):
        d, k = 1024, 32
        diag, proj = sample_signs(d, seed=8), sample_projection(k, d, 0.05, seed=8)
        X = np.random.default_rng(8).standard_normal((2 * (_CHUNK_CELLS // d) + 7, d))
        assert np.array_equal(apply_phd(X, diag, proj, workers=2), apply_phd(X, diag, proj))
        assert threading.active_count() == 1

    def test_second_call_allocates_only_its_output(self):
        # tracemalloc sees numpy's buffers; 8 chunks and 5 rows at d = 1024 fold (D, P) into one matrix
        d, k = 1024, 64
        diag, proj = sample_signs(d, seed=2), sample_projection(k, d, 0.05, seed=2)
        X = np.random.default_rng(2).standard_normal((8 * (_CHUNK_CELLS // d) + 5, d))
        assert _dense_projection_pays(len(X), proj.nnz, k * d)
        self.assert_second_call_allocates_only_its_output(X, diag, proj)

    def test_second_call_below_k_rows_allocates_only_its_output(self):
        # 2 chunks and 8 rows at d = 16384, fewer than k, transform their rows and use the dense copy of P
        d, k = 16384, 64
        diag, proj = sample_signs(d, seed=2), sample_projection(k, d, 0.05, seed=2)
        X = np.random.default_rng(2).standard_normal((2 * (_CHUNK_CELLS // d) + 8, d))
        assert len(X) < k and _dense_projection_pays(len(X), proj.nnz, k * d)
        self.assert_second_call_allocates_only_its_output(X, diag, proj)

    @staticmethod
    def assert_second_call_allocates_only_its_output(X, diag, proj):
        want = apply_phd(X, diag, proj)  # grows this thread's scratch
        tracemalloc.start()
        try:
            Y = apply_phd(X, diag, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(Y, want)
        assert peak <= Y.nbytes + 8 * _CHUNK_CELLS

    def test_read_only_input_and_no_rows(self):
        d, k = 64, 8
        diag, proj = sample_signs(d, seed=1), sample_projection(k, d, 0.5, seed=1)
        X = np.random.default_rng(1).standard_normal((3, d))
        X.setflags(write=False)
        assert np.abs(apply_phd(X, diag, proj) - dense_phd(X, diag, proj)).max() < 1e-12
        assert apply_phd(np.empty((0, d)), diag, proj).shape == (0, k)

    def test_rejects_bad_input(self):
        diag, proj = sample_signs(8, seed=0), sample_projection(2, 8, 0.5, seed=0)
        with pytest.raises(DimensionError):
            apply_phd(np.zeros(8), diag, proj)
        with pytest.raises(DimensionError):
            apply_phd(np.zeros((2, 4)), diag, proj)
        with pytest.raises(ParameterError):
            apply_phd(np.zeros((2, 8), dtype=np.float32), diag, proj)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        diag, proj = sample_signs(8, seed=0), sample_projection(2, 8, 0.5, seed=0)
        X = np.ones((3, 8))
        X[2, 5] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            apply_phd(X, diag, proj)

    def test_dense_projection_rule(self):
        # a single row never pays for the copy; no copy is larger than the cap
        assert not any(_dense_projection_pays(1, nnz, 4096) for nnz in (0, 64, 4096))
        assert _dense_projection_pays(256, 4096, 1 << 18)
        assert not _dense_projection_pays(10**6, 1 << 22, DENSE_PROJECTION_MAX_CELLS + 1)


def _folded_case(d_raw):
    """A (D, P) at d = 1024, k = 64, and 2 chunks and 5 unit rows ``X[n, d_raw]``: enough rows to fold."""
    d, k = 1024, 64
    diag, proj = sample_signs(d, seed=6), sample_projection(k, d, 0.05, seed=6)
    X = np.random.default_rng(6).standard_normal((2 * (_CHUNK_CELLS // d) + 5, d_raw))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    assert len(X) >= k and _dense_projection_pays(len(X), proj.nnz, k * d)
    return diag, proj, X


def _kernel(diag, proj, rows):
    return PhdKernel(diag.signs, proj.indptr, proj.cols, proj.weights, proj.k, rows)


class TestFoldedKernel:
    """At least k rows that pay for a dense copy of P apply ``M = k^{-1/2} P H D`` as one product."""

    @pytest.mark.parametrize("d_raw", [1000, 1024])
    def test_matches_dense_formula(self, d_raw):
        diag, proj, X = _folded_case(d_raw)
        kernel = _kernel(diag, proj, len(X))
        assert kernel.M is not None and kernel.Pt is None
        Y = np.empty((len(X), proj.k))
        kernel.apply(X, Y)
        padded = np.zeros((len(X), proj.d))
        padded[:, :d_raw] = X
        assert np.abs(Y - dense_phd(padded, diag, proj)).max() < 1e-12

    @pytest.mark.parametrize("d_raw", [1000, 1024])
    def test_same_bits_at_every_worker_count(self, d_raw):
        diag, proj, X = _folded_case(d_raw)
        want = _kernel(diag, proj, len(X)).apply(X, workers=1)
        for workers in (2, 3):
            got = _kernel(diag, proj, len(X)).apply(X, workers=workers)
            assert np.array_equal(got, want)

    def test_batches_through_one_kernel_match_one_call(self):
        # CLI embed applies whole chunks, in any order, through a kernel prepared for the whole file
        diag, proj, X = _folded_case(1000)
        kernel = _kernel(diag, proj, len(X))
        step = kernel.step
        Y = np.empty((len(X), proj.k))
        for lo in reversed(range(0, len(X), step)):
            kernel.apply_chunk(X[lo : lo + step], Y[lo : lo + step])
        assert np.array_equal(Y, _kernel(diag, proj, len(X)).apply(X))

    def test_second_call_copies_neither_matrix(self):
        # a copy of M[:, :d_raw].T would take k * d_raw * 8 = 512,000 bytes, a copy of a chunk 2 MB
        diag, proj, X = _folded_case(1000)
        kernel = _kernel(diag, proj, len(X))
        Y = np.empty((len(X), proj.k))
        kernel.apply(X, Y)
        want = Y.copy()
        tracemalloc.start()
        try:
            kernel.apply(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(Y, want)
        assert peak < 16 * 1024


# sha256 prefixes of apply_phd outputs on the paths that do not fold: fewer rows
# than k through the dense copy of P, and through the gather.  Taken before the
# fold existed; only the folded path's bits may move.
@pytest.mark.parametrize(
    "d, k, q, rows, seed, dense, pin",
    [
        (256, 128, 0.5, 64, 41, True, "7f6d1d154bcdf524"),
        (1024, 288, 0.05, 40, 43, True, "d85cc85884097852"),
        (256, 128, 0.02, 5, 42, False, "ecd449912d14cd2b"),
    ],
)
def test_unfolded_paths_are_pinned(d, k, q, rows, seed, dense, pin):
    diag, proj = sample_signs(d, seed), sample_projection(k, d, q, seed)
    X = np.random.default_rng(seed).standard_normal((rows, d))
    kernel = _kernel(diag, proj, rows)
    assert kernel.M is None and (kernel.Pt is not None) == dense
    for workers in (1, 2):
        Y = apply_phd(X, diag, proj, workers=workers)
        assert hashlib.sha256(Y.tobytes()).hexdigest()[:16] == pin


class TestDenseReference:
    def test_deterministic(self):
        assert np.array_equal(sample_dense_matrix(3, 8, seed=5), sample_dense_matrix(3, 8, seed=5))

    def test_norm_mean(self):
        # ||output||^2 ~ ||x||^2 chi^2_k / k
        x = np.random.default_rng(4).standard_normal(16)
        x /= np.linalg.norm(x)
        k, trials = 8, 20_000
        total = 0.0
        for seed in range(trials):
            y = sample_dense_matrix(k, 16, seed=seed) @ x * k**-0.5
            total += float(y @ y)
        stderr = math.sqrt(2.0 / k / trials)
        assert abs(total / trials - 1.0) < 4 * stderr
