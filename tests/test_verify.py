import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fastjl import DimensionError, DomainError, JlParams, NormCriterion, ParameterError, apply_phd, embed, sample_signs
from fastjl import lemmas, transform, verify
from fastjl import rng as fastjl_rng
from fastjl.lemmas import (
    BoundSpec,
    Lemma,
    binomial_tail_exact,
    check_bound,
    chisq_lower_tail_check,
    default_bound_grid,
    elementary_grid,
    elementary_ineq_holds,
    gaussian_square_grid,
    gaussian_square_tail_check,
    lemma_bound,
    mgf_premise_estimate,
    reverse_chernoff_check,
    reverse_chernoff_grid,
    run_bound_check,
)
from fastjl.verify import (
    TailEstimate,
    Verdict,
    coord_exceedance_rate,
    estimate_failure_rate,
    lower_bound_witness,
    make_record,
    total_mass_statistic,
    wilson_interval,
)
from fastjl.instances import random_unit_vector
from fastjl.rng import TRIAL_BLOCK, derive_seed, run_trials, substream
from fastjl.sparsity import choose_k, q_lower_threshold, q_theorem1
from fastjl.transform import _CHUNK_CELLS, PhdKernel, _draw_projection_arrays, _draw_signs, sample_projection

from helpers import CallLog, dense_hadamard, simulate_z_statistics, wilson_reference


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

    def test_no_entry_drawn_fails_every_trial(self):
        # at q = 1e-300 no chunk draws an entry of P; bincount of nothing is int64 and its
        # in-place product with the float normals raised a casting error
        params = JlParams(d=32, k=12, eps=0.5, q=1e-300, seed=3)
        est = estimate_failure_rate(params, random_unit_vector(32, 0), 50)
        assert (est.successes, est.trials) == (50, 50)

    def test_zero_vector_rejected(self):
        params = JlParams(d=4, k=2, eps=0.3, q=0.5, seed=0)
        with pytest.raises(ParameterError):
            estimate_failure_rate(params, np.zeros(4), 10)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        # unchecked, the window compares came out False and p_hat read 0
        x = np.ones(8)
        x[3] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            estimate_failure_rate(JlParams(d=8, k=4, eps=0.3, q=0.5, seed=0), x, 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        # unchecked, a NaN point made every trial fail: p_hat read 1
        points = np.random.default_rng(0).standard_normal((4, 8))
        points[2, 5] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            estimate_failure_rate(JlParams(d=8, k=4, eps=0.3, q=0.5, seed=0), points, 10, pairwise=True)

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    def test_squared_norm_out_of_range_reads_the_unit_rate(self, scale):
        # x @ x overflowed (p_hat read 0.0045, not 0.731) or underflowed ("zero vector")
        params = JlParams(d=8, k=4, eps=0.3, q=0.5, seed=0)
        unit = estimate_failure_rate(params, np.ones(8), 2000)
        assert unit.p_hat == pytest.approx(0.731, abs=5e-4)
        assert estimate_failure_rate(params, scale * np.ones(8), 2000) == unit

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    def test_scaled_point_set_reads_the_unscaled_rate(self, scale):
        # at 1e160 the Gram distances overflowed and p_hat read 0.0, not 1.0
        points = np.random.default_rng(3).standard_normal((5, 8))
        params = JlParams(d=8, k=4, eps=0.3, q=0.5, seed=0)
        unscaled = estimate_failure_rate(params, points, 300, pairwise=True)
        assert estimate_failure_rate(params, scale * points, 300, pairwise=True) == unscaled

    def test_workers_agree_across_partial_chunks_and_blocks(self):
        # sub-chunks of 2^15 // (k d q) = 51 trials: neither 4096 nor 61 is a multiple
        params = JlParams(d=64, k=20, eps=0.3, q=0.5, seed=17)
        x = random_unit_vector(64, 3)
        trials = TRIAL_BLOCK + 61
        a = estimate_failure_rate(params, x, trials, workers=1)
        b = estimate_failure_rate(params, x, trials, workers=4)
        assert a == b and a.trials == trials

    # counts recorded before the gaps came from exponential inversion into a per-block
    # scratch; 4096 + 77 trials are two blocks, and q = 0.4 takes numpy's search method
    @pytest.mark.parametrize(
        "d,k,q,count", [(256, 32, 0.05, 1187), (128, 16, 0.4, 1615), (1024, 64, 0.003, 1076)]
    )
    def test_counts_are_pinned(self, monkeypatch, d, k, q, count):
        params = JlParams(d=d, k=k, eps=0.3, q=q, seed=21)
        x = random_unit_vector(d, 4)
        trials = TRIAL_BLOCK + 77
        for workers in (1, 2, 3):
            assert estimate_failure_rate(params, x, trials, workers=workers).successes == count
            # every buffer grows from nothing, and again wherever a later chunk needs more
            monkeypatch.setattr(transform._scratch, "bufs", {})
            assert estimate_failure_rate(params, x, trials, workers=workers).successes == count

    def test_second_call_allocates_no_chunk_arrays(self):
        # the mc_single shape; arrays made per chunk, rather than taken from the thread's scratch,
        # peaked at 1.1 MB here
        d, eps, n = 1024, 0.25, 64.0
        params = JlParams(d=d, k=choose_k(eps, n=n, c_k=4.0), eps=eps, q=q_theorem1(eps, n, d, 4.0), seed=3)
        x = random_unit_vector(d, 3)
        first = estimate_failure_rate(params, x, 512)
        tracemalloc.start()
        try:
            again = estimate_failure_rate(params, x, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first and params.k == 267
        assert peak <= 512 * 1024

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


def _pairwise_counts(params, points) -> set[int]:
    """The failure counts of 100 pairwise trials at 1, 2 and 3 workers."""
    return {estimate_failure_rate(params, points, 100, pairwise=True, workers=w).successes for w in (1, 2, 3)}


class TestPairwiseGram:
    @pytest.mark.parametrize("n", [2, 3, 128])
    def test_row_block_distances_match_the_gather(self, n):
        Y = np.random.default_rng(n).standard_normal((n, 48)) * 10.0 ** np.arange(-3, 3, 0.125)
        ii, jj = np.triu_indices(n, k=1)
        expected = ((Y[ii] - Y[jj]) ** 2).sum(axis=1)
        assert np.array_equal(verify._pair_sq_distances(Y), expected)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("n, d", [(2, 3), (3, 1), (1000, 200)])
    def test_row_distances_match_the_gather_over_shapes_and_scales(self, n, d, scale):
        Y = np.random.default_rng(n * d).standard_normal((n, d)) * scale
        ii, jj = np.triu_indices(n, k=1)
        # the gather in blocks of pairs: 1000 x 200 points would take 800 MB at once
        expected = np.concatenate([((Y[ii[lo : lo + 8192]] - Y[jj[lo : lo + 8192]]) ** 2).sum(axis=1)
                                   for lo in range(0, len(ii), 8192)])
        assert np.array_equal(verify._pair_sq_distances(Y), expected)

    # success counts of the direct formula ((emb[ii] - emb[jj]) ** 2).sum(axis=1), forced on
    # every pair below (margin=1e300), over blocks of 16 trials; a dense oracle (scipy's
    # Hadamard matrix times the densified P) gives the same counts
    @pytest.mark.parametrize(
        "seed,eps,criterion,k,count",
        [
            (11, 0.5, NormCriterion.NORM, 32, 16),
            (12, 0.5, NormCriterion.SQUARED_NORM, 64, 98),
            (13, 0.3, NormCriterion.NORM, 64, 61),
        ],
    )
    def test_counts_match_the_direct_formula(self, monkeypatch, seed, eps, criterion, k, count):
        points = np.random.default_rng(5).standard_normal((40, 64))
        params = JlParams(d=64, k=k, eps=eps, q=0.25, seed=seed, norm_criterion=criterion)
        assert _pairwise_counts(params, points) == {count}
        # a huge margin makes every pair borderline, so every verdict is recomputed
        forced = functools.partial(verify._pairwise_trial_fails, margin=1e300)
        monkeypatch.setattr(verify, "_pairwise_trial_fails", forced)
        assert _pairwise_counts(params, points) == {count}

    # counts of blocks of 16 trials, as the dense oracle of the test above gives them
    def test_near_duplicate_points_match_the_direct_formula(self):
        points = np.random.default_rng(5).standard_normal((12, 64))
        points[1] = points[0] + 1e-7
        params = JlParams(d=64, k=64, eps=0.5, q=0.25, seed=4)
        assert _pairwise_counts(params, points) == {38}
        # alone, the near pair's Gram distance is mostly rounding error, so the recheck decides
        for seed, count in ((4, 2), (5, 3)):
            params = JlParams(d=64, k=64, eps=0.5, q=0.25, seed=seed)
            assert _pairwise_counts(params, points[:2]) == {count}

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


class TestPairwiseBlocks:
    """A pairwise run goes in blocks of ``_PAIRWISE_BLOCK`` trials, each judged inline in its block's worker."""

    POINTS = np.random.default_rng(21).standard_normal((24, 64))
    PARAMS = JlParams(d=64, k=32, eps=0.8, q=0.25, seed=21)

    def test_counts_equal_at_every_worker_count(self):
        counts = {estimate_failure_rate(self.PARAMS, self.POINTS, 60, pairwise=True, workers=workers).successes
                  for workers in (1, 2, 3)}
        assert len(counts) == 1 and 0 < counts.pop() < 60

    @pytest.mark.parametrize("trials", [15, 16, 17, 40])
    def test_trial_t_draws_from_the_stream_of_block_t_div_16(self, trials):
        # a dense oracle: trial t takes its D, then its P, from substream(seed, t // 16), after the
        # trials before it in its block; H is written out, and distances take the direct formula
        d, k, q, eps = self.PARAMS.d, self.PARAMS.k, self.PARAMS.q, self.PARAMS.eps
        x = self.POINTS / 2.0**np.frexp(np.abs(self.POINTS).max())[1]
        ii, jj = np.triu_indices(len(x), k=1)
        true_sq = ((x[ii] - x[jj]) ** 2).sum(axis=1)
        failed = 0
        for t in range(trials):
            if t % 16 == 0:
                rng = substream(self.PARAMS.seed, t // 16)
            signs = _draw_signs(rng, d)
            indptr, cols, weights = _draw_projection_arrays(rng, k, d, q)
            P = np.zeros((k, d))
            P[np.repeat(np.arange(k), np.diff(indptr)), cols] = weights
            emb = (x * signs) @ dense_hadamard(d) @ P.T * k**-0.5
            ratio = ((emb[ii] - emb[jj]) ** 2).sum(axis=1) / true_sq  # PARAMS judge squared norms
            failed += bool(np.any((ratio <= 1 - eps) | (ratio >= 1 + eps)))
        assert 0 < failed < trials
        assert {estimate_failure_rate(self.PARAMS, self.POINTS, trials, pairwise=True, workers=w).successes
                for w in (1, 2, 3)} == {failed}

    def test_more_workers_than_cores_under_a_short_switch_interval(self):
        serial = estimate_failure_rate(self.PARAMS, self.POINTS, 60, pairwise=True).successes
        result, interval = {}, sys.getswitchinterval()

        def run():
            result["est"] = estimate_failure_rate(self.PARAMS, self.POINTS, 60, pairwise=True, workers=5)

        thread = threading.Thread(target=run, daemon=True)
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert result["est"].successes == serial

    def test_a_failing_verdict_propagates(self, monkeypatch):
        def fails(*args, **kwargs):
            raise FloatingPointError("verdict")

        monkeypatch.setattr(verify, "_pairwise_trial_fails", fails)
        with pytest.raises(FloatingPointError, match="verdict"):
            estimate_failure_rate(self.PARAMS, self.POINTS, 60, pairwise=True, workers=2)

    def test_blocks_on_pool_threads_judge_inline(self, monkeypatch):
        # 7 blocks over 3 workers; the live calling thread keeps process_map off fork, so they
        # run on pool threads, where a block that handed its verdicts to the pool would wait on it
        monkeypatch.setattr(verify, "_PAIRWISE_BLOCK", 16)
        serial = estimate_failure_rate(self.PARAMS, self.POINTS, 100, pairwise=True).successes
        result = {}

        def run():
            result["est"] = estimate_failure_rate(self.PARAMS, self.POINTS, 100, pairwise=True, workers=3)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert result["est"].successes == serial


class TestPairwiseRawWidth:
    """Pairwise points of width d_raw are zero-padded to d inside the kernel, not by the caller."""

    # at 40 points, k = 64 multiplies each padded row by a dense copy of P (rows < k),
    # and k = 16 folds H and D into that copy; eps keeps the counts away from 0 and 100
    @pytest.mark.parametrize(
        "k,eps,criterion,folded",
        [(64, 0.7, NormCriterion.SQUARED_NORM, False), (16, 0.6, NormCriterion.NORM, True)],
    )
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_raw_rows_count_as_their_padded_copy(self, monkeypatch, k, eps, criterion, folded, workers):
        d, q = 256, 0.05
        points = np.random.default_rng(k).standard_normal((40, 200))
        padded = np.zeros((40, d))
        padded[:, :200] = points
        proj = sample_projection(k, d, q, 0)
        kernel = PhdKernel(np.ones(d), proj.indptr, proj.cols, proj.weights, k, len(points))
        assert (kernel.M is not None, kernel.Pt is not None) == (folded, not folded)
        monkeypatch.setattr(verify, "_PAIRWISE_BLOCK", 16)  # 7 blocks, so 3 workers share them
        counts = set()
        for seed in (1, 2, 3):
            params = JlParams(d=d, k=k, eps=eps, q=q, seed=seed, norm_criterion=criterion)
            raw = estimate_failure_rate(params, points, 100, pairwise=True, workers=workers)
            assert raw == estimate_failure_rate(params, padded, 100, pairwise=True, workers=workers)
            counts.add(raw.successes)
        assert not counts & {0, 100} and len(counts) > 1

    @pytest.mark.parametrize("d_raw", [64, 128, 257])
    def test_width_outside_the_padding_range_rejected(self, d_raw):
        points = np.random.default_rng(0).standard_normal((4, d_raw))
        with pytest.raises(DimensionError, match="128 < d_raw <= 256"):
            estimate_failure_rate(JlParams(d=256, k=8, eps=0.3, q=0.1, seed=0), points, 10, pairwise=True)


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

    # counts recorded before the signs were transformed in place, in batches of 2048
    # rows at d = 1024; the 4396 trials are now two blocks of 16 and 2 pieces of 256 rows
    @pytest.mark.parametrize("c,count", [(1.0, 4396), (1.5, 3280), (2.0, 866)])
    def test_counts_are_pinned(self, c, count):
        x = random_unit_vector(1024, 3)
        for workers in (1, 2):
            assert coord_exceedance_rate(x, c, 1e3, TRIAL_BLOCK + 300, seed=7, workers=workers).successes == count

    def test_count_is_pinned_at_one_row_per_piece(self):
        # above _CHUNK_CELLS cells a piece of signs is one row; the count was recorded
        # when the signs of 4-row batches were drawn in pieces of _CHUNK_CELLS cells
        assert _CHUNK_CELLS < 2**19
        x = random_unit_vector(2**19, 3)
        assert coord_exceedance_rate(x, 3.6, 1e3, 40, seed=11).successes == 13

    def test_random_unit_vector_rarely_exceeds(self):
        x = random_unit_vector(1024, 8)
        est = coord_exceedance_rate(x, 8.0, 1e4, 10_000, seed=9)
        assert est.p_hat < 1e-2

    def test_requires_unit_norm(self):
        with pytest.raises(ParameterError):
            coord_exceedance_rate(np.ones(4), 1.0, 10.0, 10, seed=0)

    @pytest.mark.parametrize("fill", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, fill):
        # an all-NaN x used to pass the unit check (NaN compares False) and read p_hat = 0
        with pytest.raises(ParameterError):
            coord_exceedance_rate(np.full(8, fill), 1.0, 10.0, 10, seed=0)

    @pytest.mark.parametrize("threshold_c, n", [(np.nan, 10.0), (np.inf, 10.0), (0.0, 10.0),
                                                (1.0, np.nan), (1.0, np.inf), (1.0, 1.0)])
    def test_threshold_c_and_n_must_be_finite_and_in_range(self, threshold_c, n):
        # a NaN threshold_c used to run and count no exceedance
        with pytest.raises(ParameterError, match="finite"):
            coord_exceedance_rate(np.full(8, 8**-0.5), threshold_c, n, 10, seed=0)

    @pytest.mark.parametrize("d", [6, 96])
    def test_length_must_be_a_power_of_two(self, d):
        with pytest.raises(DimensionError, match="power-of-two"):
            coord_exceedance_rate(np.full(d, d**-0.5), 1.0, 10.0, 10, seed=0)


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

    def test_parallel_matches_sequential(self):
        a = simulate_z_statistics(8, 0.2, 4, 20_000, seed=5, workers=1)
        for workers in (2, 3):
            b = simulate_z_statistics(8, 0.2, 4, 20_000, seed=5, workers=workers)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_statistics_are_exact_quotients_of_the_counts(self):
        m = 2955
        batch = simulate_z_statistics(m, 0.08, 108, 300, seed=6)
        for values, scale in ((batch.max_z, m), (batch.sum_z, m), (batch.sum_zsq, m * m)):
            counts = np.rint(values * scale)
            assert np.array_equal(counts / scale, values)

    def test_non_integer_m_or_k_is_rejected(self):
        with pytest.raises(ParameterError, match="integers"):
            simulate_z_statistics(2.5, 0.5, 1, 10, seed=0)
        with pytest.raises(ParameterError, match="integers"):
            simulate_z_statistics(4, 0.5, 2.0, 10, seed=0)
        batch = simulate_z_statistics(np.int64(4), 0.5, np.int32(2), 10, seed=0)
        assert np.all(batch.max_z <= 1.0)

    def test_m_beyond_the_log_pmf_range_is_rejected(self):
        with pytest.raises(ParameterError, match="m <= 10000"):
            simulate_z_statistics(10_001, 0.5, 1, 10, seed=0)
        with pytest.raises(ParameterError):
            simulate_z_statistics(0, 0.5, 1, 10, seed=0)

    def test_memory_is_one_sub_chunk_not_one_block(self):
        args = (2955, 0.08, 108, TRIAL_BLOCK)
        simulate_z_statistics(*args, seed=7)  # builds the cached table
        peak = {}

        def call():  # a new thread starts with empty scratch, so its scratch counts
            tracemalloc.start()
            try:
                simulate_z_statistics(*args, seed=8)
                peak["bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=call)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        outputs = 3 * TRIAL_BLOCK * 8  # max_z, sum_z and sum_zsq
        # a whole 4,096 x 108 block of uniforms alone is 3.5 MB
        assert peak["bytes"] <= outputs + 2 * 2**20


class TestBinomialSampler:
    """The guide-table inversion behind simulate_z_statistics."""

    LAWS = [(16, 0.05), (64, 0.25), (256, 0.5), (2955, 0.08)]

    @staticmethod
    def _invert(m, q, u):
        cdf, table = lemmas._binomial_table(m, q)
        return lemmas._binomial_invert(u, cdf, table, np.empty(len(u), np.int16), np.empty(len(u), np.int64))

    @pytest.mark.parametrize("m, q", LAWS + [(1, 0.3), (5, 1.0), (10_000, 0.5)])
    def test_equals_a_search_of_the_whole_cdf(self, m, q):
        cdf, table = lemmas._binomial_table(m, q)
        edges = np.arange(len(table)) / len(table)
        steps = cdf[(cdf > 0.0) & (cdf < 1.0)]
        u = np.concatenate([
            np.random.default_rng(m).random(10**6),
            edges, np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)],
            steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0),
        ])
        u = u[u < 1.0]
        assert np.array_equal(self._invert(m, q, u), np.searchsorted(cdf, u, side="right"))
        assert (table < 0).any() == (q < 1.0)  # the search path is taken

    @pytest.mark.parametrize("q", [1e-6, 0.05, 0.5, 1 - 1e-6, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 16, 255, 10_000])
    def test_guide_table_equals_the_two_searches(self, m, q):
        # reference: searchsorted of the 2^16 bucket edges in the CDF, O(2^16 log m)
        cdf, table = lemmas._binomial_table(m, q)
        edges = np.arange(len(table) + 1) / len(table)
        first = np.searchsorted(cdf, edges[:-1], side="right")
        last = np.searchsorted(cdf, edges[1:], side="left")
        assert np.array_equal(table, np.where(first == last, first, -1).astype(np.int16))

    @pytest.mark.parametrize("m, q", LAWS)
    def test_chi_square_fit(self, m, q):
        n = 200_000
        counts = np.rint(simulate_z_statistics(m, q, 1, n, seed=m).sum_z * m).astype(np.int64)
        observed = np.bincount(counts, minlength=m + 1)
        expected = n * stats.binom.pmf(np.arange(m + 1), m, q)
        # pool each tail into one bin so that every bin expects at least 5 draws
        lo, hi = np.flatnonzero(expected >= 5.0)[[0, -1]]
        pool = lambda a: np.concatenate([[a[: lo + 1].sum()], a[lo + 1 : hi], [a[hi:].sum()]])
        observed, expected = pool(observed), pool(expected)
        assert stats.chisquare(observed, expected * n / expected.sum()).pvalue > 1e-4

    @pytest.mark.parametrize("m, q", LAWS)
    def test_upper_tails_match_the_exact_tail(self, m, q):
        cdf, _ = lemmas._binomial_table(m, q)
        # below the mode the tails differ by the pmf's summed rounding (8.4e-13 relative at m = 2955);
        # above it by the rounding of 1 - cdf, under one unit in the last place of 1
        for s in np.unique(np.linspace(1, m, 60).astype(int)):
            assert 1.0 - cdf[s - 1] == pytest.approx(binomial_tail_exact(m, q, int(s)), rel=2e-12, abs=2.3e-16)

    def test_certain_success_and_one_trial(self):
        cdf, table = lemmas._binomial_table(5, 1.0)
        assert cdf.tolist() == [0.0] * 5 + [1.0] and np.all(table == 5)
        cdf, table = lemmas._binomial_table(1, 0.25)
        assert cdf[0] == pytest.approx(0.75, rel=1e-15) and cdf[1] == 1.0
        u = np.array([0.0, np.nextafter(cdf[0], 0.0), cdf[0], np.nextafter(1.0, 0.0)])
        assert self._invert(1, 0.25, u).tolist() == [0, 0, 1, 1]
        batch = simulate_z_statistics(1, 0.25, 1, 40_000, seed=9)
        assert set(np.unique(batch.max_z)) == {0.0, 1.0}
        assert abs(batch.sum_z.mean() - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 40_000)

    def test_no_table_is_built_at_import(self):
        code = "import fastjl.cli\nfrom fastjl import lemmas\nprint(lemmas._binomial_table.cache_info().currsize)"
        src = os.path.dirname(os.path.dirname(lemmas.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"

    def test_tables_are_read_only(self):
        cdf, table = lemmas._binomial_table(64, 0.25)
        with pytest.raises(ValueError):
            cdf[0] = 0.5
        with pytest.raises(ValueError):
            table[0] = 3

    def test_no_binomial_call(self, monkeypatch, tmp_path):
        class NoBinomial:
            def __init__(self, generator):
                self._generator = generator

            def __getattr__(self, name):
                return getattr(self._generator, name)

            def binomial(self, *args, **kwargs):
                raise AssertionError("Generator.binomial was called")

        real, made = fastjl_rng.substream, CallLog(tmp_path / "made")  # blocks drawn in worker processes log too

        def substream(*key):
            made.add(*key)
            return NoBinomial(real(*key))

        monkeypatch.setattr(fastjl_rng, "substream", substream)
        batch = simulate_z_statistics(64, 0.25, 8, 2 * TRIAL_BLOCK + 3, seed=10, workers=2)
        assert len(made.read()) == 3 and len(batch.sum_z) == 2 * TRIAL_BLOCK + 3


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

    def test_non_integer_m_or_k_violates_the_domain(self):
        m_spec = BoundSpec(Lemma.SINGLE_Z, {"m": 2.5, "q": 0.1, "t": 0.5})
        k_spec = BoundSpec(Lemma.MAX_Z, {"m": 16, "q": 0.5, "k": 2.5, "alpha": 0.25})
        assert any("m integer" in v for v in m_spec.domain_violations())
        assert any("k integer" in v for v in k_spec.domain_violations())
        with pytest.raises(DomainError, match="k integer"):
            run_bound_check(k_spec, trials=10, seed=0)
        assert BoundSpec(Lemma.MAX_Z, {"m": 16.0, "q": 0.5, "k": 8.0, "alpha": 0.25}).domain_satisfied

    @pytest.mark.parametrize("lemma", list(Lemma))
    def test_nan_parameter_violates_the_domain(self, lemma):
        # a NaN t of sum_zsq satisfied the domain and read FAIL against a NaN bound
        spec = next(s for s in default_bound_grid() if s.lemma is lemma)
        for name in spec.params:
            bad = BoundSpec(lemma, {**spec.params, name: math.nan})
            assert not bad.domain_satisfied
            with pytest.raises(DomainError):
                lemma_bound(bad)

    # n <= 0 escaped as ValueError (math domain error) and eps = 0 as ZeroDivisionError, from
    # the targets of k and t; c1 = 0 divided by zero in the eps bound; a tiny eps gave an infinite
    # k target, which a finite k matched
    @pytest.mark.parametrize("change, violated", [
        ({"n": -1.0}, "n >= 2"), ({"n": 0.0}, "n >= 2"), ({"eps": 0.0}, "eps <= 1/(4 e c1)"),
        ({"c1": 0.0}, "c1 >= 1"), ({"eps": 1e-300, "q": 1e-300}, "k = c1 eps^-2 ln n"),
    ])
    def test_sum_zsq_alt_outside_the_log_domain_raises_domain_error(self, change, violated):
        spec = BoundSpec(Lemma.SUM_ZSQ_ALT, {"m": 100, "q": 0.05, "k": 100, "t": 1e6, "n": 100.0,
                                             "c1": 1.0, "c2": 1.0, "eps": 0.05, **change})
        assert any(v.startswith(violated) for v in spec.domain_violations())
        assert not spec.domain_satisfied
        for check in (lemma_bound, lambda spec: run_bound_check(spec, trials=10, seed=0)):
            with pytest.raises(DomainError, match=re.escape(violated)):
                check(spec)

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


def _bound_event(spec):
    """(m, q, k, statistic, threshold) of the event a grid bound controls."""
    m, q = int(spec["m"]), spec["q"]
    if spec.lemma is Lemma.SINGLE_Z:
        return m, q, 1, "max_z", spec["t"]
    if spec.lemma is Lemma.MAX_Z:
        return m, q, int(spec["k"]), "max_z", q / (2.0 * spec["alpha"])
    return m, q, int(spec["k"]), "sum_zsq", spec["t"]


class TestBoundEventCounts:
    """run_bound_check counts its events on the uniforms that simulate_z_statistics draws."""

    T = 2 * TRIAL_BLOCK + 5

    @staticmethod
    def _reference(m, q, k, stat, threshold, trials, seed):
        return int(np.count_nonzero(getattr(simulate_z_statistics(m, q, k, trials, seed=seed), stat) > threshold))

    def test_grid_counts_equal_those_of_the_statistics(self):
        for index, spec in enumerate(default_bound_grid()):
            expected = self._reference(*_bound_event(spec), self.T, 40 + index)
            for workers in (1, 3):
                check = run_bound_check(spec, self.T, seed=40 + index, workers=workers)
                assert check.estimate.successes == expected, (spec, workers)

    @pytest.mark.parametrize("m, q, k, stat, threshold, expected", [
        (16, 0.3, 4, "max_z", -0.5, T),     # every trial
        (16, 0.3, 4, "sum_zsq", -0.5, T),
        (16, 0.3, 4, "max_z", 1.0, 0),      # no count exceeds it
        (16, 0.3, 4, "max_z", 1.5, 0),
        (16, 0.3, 4, "sum_zsq", 4.0, 0),
        (16, 0.3, 4, "max_z", 5 / 16, None),  # a count's quotient exactly: the event is strict
        (4, 0.5, 3, "sum_zsq", 6 / 16, None),
        (5, 1.0, 3, "max_z", 0.5, T),       # q = 1: every count is m
        (5, 1.0, 3, "max_z", 1.0, 0),
        (5, 1.0, 3, "sum_zsq", 2.5, T),
        (1, 0.25, 2, "max_z", 0.0, None),   # m = 1
        (1, 0.25, 2, "sum_zsq", 1.0, None),
        (16, 0.3, 1, "max_z", 0.25, None),  # k = 1
        (16, 0.3, 1, "sum_zsq", 0.1, None),
    ])
    def test_edges(self, m, q, k, stat, threshold, expected):
        reference = self._reference(m, q, k, stat, threshold, self.T, 12)
        if expected is not None:
            assert reference == expected
        for workers in (1, 3):
            assert lemmas._z_event_successes(m, q, k, stat, threshold, self.T, 12, workers) == reference

    def test_a_count_equal_to_the_threshold_is_no_success(self):
        strict = self._reference(16, 0.3, 4, "max_z", 5 / 16, self.T, 12)
        reached = int(np.count_nonzero(simulate_z_statistics(16, 0.3, 4, self.T, seed=12).max_z >= 5 / 16))
        assert 0 < strict < reached  # so the edge case above tells > from >=

    @pytest.mark.parametrize("k", [1, 3])
    def test_uniforms_on_and_beside_each_cdf_step(self, monkeypatch, k):
        # a uniform equal to cdf[c - 1] draws the count c: the max-type compare must take it
        cdf, _ = lemmas._binomial_table(16, 0.3)
        u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]

        class Fixed:
            def random(self, out):
                out[:] = np.resize(u, len(out))
                return out

        monkeypatch.setattr(fastjl_rng, "substream", lambda *key: Fixed())
        for j in range(17):
            expected = self._reference(16, 0.3, k, "max_z", j / 16, len(u), 0)
            assert lemmas._z_event_successes(16, 0.3, k, "max_z", j / 16, len(u), 0, 1) == expected

    def test_max_type_events_draw_no_counts(self, monkeypatch):
        def invert(*args):
            raise AssertionError("a max-type event inverted its uniforms")

        monkeypatch.setattr(lemmas, "_binomial_invert", invert)
        run_bound_check(BoundSpec(Lemma.MAX_Z, {"m": 64, "q": 0.25, "k": 8, "alpha": 0.1}), 100, seed=0)
        run_bound_check(BoundSpec(Lemma.SINGLE_Z, {"m": 64, "q": 0.25, "t": 0.5}), 100, seed=0)
        with pytest.raises(AssertionError):
            run_bound_check(next(s for s in default_bound_grid() if s.lemma is Lemma.SUM_ZSQ), 100, seed=0)


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

    def test_values_are_pinned(self):
        # sha256 prefix of the tails over the reverse-Chernoff grid and a few more (r, q, s)
        points = [(r, q, math.ceil((1.0 + alpha) * q * r)) for r, q, alpha in reverse_chernoff_grid()]
        points += [(10, 0.5, 3), (64, 0.25, 40), (600, 0.01, 20), (2955, 0.08, 300), (10_000, 0.3, 3_100),
                   (10_000, 0.999, 9_990), (7, 0.2, 0), (5, 1.0, 5), (5, 0.0, 1)]
        tails = np.array([binomial_tail_exact(r, q, s) for r, q, s in points])
        assert hashlib.sha256(tails.tobytes()).hexdigest()[:16] == "4486faac63bfc7d4"

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

    def test_grid_against_scipy_survival(self):
        for r, q, alpha in reverse_chernoff_grid():
            check = reverse_chernoff_check(r, q, alpha)
            assert check.exact == pytest.approx(float(stats.binom.sf(check.threshold - 1, r, q)), rel=1e-12)


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

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_constants_must_be_finite_and_positive(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            chisq_lower_tail_check((1.0,), 0.0, 10, c3=bad, C3=2.0, seed=0)
        with pytest.raises(ParameterError, match="finite"):
            chisq_lower_tail_check((1.0,), 0.0, 10, c3=0.1, C3=bad, seed=0)


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

    def test_grid_against_scipy_chi_square(self):
        # chi2.sf goes through the incomplete gamma function and is itself off
        # by 2.6e-14 relative at x = 2, where erfc matches a 40-digit value
        for x in gaussian_square_grid():
            assert gaussian_square_tail_check(x).exact == pytest.approx(float(stats.chi2.sf(x, 1)), rel=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_square_tail_check(-0.5)

    def test_nan_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_square_tail_check(math.nan)


class TestElementaryInequality:
    @pytest.mark.parametrize("x,a", [(0.0, 7.0), (0.5, 2.0), (1.0, 1.0)])
    def test_examples(self, x, a):
        assert elementary_ineq_holds(x, a)

    def test_full_grid(self):
        grid = elementary_grid()
        assert len(grid) == 10_000
        assert elementary_ineq_holds(*grid.T).all()

    def test_grid_equals_the_loop_construction(self):
        pairs = []
        for xi in np.linspace(0.0, 1.0, 100):
            a_max = 100.0 if xi == 0.0 else 1.0 / xi
            pairs.extend((float(xi), float(a)) for a in np.linspace(0.0, a_max, 100))
        assert np.array_equal(elementary_grid(), np.array(pairs))

    def test_array_verdicts_equal_the_scalar_check(self):
        # a pair outside the domain, (1/2, 10), is the one that does not hold
        grid = np.vstack([elementary_grid(), [[0.5, 10.0]]])
        holds = elementary_ineq_holds(*grid.T)
        assert holds[:-1].all() and not holds[-1]
        assert holds.tolist() == [bool(elementary_ineq_holds(x, a)) for x, a in grid.tolist()]


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

    def test_workers_do_not_change_samples(self):
        trials = 2 * TRIAL_BLOCK + 5  # three blocks
        one = total_mass_statistic(0.25, 1e-3, 1024, 0.01, trials, seed=22)
        two = total_mass_statistic(0.25, 1e-3, 1024, 0.01, trials, seed=22, workers=2)
        assert np.array_equal(one.samples, two.samples) and one.estimate == two.estimate


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
        for index, lo in enumerate(range(0, trials, TRIAL_BLOCK)):
            normals = substream(seed, index).standard_normal(min(TRIAL_BLOCK, trials - lo))
            x = np.exp(lemmas.MGF_RATE * (normals**2 - 1.0))
            parts.append((x.sum(), (x * x).sum()))
        mean = math.fsum(p[0] for p in parts) / trials
        var = (math.fsum(p[1] for p in parts) - trials * mean * mean) / (trials - 1)
        assert abs(mean - est.target) > 3.0 * math.sqrt(var / trials)


class TestRunTrials:
    def test_zero_trials_rejected(self):
        with pytest.raises(ParameterError):
            run_trials(0, 0, lambda rng, count: pytest.fail("drew a block"))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ParameterError):
            run_trials(seed, 10, lambda rng, count: pytest.fail("drew a block"))

    def test_block_counts(self):
        assert run_trials(3, 2 * TRIAL_BLOCK + 5, lambda rng, count: count) == [4096, 4096, 5]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("block", [1, 5, 16])
    def test_block_argument_sets_the_block_size(self, block, workers):
        # 37 trials: block b draws min(block, 37 - b * block) of them from substream(9, b)
        got = run_trials(9, 37, lambda rng, count: (count, int(rng.integers(2**62))), workers, block=block)
        assert got == [(min(block, 37 - b * block), int(substream(9, b).integers(2**62)))
                       for b in range(-(-37 // block))]

    def test_block_order_at_three_workers(self):
        def draw(rng, count):
            if count == TRIAL_BLOCK:
                time.sleep(0.05)  # the short last block finishes first
            return count, int(rng.integers(2**62))

        expected = [(count, int(substream(4, b).integers(2**62)))
                    for b, count in enumerate((TRIAL_BLOCK, TRIAL_BLOCK, 5))]
        assert run_trials(4, 2 * TRIAL_BLOCK + 5, draw, workers=3) == expected

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("blocks", [1, 2, 7])
    def test_one_stream_per_block_in_block_order(self, monkeypatch, tmp_path, blocks, workers):
        # the blocks go out as min(workers, blocks) contiguous runs, one task each, in its own process;
        # the substreams are logged to a file, which the worker processes append to as well
        made, tasks = CallLog(tmp_path / "made"), []
        real_substream, real_map = fastjl_rng.substream, fastjl_rng.process_map

        def substream(seed, *key):
            made.add(os.getpid(), *key)
            return real_substream(seed, *key)

        def process_map(fn, items, w):
            tasks.append(len(items))
            return real_map(fn, items, w)

        monkeypatch.setattr(fastjl_rng, "substream", substream)
        monkeypatch.setattr(fastjl_rng, "process_map", process_map)
        trials = (blocks - 1) * TRIAL_BLOCK + 5
        got = run_trials(6, trials, lambda rng, count: (count, int(rng.integers(2**62))), workers=workers)
        counts = [TRIAL_BLOCK] * (blocks - 1) + [5]
        assert got == [(count, int(real_substream(6, b).integers(2**62))) for b, count in enumerate(counts)]
        assert sorted(key for _, key in made.read()) == list(range(blocks))
        assert tasks == [min(workers, blocks)]
        # each task drew one contiguous run of blocks, in block order, in a process of its own
        runs = {}
        for pid, key in made.read():
            runs.setdefault(pid, []).append(key)
        assert len(runs) == min(workers, blocks)
        assert all(run == list(range(run[0], run[0] + len(run))) for run in runs.values())

    def test_earliest_error_raised_once_every_block_returned(self, tmp_path):
        # block 0 fails at once while block 1 sleeps; its error must wait for block 1, whose
        # process logs its return time to a file (CLOCK_MONOTONIC is the same in every process)
        returned = CallLog(tmp_path / "returned")

        def draw(rng, count):
            if count == TRIAL_BLOCK:
                raise ValueError("block 0")
            time.sleep(0.2)
            returned.add(time.monotonic())
            return count

        with pytest.raises(ValueError, match="block 0"):
            run_trials(2, TRIAL_BLOCK + 5, draw, workers=2)
        raised = time.monotonic()
        assert len(returned.read()) == 1 and returned.read()[0][0] < raised


class TestParallelMap:
    """``rng.runs`` cuts the work; ``rng.parallel_map`` runs item 0 here and the rest on threads of this call."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 64])
    @pytest.mark.parametrize("n", [0, 1, 5, 64, 65])
    def test_runs_are_contiguous_and_near_equal(self, n, workers):
        parts = fastjl_rng.runs(n, workers)
        assert len(parts) == min(n, workers)
        assert [i for part in parts for i in part] == list(range(n))
        assert all(n // len(parts) <= len(part) <= -(-n // len(parts)) for part in parts)

    @pytest.mark.parametrize("workers, items", [(2, 2), (3, 3), (3, 2), (4, 9)])
    def test_item_0_runs_here_and_at_most_workers_minus_1_threads_start(self, workers, items):
        here, threads = threading.get_ident(), {}

        def task(item):
            threads[item] = threading.get_ident()
            time.sleep(0.01)  # so that the threads overlap
            return 2 * item

        assert fastjl_rng.parallel_map(task, range(items), workers) == [2 * item for item in range(items)]
        others = {threads[item] for item in range(1, items)}
        assert threads[0] == here and here not in others and len(others) <= workers - 1
        assert threading.active_count() == 1

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_error_in_item_0_is_raised_once_every_thread_returned(self, error):
        returned = []

        def task(item):
            if item == 0:
                raise error("item 0")
            time.sleep(0.1)
            returned.append(item)

        with pytest.raises(error, match="item 0"):
            fastjl_rng.parallel_map(task, [0, 1, 2], 3)
        assert sorted(returned) == [1, 2] and threading.active_count() == 1


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):  # this process has no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _block(rng) -> int:
    return rng.bit_generator.seed_seq.spawn_key[0]


class TestWorkerProcesses:
    """A run of several blocks puts each worker's blocks in a process made with ``os.fork``."""

    def test_each_run_is_a_process_of_its_own(self):
        pids = run_trials(1, 3 * TRIAL_BLOCK, lambda rng, count: os.getpid(), workers=3)
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        _no_child_left()

    # block 0 runs in this process, blocks 1 and 2 in children
    @pytest.mark.parametrize("failing", [(), (0,), (1,), (2,), (1, 2), (0, 2)])
    def test_earliest_error_and_no_child_left(self, failing):
        def draw(rng, count):
            if _block(rng) in failing:
                raise DomainError(f"block {_block(rng)}")
            return count

        if failing:
            with pytest.raises(DomainError, match=f"^block {failing[0]}$"):
                run_trials(1, 3 * TRIAL_BLOCK, draw, workers=3)
        else:
            assert run_trials(1, 3 * TRIAL_BLOCK, draw, workers=3) == [TRIAL_BLOCK] * 3
        _no_child_left()

    def test_memory_error_in_a_child_is_raised_here(self):
        def draw(rng, count):
            if _block(rng) == 1:
                raise MemoryError("block 1")
            return count

        with pytest.raises(MemoryError, match="block 1"):
            run_trials(1, 2 * TRIAL_BLOCK, draw, workers=2)
        _no_child_left()

    def test_child_that_dies_without_a_result_is_an_os_error(self):
        def draw(rng, count):
            if _block(rng) == 1:
                os._exit(3)
            return count

        with pytest.raises(ChildProcessError, match="ended without a result"):
            run_trials(1, 2 * TRIAL_BLOCK, draw, workers=2)
        _no_child_left()

    def test_run_after_a_threaded_apply_forks_and_gives_the_one_worker_counts(self):
        # the apply's thread returns with the call, so the 2-worker runs that follow fork
        X = np.random.default_rng(0).standard_normal((3 * (_CHUNK_CELLS // 64), 64))
        apply_phd(X, sample_signs(64, 1), sample_projection(16, 64, 0.25, 1), workers=2)
        assert threading.active_count() == 1
        pids = run_trials(1, 2 * TRIAL_BLOCK, lambda rng, count: os.getpid(), workers=2)
        assert pids[0] == os.getpid() and len(set(pids)) == 2
        params = JlParams(d=64, k=16, q=0.2, eps=0.2, seed=32)
        x = np.random.default_rng(7).standard_normal(64)
        counts = [estimate_failure_rate(params, x, 3 * TRIAL_BLOCK, workers=w).successes for w in (2, 1)]
        assert counts[0] == counts[1]
        _no_child_left()


PINNED_TRIALS = 2 * TRIAL_BLOCK + 5  # three blocks, the last one short


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _pin_witness(workers):
    r = lower_bound_witness(0.25, 0.05, 256, 0.02, PINNED_TRIALS, seed=36, workers=workers)
    return _sha(r.first_term, r.rest_sum, r.total, r.failed, r.max_term, r.rest_excluding_max)


def _pin_mgf(workers):
    est = mgf_premise_estimate(PINNED_TRIALS, seed=38, workers=workers)
    return est.mean.hex(), est.stderr.hex()


def _pin_unit_vector():
    x = np.random.default_rng(9).standard_normal(64)
    return x / np.linalg.norm(x)


T = PINNED_TRIALS
# Outputs of every Monte Carlo estimator over three blocks: counts, or a sha256
# prefix of the arrays.  A change of any random stream shows here.
STREAM_PINS = {
    "simulate_z_statistics": (
        lambda w: _sha(*simulate_z_statistics(8, 0.2, 4, T, seed=31, workers=w)), "cffbe4bdcebea42e"),
    "estimate_failure_rate": (
        lambda w: estimate_failure_rate(JlParams(d=64, k=16, q=0.2, eps=0.2, seed=32),
                                        np.random.default_rng(7).standard_normal(64), T,
                                        workers=w).successes, 5038),
    "estimate_failure_rate_pairwise": (
        lambda w: estimate_failure_rate(JlParams(d=16, k=16, q=0.5, eps=0.8, seed=33),
                                        np.random.default_rng(8).standard_normal((6, 16)), T,
                                        pairwise=True, workers=w).successes, 2538),
    # 300 trials: 19 pairwise blocks, the last one of 12 trials
    "estimate_failure_rate_pairwise_19_blocks": (
        lambda w: estimate_failure_rate(JlParams(d=16, k=16, q=0.5, eps=0.8, seed=39),
                                        np.random.default_rng(10).standard_normal((6, 16)), 300,
                                        pairwise=True, workers=w).successes, 94),
    "coord_exceedance_rate": (
        lambda w: coord_exceedance_rate(_pin_unit_vector(), 2.0, 100.0, T, seed=34, workers=w).successes, 953),
    "chisq_lower_tail_check": (
        lambda w: chisq_lower_tail_check([1.0, 0.5, 0.25], 2.0, T, 0.1, 2.0, seed=35,
                                         workers=w).estimate.successes, 895),
    "lower_bound_witness": (_pin_witness, "d8fcd983bab96f22"),
    "total_mass_statistic": (
        lambda w: _sha(total_mass_statistic(0.25, 1e-3, 1024, 0.01, T, seed=37, workers=w).samples),
        "267b6cb683c61c76"),
    "mgf_premise_estimate": (_pin_mgf, ("0x1.2aa8cb6c52ca8p+0", "0x1.1d17af7421752p-9")),
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_streams_are_pinned(name):
    run, expected = STREAM_PINS[name]
    for workers in (1, 2, 3):
        assert run(workers) == expected


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
