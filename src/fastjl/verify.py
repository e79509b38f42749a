"""Monte Carlo checks of the per-vector statement, and the records that every check reports.

:func:`estimate_failure_rate` counts the ``(D, P)`` draws that distort a
vector or a point set, :func:`coord_exceedance_rate` the sign draws that
break the coordinate bound, and :func:`lower_bound_witness` and
:func:`total_mass_statistic` simulate the hard instance.  Probabilities are
:class:`TailEstimate` values with a 95% Wilson score interval, and
:func:`make_record` writes a result as one JSON-lines record;
:mod:`fastjl.lemmas` reports its checks through the same records.

Every Monte Carlo estimator draws its trials through
:func:`fastjl.rng.run_trials`, in fixed blocks of
:data:`fastjl.rng.TRIAL_BLOCK` (``_PAIRWISE_BLOCK`` for point sets); block
``b`` uses the stream ``(seed, b)``, so runs are reproducible and can be
distributed over workers without changing any count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import (OPEN_UNIT, POINT_COUNT, POSITIVE, RATE, DimensionError, DomainError, ParameterError,
                     check_finite, check_real, check_size)
from .instances import hard_vector
from .rng import run_trials
from .sparsity import choose_k
from .transform import (JlParams, NormCriterion, PhdKernel, _CHUNK_CELLS, _draw_projection_arrays, _draw_signs,
                        _fwht_last_axis, _gap_batch, _geometric_positions, is_power_of_two)

Z95 = 1.96

__all__ = [
    "Z95",
    "TailEstimate",
    "wilson_interval",
    "Verdict",
    "estimate_failure_rate",
    "coord_exceedance_rate",
    "WitnessReport",
    "lower_bound_witness",
    "TotalMassResult",
    "total_mass_statistic",
    "make_record",
]


# --------------------------------------------------------------------------
# estimates and intervals


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion."""
    check_size("successes", successes, (0, check_size("trials", trials)))
    check_real("z", z, POSITIVE)
    p = successes / trials
    zz = z * z / trials
    center = (p + zz / 2.0) / (1.0 + zz)
    half = z * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials)) / (1.0 + zz)
    # the boundary endpoints are exactly 0 and 1; don't let rounding blur them
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo probability estimate with a 95% Wilson interval."""

    successes: int
    trials: int
    p_hat: float
    wilson_lo: float
    wilson_hi: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "TailEstimate":
        lo, hi = wilson_interval(successes, trials)
        return cls(successes=int(successes), trials=int(trials), p_hat=successes / trials,
                   wilson_lo=lo, wilson_hi=hi)


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    VACUOUS = "VACUOUS"


# --------------------------------------------------------------------------
# distortion failure rates


def _norm_window_fails(ratio_sq: np.ndarray, eps: float, criterion: NormCriterion) -> np.ndarray:
    r = ratio_sq if criterion is NormCriterion.SQUARED_NORM else np.sqrt(ratio_sq)
    return (r <= 1.0 - eps) | (r >= 1.0 + eps)


# Expected cells per sub-chunk of single-vector trials: sign cells (t * d) or
# sampled entries of P (t * k * d * q), whichever is larger; 7 trials at
# d = 1024, k = 267, q = 0.016.  With the per-block scratch a trial there takes
# a median 124-134 us at every size from 2^15 to 2^18 (2-core x86 box).  The
# size fixes where the random streams are cut, so it cannot change alone.
_TRIAL_CHUNK_CELLS = 1 << 15

# The constant c of the Gram-distance margin; see _pairwise_trial_fails.
_GRAM_MARGIN = 8.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal

# Scratch cells of a block of true pairwise distances (256 KB); at 128 x 200 points
# every size from 2^12 to 2^16 cells timed alike, within 10% (2-core x86 box).
_PAIR_CELLS = 1 << 15

# Trials per block of a pairwise run: short, so that a run of a few dozen trials
# still splits over workers; 8 and 16 timed alike at 128 x 200 points (2-core x86 box).
_PAIRWISE_BLOCK = 16


def _pair_sq_distances(Y: np.ndarray) -> np.ndarray:
    """``||Y[i] - Y[j]||^2`` for the pairs ``i < j`` in ``np.triu_indices`` order.

    Bit-identical to ``((Y[ii] - Y[jj]) ** 2).sum(axis=1)``: the same
    squares and last-axis sums, of the differences ``Y[i+1:] - Y[i]``, which
    are exactly the negated ``Y[i] - Y[i+1:]`` (IEEE rounding is symmetric)
    and take 0.75x its time.  Whole rows ``i`` go in blocks whose differences
    fill one scratch of ``max(_PAIR_CELLS, (n - 1) d)`` cells, so memory is
    O(n * d), not O(n^2 * d), and a block takes one subtraction per row but
    one square and one sum for all its pairs.
    """
    n, d = Y.shape
    out = np.empty(n * (n - 1) // 2)
    scratch = np.empty((max(_PAIR_CELLS // d, n - 1), d))
    i = lo = 0
    while i < n - 1:
        hi = lo
        while i < n - 1 and hi - lo + n - 1 - i <= len(scratch):
            np.subtract(Y[i + 1 :], Y[i], out=scratch[hi - lo : hi - lo + n - 1 - i])
            hi, i = hi + n - 1 - i, i + 1
        diff = scratch[: hi - lo]
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[lo:hi])
        lo = hi
    return out


def _pairwise_trial_fails(
    emb: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    true_sq: np.ndarray,
    eps: float,
    criterion: NormCriterion,
    margin: float = _GRAM_MARGIN,
    flat: np.ndarray | None = None,
) -> bool:
    """Whether some pair ``(ii, jj)`` of the embedded points ``emb`` leaves the window.

    ``flat`` is ``ii * n + jj``, the pairs' indices into the raveled n x n Gram
    matrix; a trial loop builds it once and passes it in.

    The verdict equals that of the direct ``((emb[ii] - emb[jj]) ** 2).sum(axis=1)
    / true_sq``: distances come from the Gram matrix ``G = emb emb^T`` as
    ``est = G_ii + G_jj - 2 G_ij``, and only pairs within a rounding margin of a
    window edge are recomputed with the direct formula.

    Margin (u the unit roundoff, S = G_ii + G_jj + |est| as computed, D the
    exact ||e_i - e_j||^2): a k-term dot product in any order is off by at most
    k u ||e_i|| ||e_j|| (Higham, Thm 3.1), so with the two operations forming
    est, |est - D| <= (2k + 2) u S.  The direct formula sums k non-negative
    terms with relative error 3u each, so it is within (k + 3) u D of D.  After
    the divisions the two ratios differ by at most (3k + 8) u S / true_sq.
    Squared edges, the square root and the comparisons add a few u times the
    edge, and S / true_sq is at least about half the edge wherever the ratio
    is near it.  So c (k + 4) u S / true_sq with c = ``margin`` = 8 covers it
    all; a smallest subnormal per term covers underflow.  Non-finite values
    lie in no sure region, so they are recomputed.
    """
    n, k = emb.shape
    if flat is None:
        flat = ii * n + jj
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are recomputed below
        G = emb @ emb.T
        g = G.diagonal()
        s = g[ii]
        s += g[jj]  # G_ii + G_jj
        ratio = G.ravel()[flat]
        ratio *= -2.0
        ratio += s  # est = G_ii + G_jj - 2 G_ij, and below est / true_sq: in place, with the formula's rounding
        slack = np.abs(ratio)
        slack += s
        slack *= _UNIT_ROUNDOFF
        slack += _SMALLEST_SUBNORMAL
        slack *= margin * (k + 4)
        slack /= true_sq
        ratio /= true_sq
    lo, hi = 1.0 - eps, 1.0 + eps
    if criterion is NormCriterion.NORM:
        lo, hi = lo * lo, hi * hi
    # the pairs outside the sure-inside window: a sure failure is one of them
    near = np.flatnonzero(~((ratio > lo + slack) & (ratio < hi - slack)))
    if not near.size:
        return False
    ratio, slack = ratio[near], slack[near]
    if np.any((ratio < lo - slack) | (ratio > hi + slack)):
        return True
    exact = ((emb[ii[near]] - emb[jj[near]]) ** 2).sum(axis=1)
    return bool(np.any(_norm_window_fails(exact / true_sq[near], eps, criterion)))


def estimate_failure_rate(
    params: JlParams,
    source,
    trials: int,
    *,
    pairwise: bool = False,
    workers: int = 1,
) -> TailEstimate:
    """Fraction of fresh (D, P) draws that distort the norm criterion.

    ``source`` is a fixed vector of length params.d or (with
    ``pairwise=True``) a fixed point set of shape (n_points, d_raw) with
    ``d // 2 < d_raw <= d``; in pairwise mode a trial fails when any pairwise
    distance is distorted.  Points narrower than d are zero-padded inside the
    kernel's scratch, so the true distances come from the raw columns and no
    padded copy of the set is made.  NaN or infinity in ``source`` raises
    :class:`ParameterError`.  ``source`` is first divided by the power of two
    that brings its largest ``|entry|`` into [1/2, 1); that is exact, so any
    finite input gives the rate of its scaled copy, whatever its magnitude.

    Single-vector trials go in sub-chunks of about 2^15 cells (sized from the
    shapes only).  A chunk draws its signs and, with one gap-skipping call,
    the supports of all its projections.  Given the support S_i, row i of
    ``P H D x`` is ``N(0, sum_{j in S_i} (HDx)_j^2 / q)``, so each trial draws
    k Gaussians instead of one weight per entry of P.  The
    arrays of about ``t k d q`` entries (gaps, positions, rows, cells, gathered
    values) live in one scratch per block, so per thread, that every chunk
    reuses: arrays made afresh per chunk cost about 40 page faults per trial.
    A pairwise trial draws its signs and P from the block's stream, embeds
    the points with :class:`fastjl.transform.PhdKernel` and takes distances
    from the Gram matrix, recomputing pairs near a window edge with the
    direct formula, so every verdict is the direct formula's.  Memory is
    O(chunk) for single vectors and O(n^2 + n k) for n points.  Trials go
    through :func:`fastjl.rng.run_trials`: block ``b`` draws from
    ``substream(seed, b)``, with :data:`fastjl.rng.TRIAL_BLOCK` trials per
    block for single vectors and ``_PAIRWISE_BLOCK`` (16) for point sets, so
    counts are the same at every worker count.
    """
    d, k, q, eps = params.d, params.k, params.q, params.eps
    criterion = params.norm_criterion
    x = np.asarray(source, dtype=np.float64)
    check_finite("source", x)
    # scaled by a power of two, exactly, to a largest |entry| in [1/2, 1): squared
    # norms and distances neither overflow nor underflow, and every ratio is unchanged
    x = np.ldexp(x, -np.frexp(np.abs(x).max(initial=0.0))[1])
    if pairwise:
        if x.ndim != 2 or not d // 2 < x.shape[1] <= d:
            raise DimensionError(f"pairwise source must be (n, d_raw) with {d // 2} < d_raw <= {d}, got {x.shape}")
        n = len(x)
        if n < 2:
            raise ParameterError("pairwise mode needs at least two points")
        ii, jj = np.triu_indices(n, k=1)
        flat = ii * n + jj
        true_sq = _pair_sq_distances(x)
        if np.any(true_sq == 0.0):
            raise ParameterError("pairwise source contains duplicate points (norm criterion undefined)")

        def draw(rng: np.random.Generator, count: int) -> int:
            failed = 0
            for _ in range(count):
                kernel = PhdKernel(_draw_signs(rng, d), *_draw_projection_arrays(rng, k, d, q), k, n, one_shot=True)
                failed += _pairwise_trial_fails(kernel.apply(x), ii, jj, true_sq, eps, criterion, flat=flat)
            return failed

        return TailEstimate.from_counts(sum(run_trials(params.seed, trials, draw, workers, _PAIRWISE_BLOCK)), trials)

    if x.ndim != 1 or x.shape[0] != d:
        raise DimensionError(f"source vector must have length {d}, got shape {x.shape}")
    x_sq = float(x @ x)
    if x_sq == 0.0:
        raise ParameterError("zero vector: norm criterion undefined")
    log_d = d.bit_length() - 1
    step = max(1, int(_TRIAL_CHUNK_CELLS // max(d, k * d * q)))
    trial_base = (np.arange(step * k) // k) << log_d  # row of the stacked supports -> trial * d

    def one_chunk(rng: np.random.Generator, t: int, scratch: list[np.ndarray]) -> int:
        u = _draw_signs(rng, (t, d))  # becomes (H D x)^2, one row per trial
        u *= x
        _fwht_last_axis(u)
        u *= u
        pos = _geometric_positions(rng, t * k * d, q, scratch[:2])  # cells of t stacked k x d supports
        n = len(pos)
        if n > len(scratch[0]):  # a top-up outgrew the scratch: grow it for the rest of the block
            scratch[:] = [np.empty(n, a.dtype) for a in scratch]
        vals, _, rows, cells = (a[:n] for a in scratch)  # the gaps are spent: their array takes the values
        np.right_shift(pos, log_d, out=rows)
        np.take(trial_base, rows, out=cells, mode="clip")  # in range; "clip" writes without a copy
        pos &= d - 1
        cells |= pos  # (trial, column) of each entry
        np.take(u.ravel(), cells, out=vals, mode="clip")
        var = np.bincount(rows, weights=vals, minlength=t * k).astype(float, copy=False)  # int64 if n == 0
        var *= rng.standard_normal(t * k) ** 2
        ratio_sq = var.reshape(t, k).sum(axis=1) / (q * k * x_sq)
        return int(np.count_nonzero(_norm_window_fails(ratio_sq, eps, criterion)))

    def draw(rng: np.random.Generator, count: int) -> int:
        n = _gap_batch(step * k * d, q)
        scratch = [np.empty(n), np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n, np.int64)]
        return sum(one_chunk(rng, min(step, count - start), scratch) for start in range(0, count, step))

    return TailEstimate.from_counts(sum(run_trials(params.seed, trials, draw, workers)), trials)


def coord_exceedance_rate(
    x: np.ndarray, threshold_c: float, n: float, trials: int, seed: int, workers: int = 1
) -> TailEstimate:
    """Fraction of sign draws with max_i |(HDx)_i| above sqrt(threshold_c ln(n) / d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or not is_power_of_two(len(x)):
        raise DimensionError(f"x must be a vector of power-of-two length, got shape {x.shape}")
    if not abs(float(x @ x) - 1.0) <= 1e-9:  # NaN or infinity in x makes x @ x NaN or infinity
        raise ParameterError("x must be a finite unit vector")
    check_real("n", n, POINT_COUNT)
    check_real("threshold_c", threshold_c, POSITIVE)
    d = x.shape[0]
    threshold = math.sqrt(threshold_c * math.log(n) / d)
    rows_per_piece = max(1, _CHUNK_CELLS // d)

    def draw(rng: np.random.Generator, count: int) -> int:
        failures = 0
        # signs drawn in pieces are the stream of one call
        for start in range(0, count, rows_per_piece):
            u = _draw_signs(rng, (min(rows_per_piece, count - start), d))
            u *= x
            _fwht_last_axis(u)
            failures += int(np.count_nonzero(np.abs(u, out=u).max(axis=1) > threshold))
        return failures

    return TailEstimate.from_counts(sum(run_trials(seed, trials, draw, workers)), trials)


# --------------------------------------------------------------------------
# lower-bound witness


@dataclass(frozen=True)
class WitnessReport:
    """Per-trial decomposition of the conditioned hard-instance embedding.

    ``first_term`` is coordinate 1 of the sum, ``rest_sum`` the remainder;
    ``max_term``/``rest_excluding_max`` give the same split at the dominant
    coordinate, which is the exchangeable form of the single-coordinate
    blow-up mechanism.  ``failed`` applies the squared-norm criterion to
    total/k.
    """

    eps: float
    delta: float
    d: int
    q: float
    k: int
    m: int
    level: int
    seed: int
    trials: int
    first_term: np.ndarray
    rest_sum: np.ndarray
    total: np.ndarray
    failed: np.ndarray
    max_term: np.ndarray
    rest_excluding_max: np.ndarray
    estimate: TailEstimate

    def mechanism_fraction(self, *, dominant: bool = True) -> float:
        """Fraction of failing trials where a single coordinate exceeds eps*k
        while the remaining sum stays >= (1-3 eps)(k-1)."""
        if not self.failed.any():
            return 0.0
        big, rest = (self.max_term, self.rest_excluding_max) if dominant else (self.first_term, self.rest_sum)
        hit = (big > self.eps * self.k) & (rest >= (1.0 - 3.0 * self.eps) * (self.k - 1))
        return float(np.count_nonzero(hit & self.failed) / np.count_nonzero(self.failed))


def lower_bound_witness(
    eps: float, delta: float, d: int, q: float, trials: int, seed: int, workers: int = 1
) -> WitnessReport:
    """Simulate the conditioned hard-instance embedding and its failure rate.

    Conditions on the sign event D x = x analytically: given the transformed
    vector with m equal coordinates, ||P u||^2 is distributed as
    sum_i Z_i N_i^2 / q with Z_i = Binomial(m, q)/m, so trials draw those
    variables directly instead of rejection-sampling signs.
    """
    check_real("q", q, RATE)
    check_real("eps", eps, OPEN_UNIT)
    inst = hard_vector(delta, d)
    k = choose_k(eps, delta=delta, c_k=1.0)
    m = inst.m

    def draw(rng: np.random.Generator, count: int):
        z = rng.binomial(m, q, size=(count, k)) / m
        n2 = rng.standard_normal((count, k)) ** 2
        terms = z * n2 / q
        total = terms.sum(axis=1)
        first = terms[:, 0]
        mx = terms.max(axis=1)
        failed = (total <= (1.0 - eps) * k) | (total >= (1.0 + eps) * k)
        return first, total - first, total, failed, mx, total - mx

    parts = run_trials(seed, trials, draw, workers)
    first_term, rest_sum, total, failed, max_term, rest_excl = map(np.concatenate, zip(*parts))
    estimate = TailEstimate.from_counts(int(np.count_nonzero(failed)), trials)
    return WitnessReport(
        eps=eps, delta=float(delta), d=d, q=float(q), k=k, m=m, level=inst.level,
        seed=int(seed), trials=trials,
        first_term=first_term, rest_sum=rest_sum, total=total, failed=failed,
        max_term=max_term, rest_excluding_max=rest_excl, estimate=estimate,
    )


@dataclass(frozen=True)
class TotalMassResult:
    estimate: TailEstimate
    threshold: float
    samples: np.ndarray


def total_mass_statistic(
    eps: float, delta: float, d: int, q: float, trials: int, seed: int, workers: int = 1
) -> TotalMassResult:
    """Scaled total projection mass T = Binomial(k d / 2^l, q) / (m q), mean k.

    Counts trials where T deviates above
    k + sqrt(ln(1/(4^4 delta)) 2^l k / (8 d q)); requires delta < 4^-4 for
    the deviation to be defined.
    """
    check_real("q", q, RATE)
    if delta >= 4.0**-4:
        raise DomainError(f"total-mass deviation needs delta < 4^-4, got {delta}")
    inst = hard_vector(delta, d)
    k = choose_k(eps, delta=delta, c_k=1.0)
    m = inst.m
    r = k * m
    threshold = k + math.sqrt(math.log(1.0 / (256.0 * delta)) * (2**inst.level) * k / (8.0 * d * q))

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.binomial(r, q, size=count) / (m * q)

    samples = np.concatenate(run_trials(seed, trials, draw, workers))
    successes = int(np.count_nonzero(samples >= threshold))
    return TotalMassResult(
        estimate=TailEstimate.from_counts(successes, trials),
        threshold=threshold,
        samples=samples,
    )


# --------------------------------------------------------------------------
# report records


def make_record(
    experiment: str,
    *,
    params: Mapping[str, object],
    seed: int | None = None,
    estimate: TailEstimate | None = None,
    exact: float | None = None,
    bound: float | None = None,
    verdict: Verdict | None = None,
    wall_time_ms: float | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict:
    """One JSON-lines record: experiment, params, counts, bound, verdict, seed, timing."""
    record: dict = {"experiment": experiment, "params": dict(params)}
    if estimate is not None:
        record.update(
            trials=estimate.trials,
            successes=estimate.successes,
            p_hat=estimate.p_hat,
            wilson_lo=estimate.wilson_lo,
            wilson_hi=estimate.wilson_hi,
        )
    if exact is not None:
        record["exact"] = exact
    if bound is not None:
        record["bound"] = bound
    if verdict is not None:
        record["verdict"] = verdict.value
    if seed is not None:
        record["seed"] = int(seed)
    if wall_time_ms is not None:
        record["wall_time_ms"] = wall_time_ms
    if extra:
        record.update(extra)
    return record
