"""Monte Carlo and exact-oracle machinery for the concentration claims.

Estimated probabilities are reported as :class:`TailEstimate` values with a
95% Wilson score interval.  Analytic tail bounds are evaluated by
:func:`lemma_bound` from a :class:`BoundSpec` and compared against the
simulated event frequency by :func:`check_bound`: an upper bound passes
when it does not sit below the plausible range (``wilson_lo <= bound``),
and a bound >= 1 is vacuous.  Exact oracles (binomial tails, Gaussian
square tails) use stable log-space summation and the complementary error
function.

Trials are drawn in fixed blocks of :data:`fastjl.rng.TRIAL_BLOCK`; block
``b`` uses the stream ``(seed, b)``, so runs are reproducible and can be
distributed over workers without changing any count.

Unknown absolute constants (the sub-exponential constant, the chi-square
lower-tail constants ``c3``/``C3``) are caller-supplied parameters and are
labeled as assumptions in emitted records, never hard-coded as truths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import DimensionError, DomainError, ParameterError
from .instances import VectorDataset, hard_vector
from .rng import block_ranges, check_seed, map_blocks, substream
from .sparsity import choose_k
from .transform import (
    JlParams,
    NormCriterion,
    _draw_projection_arrays,
    _draw_signs,
    _fwht_last_axis,
    _geometric_positions,
    _phd,
)

Z95 = 1.96

__all__ = [
    "Z95",
    "TailEstimate",
    "wilson_interval",
    "Verdict",
    "Lemma",
    "BoundSpec",
    "lemma_bound",
    "check_bound",
    "BoundCheck",
    "run_bound_check",
    "default_bound_grid",
    "ZSample",
    "ZSampleBatch",
    "simulate_z_statistics",
    "estimate_failure_rate",
    "coord_exceedance_rate",
    "binomial_tail_exact",
    "ReverseChernoffCheck",
    "REVERSE_CHERNOFF_MIN_QR",
    "reverse_chernoff_check",
    "reverse_chernoff_grid",
    "ChiSquareTailCheck",
    "chisq_lower_tail_check",
    "GaussianSquareCheck",
    "gaussian_square_tail_check",
    "gaussian_square_grid",
    "elementary_ineq_check",
    "elementary_grid",
    "WitnessReport",
    "lower_bound_witness",
    "TotalMassResult",
    "total_mass_statistic",
    "MgfPremiseEstimate",
    "mgf_premise_estimate",
    "MGF_RATE",
    "MGF_TARGET",
    "make_record",
]


# --------------------------------------------------------------------------
# estimates and intervals


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ParameterError(f"successes must be in [0, {trials}], got {successes}")
    if not z > 0:
        raise ParameterError(f"z must be > 0, got {z}")
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
# Z statistics: Z_i = Binomial(m, q) / m, the squared mass a projection row
# captures on the worst-case vector with m equal coordinates


class ZSample(NamedTuple):
    max_z: float
    sum_z: float
    sum_zsq: float


@dataclass(frozen=True)
class ZSampleBatch(Sequence):
    """Vectorized sequence of ZSample draws."""

    max_z: np.ndarray
    sum_z: np.ndarray
    sum_zsq: np.ndarray

    def __len__(self) -> int:
        return len(self.max_z)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ZSampleBatch(self.max_z[i], self.sum_z[i], self.sum_zsq[i])
        return ZSample(float(self.max_z[i]), float(self.sum_z[i]), float(self.sum_zsq[i]))


def simulate_z_statistics(
    m: int, q: float, k: int, trials: int, seed: int, workers: int = 1
) -> ZSampleBatch:
    """Draw (max, sum, sum of squares) of k independent Binomial(m, q)/m values per trial."""
    if m < 1 or k < 1:
        raise ParameterError(f"m and k must be >= 1, got m={m}, k={k}")
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must be in (0, 1], got {q}")
    check_seed(seed)

    def one_block(index: int, lo: int, hi: int):
        rng = substream(seed, index)
        z = rng.binomial(m, q, size=(hi - lo, k)) / m
        return z.max(axis=1), z.sum(axis=1), (z * z).sum(axis=1)

    parts = map_blocks(one_block, block_ranges(trials), workers)
    return ZSampleBatch(
        max_z=np.concatenate([p[0] for p in parts]),
        sum_z=np.concatenate([p[1] for p in parts]),
        sum_zsq=np.concatenate([p[2] for p in parts]),
    )


# --------------------------------------------------------------------------
# analytic tail bounds


class Lemma(Enum):
    MAX_Z = "max_z"            # P[max_i Z_i > q/(2 alpha)] <= k exp(-mq ln(1/alpha)/(32 alpha))
    SINGLE_Z = "single_z"      # P[Z > t] < (t/(e q))^(-m t)
    SUM_ZSQ = "sum_zsq"        # P[sum Z_i^2 > t] < 14 exp(-m sqrt(t) ln(sqrt(t/8)/(e q)) / (200*44*2^2.5))
    SUM_ZSQ_ALT = "sum_zsq_alt"  # P[sum Z_i^2 > t] <= 3 n^(-4 c1) in the q = c1 eps regime


_REQUIRED_PARAMS: dict[Lemma, tuple[str, ...]] = {
    Lemma.MAX_Z: ("m", "q", "k", "alpha"),
    Lemma.SINGLE_Z: ("m", "q", "t"),
    Lemma.SUM_ZSQ: ("m", "q", "k", "t"),
    Lemma.SUM_ZSQ_ALT: ("m", "q", "k", "t", "n", "c1", "c2", "eps"),
}

SUM_ZSQ_T_FACTOR = 64.0 * 24.0 * math.e**3          # minimal t is this times q^2 k
SUM_ZSQ_DENOM = 200.0 * 44.0 * 2.0**2.5
SUM_ZSQ_ALT_T_FACTOR = 2.0 * math.e**8               # minimal t is this times c1^3 ln n


@dataclass(frozen=True)
class BoundSpec:
    """One evaluable tail bound: which inequality, and its named parameters."""

    lemma: Lemma
    params: Mapping[str, float]

    def __post_init__(self) -> None:
        missing = [name for name in _REQUIRED_PARAMS[self.lemma] if name not in self.params]
        if missing:
            raise ParameterError(f"{self.lemma.value} bound is missing parameters: {missing}")

    def __getitem__(self, name: str) -> float:
        return float(self.params[name])

    def domain_violations(self) -> tuple[str, ...]:
        """Hypotheses of the inequality that do not hold for these parameters."""
        bad: list[str] = []
        p = self.params
        m, q = float(p["m"]), float(p["q"])
        if m < 1:
            bad.append(f"m >= 1 violated (m={m})")
        if not 0.0 < q <= 1.0:
            bad.append(f"q in (0, 1] violated (q={q})")
        if self.lemma is Lemma.MAX_Z:
            alpha, k = float(p["alpha"]), float(p["k"])
            if not 0.0 < alpha <= 0.25:
                bad.append(f"alpha in (0, 1/4] violated (alpha={alpha})")
            if k < 1:
                bad.append(f"k >= 1 violated (k={k})")
        elif self.lemma is Lemma.SINGLE_Z:
            t = float(p["t"])
            if not t > q:
                bad.append(f"t > q violated (t={t}, q={q})")
        elif self.lemma is Lemma.SUM_ZSQ:
            k, t = float(p["k"]), float(p["t"])
            if k < 1:
                bad.append(f"k >= 1 violated (k={k})")
            if t < SUM_ZSQ_T_FACTOR * q * q * k:
                bad.append(f"t >= 64*24*e^3 q^2 k violated (t={t}, min={SUM_ZSQ_T_FACTOR * q * q * k:.6g})")
            if q < 8.0 / (math.e * m):
                bad.append(f"q >= 8/(e m) violated (q={q}, min={8.0 / (math.e * m):.6g})")
        elif self.lemma is Lemma.SUM_ZSQ_ALT:
            k, t = float(p["k"]), float(p["t"])
            n, c1, c2, eps = float(p["n"]), float(p["c1"]), float(p["c2"]), float(p["eps"])
            if n < 2:
                bad.append(f"n >= 2 violated (n={n})")
            if c1 < 1.0:
                bad.append(f"c1 >= 1 violated (c1={c1})")
            if c2 <= 0.0 or c1 < 1.0 / c2:
                bad.append(f"c1 >= 1/c2 violated (c1={c1}, c2={c2})")
            # ambiguous grouping in the source; the stricter reading 1/(4 e c1) is enforced
            if not 0.0 < eps <= 1.0 / (4.0 * math.e * c1):
                bad.append(f"eps <= 1/(4 e c1) violated (eps={eps}, max={1.0 / (4.0 * math.e * c1):.6g})")
            if abs(q - c1 * eps) > 1e-9 * max(q, c1 * eps):
                bad.append(f"q = c1 eps violated (q={q}, c1 eps={c1 * eps})")
            k_target = c1 * eps**-2 * math.log(n)
            if k_target <= 0 or abs(k - k_target) > 0.05 * k_target:
                bad.append(f"k = c1 eps^-2 ln n violated (k={k}, target={k_target:.6g})")
            if t < SUM_ZSQ_ALT_T_FACTOR * c1**3 * math.log(n):
                bad.append(
                    f"t >= 2 c1^3 e^8 ln n violated (t={t}, min={SUM_ZSQ_ALT_T_FACTOR * c1**3 * math.log(n):.6g})"
                )
        return tuple(bad)

    @property
    def domain_satisfied(self) -> bool:
        return not self.domain_violations()

    def event_description(self) -> str:
        if self.lemma is Lemma.MAX_Z:
            return f"max_z > {self['q'] / (2.0 * self['alpha']):.6g}"
        if self.lemma is Lemma.SINGLE_Z:
            return f"z > {self['t']:.6g}"
        return f"sum_zsq > {self['t']:.6g}"


def _safe_exp(exponent: float) -> float:
    if exponent > 700.0:
        return math.inf
    return math.exp(exponent)


def lemma_bound(spec: BoundSpec, *, check_domain: bool = True) -> float:
    """Numeric value of the bound's right-hand side (may exceed 1: vacuous).

    Domain violations raise :class:`DomainError` unless ``check_domain``
    is False, so they are reported rather than silently ignored.
    """
    if check_domain:
        violations = spec.domain_violations()
        if violations:
            raise DomainError(f"{spec.lemma.value}: " + "; ".join(violations))
    if spec.lemma is Lemma.MAX_Z:
        m, q, k, alpha = spec["m"], spec["q"], spec["k"], spec["alpha"]
        return k * _safe_exp(-m * q * math.log(1.0 / alpha) / (32.0 * alpha))
    if spec.lemma is Lemma.SINGLE_Z:
        m, q, t = spec["m"], spec["q"], spec["t"]
        return _safe_exp(-m * t * math.log(t / (math.e * q)))
    if spec.lemma is Lemma.SUM_ZSQ:
        m, q, t = spec["m"], spec["q"], spec["t"]
        return 14.0 * _safe_exp(-m * math.sqrt(t) * math.log(math.sqrt(t / 8.0) / (math.e * q)) / SUM_ZSQ_DENOM)
    n, c1 = spec["n"], spec["c1"]
    return 3.0 * _safe_exp(-4.0 * c1 * math.log(n))


def check_bound(spec: BoundSpec, estimate: TailEstimate) -> Verdict:
    """PASS if the bound dominates the plausible range, VACUOUS if it is >= 1.

    The estimate must measure the exact event the bound controls
    (see :meth:`BoundSpec.event_description`).
    """
    bound = lemma_bound(spec)
    if bound >= 1.0:
        return Verdict.VACUOUS
    return Verdict.PASS if estimate.wilson_lo <= bound else Verdict.FAIL


@dataclass(frozen=True)
class BoundCheck:
    spec: BoundSpec
    estimate: TailEstimate
    bound: float
    verdict: Verdict


def run_bound_check(spec: BoundSpec, trials: int, seed: int, workers: int = 1) -> BoundCheck:
    """Simulate the event a bound controls and compare frequencies."""
    bound = lemma_bound(spec)  # raises on domain violations before any work
    m, q = int(spec["m"]), spec["q"]
    if spec.lemma is Lemma.SINGLE_Z:
        k, threshold, stat = 1, spec["t"], "max_z"
    elif spec.lemma is Lemma.MAX_Z:
        k, threshold, stat = int(spec["k"]), spec["q"] / (2.0 * spec["alpha"]), "max_z"
    else:
        k, threshold, stat = int(spec["k"]), spec["t"], "sum_zsq"
    samples = simulate_z_statistics(m, q, k, trials, seed, workers=workers)
    values = samples.max_z if stat == "max_z" else samples.sum_zsq
    successes = int(np.count_nonzero(values > threshold))
    estimate = TailEstimate.from_counts(successes, trials)
    return BoundCheck(spec=spec, estimate=estimate, bound=bound, verdict=check_bound(spec, estimate))


def default_bound_grid() -> list[BoundSpec]:
    """Hypothesis-satisfying grid used by ``verify-lemmas`` and the acceptance suite."""
    specs: list[BoundSpec] = []
    ms = (16, 64, 256)
    qs = (0.05, 0.25, 0.5)
    ks = (8, 64)
    alphas = (0.05, 0.1, 0.25)
    for m in ms:
        for q in qs:
            for k in ks:
                for alpha in alphas:
                    specs.append(BoundSpec(Lemma.MAX_Z, {"m": m, "q": q, "k": k, "alpha": alpha}))
    for m in ms:
        for q in qs:
            for t in sorted({2.0 * q, 4.0 * q, 0.25, 0.5, 1.0}):
                if q < t <= 1.0:
                    specs.append(BoundSpec(Lemma.SINGLE_Z, {"m": m, "q": q, "t": t}))
    for m in ms:
        for q in qs:
            if q < 8.0 / (math.e * m):
                continue
            for k in ks:
                t_min = SUM_ZSQ_T_FACTOR * q * q * k
                for t in (t_min, 4.0 * t_min):
                    specs.append(BoundSpec(Lemma.SUM_ZSQ, {"m": m, "q": q, "k": k, "t": t}))
    # the q = c1 eps regime needs k ~ c1 eps^-2 ln n, so its points are bespoke
    for c1, c2, eps, n, d in ((1.0, 1.0, 0.09, math.e, 1024), (1.0, 2.0, 0.08, 2.0, 1024)):
        log_n = math.log(n)
        spec = BoundSpec(
            Lemma.SUM_ZSQ_ALT,
            {
                "m": round(c2 * d / log_n),
                "q": c1 * eps,
                "k": round(c1 * eps**-2 * log_n),
                "t": math.ceil(SUM_ZSQ_ALT_T_FACTOR * c1**3 * log_n),
                "n": n,
                "c1": c1,
                "c2": c2,
                "eps": eps,
            },
        )
        specs.append(spec)
    return [s for s in specs if s.domain_satisfied]


# --------------------------------------------------------------------------
# distortion failure rates


def _norm_window_fails(ratio_sq: np.ndarray, eps: float, criterion: NormCriterion) -> np.ndarray:
    if criterion is NormCriterion.SQUARED_NORM:
        r = ratio_sq
    else:
        r = np.sqrt(ratio_sq)
    return (r <= 1.0 - eps) | (r >= 1.0 + eps)


# Expected cells per sub-chunk of single-vector trials: sign cells (t * d) or
# sampled entries of P (t * k * d * q), whichever is larger; 7 trials at
# d = 1024, k = 267, q = 0.016.  Scratch arrays of 256 KB stay in cache: there,
# on a 2-core x86 box, a trial took about 200 us at 2^15 and 260-295 us at
# 2^16 to 2^18.
_TRIAL_CHUNK_CELLS = 1 << 15

# The constant c of the Gram-distance margin; see _pairwise_trial_fails.
_GRAM_MARGIN = 8.0
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


def _pair_sq_distances(Y: np.ndarray) -> np.ndarray:
    """``||Y[i] - Y[j]||^2`` for the pairs ``i < j`` in ``np.triu_indices`` order.

    Bit-identical to ``((Y[ii] - Y[jj]) ** 2).sum(axis=1)`` (the same
    differences, squares and per-row reduction), one row block ``Y[i] -
    Y[i+1:]`` at a time, so scratch memory is O(n * d), not O(n^2 * d).
    """
    n = len(Y)
    out = np.empty(n * (n - 1) // 2)
    lo = 0
    for i in range(n - 1):
        diff = Y[i] - Y[i + 1 :]
        out[lo : lo + len(diff)] = (diff**2).sum(axis=1)
        lo += len(diff)
    return out


def _pairwise_trial_fails(
    emb: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    true_sq: np.ndarray,
    eps: float,
    criterion: NormCriterion,
    margin: float = _GRAM_MARGIN,
) -> bool:
    """Whether some pair ``(ii, jj)`` of the embedded points ``emb`` leaves the window.

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
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are recomputed below
        G = emb @ emb.T
        g = G.diagonal()
        gi, gj = g[ii], g[jj]
        est = gi + gj - 2.0 * G.ravel()[ii * n + jj]
        ratio = est / true_sq
        slack = margin * (k + 4) * (_UNIT_ROUNDOFF * (gi + gj + np.abs(est)) + _SMALLEST_SUBNORMAL) / true_sq
    lo, hi = 1.0 - eps, 1.0 + eps
    if criterion is NormCriterion.NORM:
        lo, hi = lo * lo, hi * hi
    if np.any((ratio < lo - slack) | (ratio > hi + slack)):
        return True
    near = np.flatnonzero(~((ratio > lo + slack) & (ratio < hi - slack)))
    if not near.size:
        return False
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

    ``source`` is a fixed vector of length params.d, a callable
    ``rng -> vector`` drawn once per trial, or (with ``pairwise=True``) a
    fixed point set of shape (n_points, d); in pairwise mode a trial fails
    when any pairwise distance is distorted.

    Single-vector trials go in sub-chunks of about 2^15 cells (sized from the
    shapes only).  A chunk draws its vectors (for a callable source), its signs
    and, with one gap-skipping call, the supports of all its projections.  Given
    the support S_i, row i of ``P H D x`` is ``N(0, sum_{j in S_i} (HDx)_j^2 / q)``,
    so each trial draws k Gaussians instead of one weight per entry of P.
    Pairwise trials embed the points with :func:`fastjl.transform._phd` and
    take distances from the Gram matrix, recomputing pairs near a window edge
    with the direct formula, so every verdict is the direct formula's.
    Memory is O(chunk) for single vectors and O(n^2 + n k) for n points.
    Block ``b`` of :data:`fastjl.rng.TRIAL_BLOCK` trials draws from
    ``substream(seed, b)``, so counts are the same at every worker count.
    """
    d, k, q, eps = params.d, params.k, params.q, params.eps
    criterion = params.norm_criterion
    if pairwise:
        points = source.vectors if isinstance(source, VectorDataset) else np.asarray(source, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != d:
            raise DimensionError(f"pairwise source must have shape (n, {d}), got {points.shape}")
        if points.shape[0] < 2:
            raise ParameterError("pairwise mode needs at least two points")
        ii, jj = np.triu_indices(points.shape[0], k=1)
        true_sq = _pair_sq_distances(points)
        if np.any(true_sq == 0.0):
            raise ParameterError("pairwise source contains duplicate points (norm criterion undefined)")

        def one_block(index: int, lo: int, hi: int) -> int:
            rng = substream(params.seed, index)
            failures = 0
            for _ in range(hi - lo):
                signs = _draw_signs(rng, d)
                emb = _phd(points, signs, *_draw_projection_arrays(rng, k, d, q), k)
                failures += _pairwise_trial_fails(emb, ii, jj, true_sq, eps, criterion)
            return failures

        return TailEstimate.from_counts(sum(map_blocks(one_block, block_ranges(trials), workers)), trials)

    fixed = None if callable(source) else np.asarray(source, dtype=np.float64)
    if fixed is not None:
        if fixed.ndim != 1 or fixed.shape[0] != d:
            raise DimensionError(f"source vector must have length {d}, got shape {fixed.shape}")
        fixed_sq = float(fixed @ fixed)
        if fixed_sq == 0.0:
            raise ParameterError("zero vector: norm criterion undefined")
    log_d = d.bit_length() - 1
    step = max(1, int(_TRIAL_CHUNK_CELLS // max(d, k * d * q)))

    def one_chunk(rng: np.random.Generator, t: int) -> int:
        if fixed is None:
            x = np.empty((t, d))
            for r in range(t):
                v = np.asarray(source(rng), dtype=np.float64)
                if v.shape != (d,):
                    raise DimensionError(f"generated vector must have length {d}, got {v.shape}")
                x[r] = v
            x_sq = np.einsum("ij,ij->i", x, x)
            if not np.all(x_sq):
                raise ParameterError("zero vector: norm criterion undefined")
        else:
            x, x_sq = fixed, fixed_sq
        u = _draw_signs(rng, (t, d))  # becomes (H D x)^2, one row per trial
        u *= x
        _fwht_last_axis(u)
        u *= u
        pos = _geometric_positions(rng, t * k * d, q)  # cells of t stacked k x d supports
        rows = pos >> log_d
        cells = ((rows // k) << log_d) | (pos & (d - 1))  # (trial, column) of each entry
        var = np.bincount(rows, weights=u.ravel()[cells], minlength=t * k)
        var *= rng.standard_normal(t * k) ** 2
        ratio_sq = var.reshape(t, k).sum(axis=1) / (q * k * x_sq)
        return int(np.count_nonzero(_norm_window_fails(ratio_sq, eps, criterion)))

    def one_block(index: int, lo: int, hi: int) -> int:
        rng = substream(params.seed, index)
        return sum(one_chunk(rng, min(step, hi - start)) for start in range(lo, hi, step))

    return TailEstimate.from_counts(sum(map_blocks(one_block, block_ranges(trials), workers)), trials)


def coord_exceedance_rate(
    x: np.ndarray, threshold_c: float, n: float, trials: int, seed: int, workers: int = 1
) -> TailEstimate:
    """Fraction of sign draws with max_i |(HDx)_i| above sqrt(threshold_c ln(n) / d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError("x must be a vector")
    if abs(float(x @ x) - 1.0) > 1e-9:
        raise ParameterError("x must be a unit vector")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if threshold_c <= 0:
        raise ParameterError(f"threshold_c must be > 0, got {threshold_c}")
    d = x.shape[0]
    threshold = math.sqrt(threshold_c * math.log(n) / d)
    rows_per_batch = max(1, (1 << 21) // d)

    def one_block(index: int, lo: int, hi: int) -> int:
        rng = substream(seed, index)
        failures = 0
        remaining = hi - lo
        while remaining:
            rows = min(rows_per_batch, remaining)
            signs = _draw_signs(rng, (rows, d))
            u = signs * x
            _fwht_last_axis(u)
            failures += int(np.count_nonzero(np.abs(u).max(axis=1) > threshold))
            remaining -= rows
        return failures

    parts = map_blocks(one_block, block_ranges(trials), workers)
    return TailEstimate.from_counts(sum(parts), trials)


# --------------------------------------------------------------------------
# exact oracles


def binomial_tail_exact(r: int, q: float, s: int) -> float:
    """Exact P[Binomial(r, q) >= s] by stable summation of log-binomial terms."""
    if not 0 <= s <= r:
        raise ParameterError(f"need 0 <= s <= r, got s={s}, r={r}")
    if r > 10_000:
        raise ParameterError(f"r must be <= 10^4, got {r}")
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"q must be in [0, 1], got {q}")
    if s == 0:
        return 1.0
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    j = np.arange(s, r + 1, dtype=np.float64)
    log_terms = (
        special.gammaln(r + 1.0)
        - special.gammaln(j + 1.0)
        - special.gammaln(r - j + 1.0)
        + j * math.log(q)
        + (r - j) * math.log1p(-q)
    )
    peak = float(log_terms.max())
    return float(min(1.0, math.exp(peak) * float(np.exp(log_terms - peak).sum())))


@dataclass(frozen=True)
class ReverseChernoffCheck:
    r: int
    q: float
    alpha: float
    threshold: int
    exact: float
    bound: float
    verdict: Verdict


# Smallest q r at which the multiplicative reverse-Chernoff form is claimed.
# PAPER.md states no premise; this one is an assumption backed by an exact
# scan (r <= 600, q <= 1/4 in steps of 1e-4, 18 values of alpha in [0, 4]):
# every failure lies at q r < 1.62, the largest at (r=7, q=0.2305,
# alpha=1/4).  Published forms keep q r away from zero too (e.g. Klein &
# Young, SIAM J. Comput. 2015, need alpha^2 q r >= 3).
REVERSE_CHERNOFF_MIN_QR = 2.0


def reverse_chernoff_check(r: int, q: float, alpha: float) -> ReverseChernoffCheck:
    """Exact binomial upper tail versus the lower bound (1/4) exp(-2 alpha^2 q r).

    The event X >= (1+alpha) q r is evaluated at the ceiling of the real
    threshold; on integer support the ceiling does not enlarge the tail, so
    a PASS is conservative.

    The form is claimed only where ``q r >= REVERSE_CHERNOFF_MIN_QR``; below
    it the inequality is false (at r=4, q=0.05 the event is X >= 1 and
    P[Bin(4, 0.05) >= 1] = 1 - 0.95^4 < 1/4).  The check still evaluates such
    points and reports them as FAIL rather than refusing them.
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    if not 0.0 < q <= 0.25:
        raise DomainError(f"hypothesis q <= 1/4 violated (q={q})")
    if alpha < 0.0 or alpha * q > 0.25:
        raise DomainError(f"hypothesis 0 <= alpha q <= 1/4 violated (alpha={alpha}, q={q})")
    threshold = math.ceil((1.0 + alpha) * q * r)
    exact = binomial_tail_exact(r, q, threshold)
    bound = 0.25 * math.exp(-2.0 * alpha * alpha * q * r)
    verdict = Verdict.PASS if exact >= bound else Verdict.FAIL
    return ReverseChernoffCheck(r=r, q=q, alpha=alpha, threshold=threshold,
                                exact=exact, bound=bound, verdict=verdict)


def reverse_chernoff_grid() -> list[tuple[int, float, float]]:
    """The full (r, q, alpha) grid with alpha q <= 1/4.

    28 of its 60 points satisfy ``q r >= REVERSE_CHERNOFF_MIN_QR``.  The grid
    deliberately keeps the points below that premise: ``verify-lemmas``
    reports the three counterexamples among them, (4, 0.05, alpha) for alpha
    in {0, 1/4, 1/2}, and exits 1.
    """
    return [
        (r, q, alpha)
        for r in (4, 8, 16, 32, 64)
        for q in (0.05, 0.1, 0.25)
        for alpha in (0.0, 0.25, 0.5, 1.0)
        if alpha * q <= 0.25
    ]


@dataclass(frozen=True)
class ChiSquareTailCheck:
    estimate: TailEstimate
    bound: float
    verdict: Verdict
    c3: float
    C3: float


def chisq_lower_tail_check(
    weights, x: float, trials: int, c3: float, C3: float, seed: int, workers: int = 1
) -> ChiSquareTailCheck:
    """Monte Carlo P[sum_i u_i (g_i^2 - 1) >= x] versus c3 exp(-C3 x^2 / ||u||^2).

    ``c3`` and ``C3`` are unknown absolute constants supplied by the caller;
    the check passes when the interval's upper end reaches the claimed lower
    bound.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) == 0:
        raise DimensionError("weights must be a non-empty vector")
    if np.any(w < 0.0):
        raise ParameterError("weights must be non-negative")
    norm_sq = float(w @ w)
    if norm_sq == 0.0:
        raise ParameterError("weights must not all be zero")
    if x < 0.0:
        raise ParameterError(f"x must be >= 0, got {x}")
    if c3 <= 0.0 or C3 <= 0.0:
        raise ParameterError("c3 and C3 must be > 0")
    exponent = -C3 * x * x / norm_sq
    bound = c3 * (0.0 if exponent < -745.0 else math.exp(exponent))

    def one_block(index: int, lo: int, hi: int) -> int:
        rng = substream(seed, index)
        g = rng.standard_normal((hi - lo, len(w)))
        stat = (w * (g * g - 1.0)).sum(axis=1)
        return int(np.count_nonzero(stat >= x))

    estimate = TailEstimate.from_counts(sum(map_blocks(one_block, block_ranges(trials), workers)), trials)
    verdict = Verdict.PASS if estimate.wilson_hi >= bound else Verdict.FAIL
    return ChiSquareTailCheck(estimate=estimate, bound=bound, verdict=verdict, c3=c3, C3=C3)


@dataclass(frozen=True)
class GaussianSquareCheck:
    x: float
    exact: float
    bound: float
    verdict: Verdict


def gaussian_square_tail_check(x: float) -> GaussianSquareCheck:
    """Exact P[N^2 >= x] (via erfc) versus the bound 1 - sqrt(1 - exp(-2x/pi))."""
    if x < 0.0:
        raise ParameterError(f"x must be >= 0, got {x}")
    exact = float(special.erfc(math.sqrt(x / 2.0)))
    bound = 1.0 - math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * x / math.pi)))
    verdict = Verdict.PASS if exact >= bound else Verdict.FAIL
    return GaussianSquareCheck(x=x, exact=exact, bound=bound, verdict=verdict)


def gaussian_square_grid() -> tuple[float, ...]:
    return (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0)


def elementary_ineq_check(x: float, a: float) -> Verdict:
    """PASS iff (1-x)^a <= 1 - a x / 2 (+1e-12 slack) on the admissible domain."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"need 0 <= x <= 1, got x={x}")
    if a < 0.0 or a * x > 1.0:
        raise DomainError(f"need 0 <= a x <= 1, got a={a}, x={x}")
    lhs = (1.0 - x) ** a
    rhs = 1.0 - a * x / 2.0
    return Verdict.PASS if lhs <= rhs + 1e-12 else Verdict.FAIL


def elementary_grid() -> list[tuple[float, float]]:
    """A 100 x 100 grid of admissible (x, a) pairs."""
    pairs: list[tuple[float, float]] = []
    for xi in np.linspace(0.0, 1.0, 100):
        if xi == 0.0:
            a_values = np.linspace(0.0, 100.0, 100)
        else:
            a_values = np.linspace(0.0, 1.0 / xi, 100)
        pairs.extend((float(xi), float(a)) for a in a_values)
    return pairs


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
        if dominant:
            big, rest = self.max_term, self.rest_excluding_max
        else:
            big, rest = self.first_term, self.rest_sum
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
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must be in (0, 1], got {q}")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")
    inst = hard_vector(delta, d)
    k = choose_k(eps, delta=delta, c_k=1.0)
    m = inst.m
    check_seed(seed)

    def one_block(index: int, lo: int, hi: int):
        rng = substream(seed, index)
        count = hi - lo
        z = rng.binomial(m, q, size=(count, k)) / m
        n2 = rng.standard_normal((count, k)) ** 2
        terms = z * n2 / q
        total = terms.sum(axis=1)
        first = terms[:, 0]
        mx = terms.max(axis=1)
        failed = (total <= (1.0 - eps) * k) | (total >= (1.0 + eps) * k)
        return first, total - first, total, failed, mx, total - mx

    parts = map_blocks(one_block, block_ranges(trials), workers)
    first_term = np.concatenate([p[0] for p in parts])
    rest_sum = np.concatenate([p[1] for p in parts])
    total = np.concatenate([p[2] for p in parts])
    failed = np.concatenate([p[3] for p in parts])
    max_term = np.concatenate([p[4] for p in parts])
    rest_excl = np.concatenate([p[5] for p in parts])
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
    eps: float, delta: float, d: int, q: float, trials: int, seed: int
) -> TotalMassResult:
    """Scaled total projection mass T = Binomial(k d / 2^l, q) / (m q), mean k.

    Counts trials where T deviates above
    k + sqrt(ln(1/(4^4 delta)) 2^l k / (8 d q)); requires delta < 4^-4 for
    the deviation to be defined.
    """
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must be in (0, 1], got {q}")
    if delta >= 4.0**-4:
        raise DomainError(f"total-mass deviation needs delta < 4^-4, got {delta}")
    inst = hard_vector(delta, d)
    k = choose_k(eps, delta=delta, c_k=1.0)
    m = inst.m
    r = k * m
    threshold = k + math.sqrt(math.log(1.0 / (256.0 * delta)) * (2**inst.level) * k / (8.0 * d * q))

    def one_block(index: int, lo: int, hi: int):
        rng = substream(seed, index)
        return rng.binomial(r, q, size=hi - lo) / (m * q)

    samples = np.concatenate(map_blocks(one_block, block_ranges(trials)))
    successes = int(np.count_nonzero(samples >= threshold))
    return TotalMassResult(
        estimate=TailEstimate.from_counts(successes, trials),
        threshold=threshold,
        samples=samples,
    )


# --------------------------------------------------------------------------
# sub-exponential premise

MGF_RATE = 0.3
# E[exp(0.3 (N^2 - 1))] = (1 - 0.6)^(-1/2) e^(-0.3)
MGF_TARGET = (1.0 - 2.0 * MGF_RATE) ** -0.5 * math.exp(-MGF_RATE)


@dataclass(frozen=True)
class MgfPremiseEstimate:
    mean: float
    stderr: float
    trials: int
    target: float
    verdict: Verdict


def mgf_premise_estimate(trials: int, seed: int, workers: int = 1) -> MgfPremiseEstimate:
    """Importance-sampled E[exp(0.3 (N^2 - 1))] with its standard error.

    PASS when the mean is within 3 standard errors of the closed form and
    below e (the premise that makes centered Gaussian squares
    sub-exponential at rate 0.3).  Plain draws of exp(0.3 (N^2 - 1)) have
    infinite variance (E[exp(0.6 N^2)] diverges), so their standard error is
    no yardstick.  Drawing z from N(0, 2) instead, with weight
    phi(z) / phi_2(z) = sqrt(2) exp(-z^2 / 4), each sample is
    sqrt(2) exp(0.3 (z^2 - 1) - z^2 / 4); under N(0, 2) its second moment
    integrates exp(-0.15 z^2), which is finite.
    """

    def one_block(index: int, lo: int, hi: int):
        rng = substream(seed, index)
        z_sq = 2.0 * rng.standard_normal(hi - lo) ** 2
        x = math.sqrt(2.0) * np.exp((MGF_RATE - 0.25) * z_sq - MGF_RATE)
        return float(x.sum()), float((x * x).sum())

    parts = map_blocks(one_block, block_ranges(trials), workers)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1)) if trials > 1 else 0.0
    stderr = math.sqrt(var / trials)
    ok = abs(mean - MGF_TARGET) <= 3.0 * stderr and mean <= math.e
    return MgfPremiseEstimate(mean=mean, stderr=stderr, trials=trials, target=MGF_TARGET,
                              verdict=Verdict.PASS if ok else Verdict.FAIL)


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
