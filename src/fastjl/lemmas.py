"""The lemmas about the statistics ``Z_i = Binomial(m, q) / m``: tail bounds, exact oracles, premises.

Analytic tail bounds are evaluated by :func:`lemma_bound` from a
:class:`BoundSpec` and compared against the simulated event frequency by
:func:`check_bound`: an upper bound passes when it does not sit below the
plausible range (``wilson_lo <= bound``), and a bound >= 1 is vacuous.
Exact oracles (binomial tails, Gaussian square tails) use stable log-space
summation and the complementary error function.  Monte Carlo checks draw
through :func:`fastjl.rng.run_trials` and report the records of
:mod:`fastjl.verify`.

Unknown absolute constants (the sub-exponential constant, the chi-square
lower-tail constants ``c3``/``C3``) are caller-supplied parameters and are
labeled as assumptions in emitted records, never hard-coded as truths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, RATE, DimensionError, DomainError, ParameterError, check_finite,
                     check_real, check_size)
from .rng import run_trials
from .transform import _scratch
from .verify import TailEstimate, Verdict

__all__ = [
    "Lemma",
    "BoundSpec",
    "lemma_bound",
    "check_bound",
    "BoundCheck",
    "run_bound_check",
    "default_bound_grid",
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
    "elementary_ineq_holds",
    "elementary_grid",
    "MgfPremiseEstimate",
    "mgf_premise_estimate",
    "MGF_RATE",
    "MGF_TARGET",
]


# --------------------------------------------------------------------------
# Z statistics: Z_i = Binomial(m, q) / m, the squared mass a projection row
# captures on the worst-case vector with m equal coordinates


# Largest n of Binomial(n, q) for the log-pmf, so for the sampler and the exact
# tail; the lgamma terms' error grows with log n!.
_BINOMIAL_MAX_N = 10_000

# Buckets of the guide table: u in [b, b + 1) / 2^16 falls in bucket b.
_GUIDE_BUCKETS = 1 << 16

# Cells (trials x k) per sub-chunk of a z-statistics block; see _z_trials.
_Z_CHUNK_CELLS = 1 << 15


def _binomial_log_pmf(n: int, q: float) -> np.ndarray:
    """``log P[Binomial(n, q) = j]`` for j = 0..n, from ``math.lgamma`` log-factorials (0 < q < 1)."""
    lf = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])  # lf[i] = log i!
    j = np.arange(n + 1)
    return lf[n] - lf[j] - lf[n - j] + j * math.log(q) + (n - j) * math.log1p(-q)


@functools.lru_cache(maxsize=16)
def _binomial_table(m: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CDF of Binomial(m, q) and its guide table, built on first use.

    ``cdf[x]`` is ``P[X <= x]``: summed from the left below the mode and
    ``1 - P[X > x]`` summed from the right from the mode on, so each tail keeps
    the pmf's relative accuracy, the pmf's rounding error (its sum is 1 to
    within 1.1e-11 at m = 10^4) lands on the mode, and ``cdf[m]`` is exactly 1.
    Entry ``b`` of the int16 table is the x that every u in bucket b maps to,
    or -1 where a CDF step falls inside the bucket; at most m buckets are
    marked so.  The table is built in O(2^16 + m), with no search: scaling
    by 2^16 is exact, so with ``s = cdf * 2^16`` every u in bucket b maps to
    the number of ``floor(s)`` at most b, unless some ``s[x]`` lies strictly
    inside (b, b + 1), which marks b.  Entry x then fills the buckets from
    ``floor(s[x - 1])`` up to ``floor(s[x])``, one ``np.repeat``.
    """
    if q < 1.0:
        pmf = np.exp(_binomial_log_pmf(m, q))
        mode = int(pmf.argmax())
        cdf = np.concatenate([np.cumsum(pmf[:mode]), 1.0 - np.cumsum(pmf[:mode:-1])[::-1], [1.0]])
    else:
        cdf = np.zeros(m + 1)
        cdf[m] = 1.0
    scaled = cdf * _GUIDE_BUCKETS
    steps = np.floor(scaled)  # non-decreasing, and steps[m] = 2^16 since cdf[m] is 1
    table = np.repeat(np.arange(m + 1, dtype=np.int16), np.diff(steps, prepend=0.0).astype(np.intp))
    table[steps[steps < scaled].astype(np.intp)] = -1
    cdf.flags.writeable = table.flags.writeable = False
    return cdf, table


def _binomial_invert(u: np.ndarray, cdf: np.ndarray, table: np.ndarray, out: np.ndarray,
                     index: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for u in [0, 1), into ``out``, through the guide table.

    ``index`` is int64 scratch of ``u``'s size.  Draws whose bucket is marked
    are searched in ``cdf``; every other draw is its bucket's entry.
    """
    np.multiply(u, float(len(table)), out=index, casting="unsafe")  # exact scaling, truncated: the bucket
    np.take(table, index, out=out, mode="clip")  # in range; "clip" skips the copy "raise" makes with out
    steps = np.flatnonzero(out < 0)
    out[steps] = np.searchsorted(cdf, u[steps], side="right")
    return out


def _z_table(m, q, k):
    """Checked ``(m, q, k)`` as int, float, int, and the CDF and guide table of Binomial(m, q)."""
    m, k = check_size("m", m, (1, _BINOMIAL_MAX_N)), check_size("k", k)
    q = float(check_real("q", q, RATE))
    return (m, q, k, *_binomial_table(m, q))


def _z_trials(k, trials, seed, workers, reduce) -> list:
    """``reduce(u)`` for each sub-chunk of each block, in trial order, through :func:`run_trials`.

    A sub-chunk holds about 2^15 cells.  ``u`` is a (k, rows) view of the
    thread's ``"uniforms"`` scratch, which the next sub-chunk overwrites:
    column i holds the k uniforms of the sub-chunk's trial i.
    """
    def draw(rng, count):
        rows = min(count, max(1, _Z_CHUNK_CELLS // k))
        return [reduce(rng.random(out=_scratch.take("uniforms", min(rows, count - lo) * k)).reshape(k, -1))
                for lo in range(0, count, rows)]

    return [part for block in run_trials(seed, trials, draw, workers) for part in block]


def _z_counts(u, cdf, table):
    """The int16 counts at the uniforms ``u`` and their int32 squares, both in the thread's scratch.

    Each count is ``searchsorted(cdf, u, side="right")`` bit for bit: the exact
    Binomial(m, q) CDF inverted at u through the guide table.
    """
    counts = _scratch.take("counts", u.size, np.int16)
    index = _scratch.take("buckets", u.size, np.int64)
    x = _binomial_invert(u.ravel(), cdf, table, counts, index).reshape(u.shape)
    squares = _scratch.take("squares", u.size, np.int32).reshape(u.shape)  # m^2 <= 10^8 fits int32
    return x, np.multiply(x, x, out=squares, dtype=np.int32)


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
        if not m >= 1:  # each test fails on NaN
            bad.append(f"m >= 1 violated (m={m})")
        # run_bound_check draws with int(m) and int(k), the bound uses them as given
        for name in ("m", "k"):
            if name in _REQUIRED_PARAMS[self.lemma] and not float(p[name]).is_integer():
                bad.append(f"{name} integer violated ({name}={float(p[name])})")
        if not 0.0 < q <= 1.0:
            bad.append(f"q in (0, 1] violated (q={q})")
        if self.lemma is Lemma.MAX_Z:
            alpha, k = float(p["alpha"]), float(p["k"])
            if not 0.0 < alpha <= 0.25:
                bad.append(f"alpha in (0, 1/4] violated (alpha={alpha})")
            if not k >= 1:
                bad.append(f"k >= 1 violated (k={k})")
        elif self.lemma is Lemma.SINGLE_Z:
            t = float(p["t"])
            if not t > q:
                bad.append(f"t > q violated (t={t}, q={q})")
        elif self.lemma is Lemma.SUM_ZSQ:
            k, t = float(p["k"]), float(p["t"])
            if not k >= 1:
                bad.append(f"k >= 1 violated (k={k})")
            if not t >= SUM_ZSQ_T_FACTOR * q * q * k:
                bad.append(f"t >= 64*24*e^3 q^2 k violated (t={t}, min={SUM_ZSQ_T_FACTOR * q * q * k:.6g})")
            if not q >= 8.0 / (math.e * m):
                bad.append(f"q >= 8/(e m) violated (q={q}, min={8.0 / (math.e * m):.6g})")
        elif self.lemma is Lemma.SUM_ZSQ_ALT:
            k, t = float(p["k"]), float(p["t"])
            n, c1, c2, eps = float(p["n"]), float(p["c1"]), float(p["c2"]), float(p["eps"])
            if not n >= 2:
                bad.append(f"n >= 2 violated (n={n})")
            if not c1 >= 1.0:
                bad.append(f"c1 >= 1 violated (c1={c1})")
            if not (c2 > 0.0 and c1 >= 1.0 / c2):
                bad.append(f"c1 >= 1/c2 violated (c1={c1}, c2={c2})")
            eps_max = 1.0 / (4.0 * math.e * c1) if c1 > 0.0 else math.nan
            # ambiguous grouping in the source; the stricter reading 1/(4 e c1) is enforced
            if not 0.0 < eps <= eps_max:
                bad.append(f"eps <= 1/(4 e c1) violated (eps={eps}, max={eps_max:.6g})")
            if not abs(q - c1 * eps) <= 1e-9 * max(q, c1 * eps):
                bad.append(f"q = c1 eps violated (q={q}, c1 eps={c1 * eps})")
            if n >= 2 and 0.0 < eps <= eps_max:  # ln n and 1/eps^2 exist; products overflow to inf, not an error
                k_target = c1 / eps / eps * math.log(n)
                t_min = SUM_ZSQ_ALT_T_FACTOR * c1 * c1 * c1 * math.log(n)
                if not (math.isfinite(k_target) and abs(k - k_target) <= 0.05 * k_target):
                    bad.append(f"k = c1 eps^-2 ln n violated (k={k}, target={k_target:.6g})")
                if not t >= t_min:
                    bad.append(f"t >= 2 c1^3 e^8 ln n violated (t={t}, min={t_min:.6g})")
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


def lemma_bound(spec: BoundSpec) -> float:
    """Numeric value of the bound's right-hand side (may exceed 1: vacuous).

    Domain violations raise :class:`DomainError`, so they are reported rather
    than silently ignored.
    """
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


def _z_event_successes(m, q, k, stat, threshold, trials, seed, workers) -> int:
    """How many trials have ``stat > threshold``, each trial's k values ``Binomial(m, q) / m``.

    ``stat`` is ``"max_z"`` or ``"sum_zsq"``, the largest value or the sum of
    squares.  Each count is that of :func:`_z_counts` at the uniforms of
    :func:`_z_trials`, and each sub-chunk of uniforms is counted in one pass.
    For ``max_z`` no count is drawn: with ``c0`` the least count whose
    quotient ``c0 / m`` (the same float division) exceeds the threshold, a
    count reaches ``c0`` exactly when its uniform reaches ``cdf[c0 - 1]``, so
    a trial succeeds when its largest uniform does, at one compare per cell.
    For ``sum_zsq`` only the sum of squares is reduced.
    """
    m, q, k, cdf, table = _z_table(m, q, k)
    if stat == "max_z":
        c0 = np.count_nonzero(~(np.arange(m + 1) / m > threshold))  # m + 1 when no count exceeds it
        level = cdf[c0 - 1] if c0 else 0.0  # cdf[m] is 1, which no uniform reaches

        def event(u):
            return np.count_nonzero(u.max(axis=0) >= level)
    else:
        def event(u):
            return np.count_nonzero(_z_counts(u, cdf, table)[1].sum(axis=0) / (m * m) > threshold)
    return int(sum(_z_trials(k, trials, seed, workers, event)))


def run_bound_check(spec: BoundSpec, trials: int, seed: int, workers: int = 1) -> BoundCheck:
    """Simulate the event a bound controls and compare frequencies.

    The successes are counted on the uniforms of the z-statistics stream by
    :func:`_z_event_successes`, without building the statistics: a max-type
    cell costs one uniform and one compare.
    """
    bound = lemma_bound(spec)  # raises on domain violations before any work
    m, q = int(spec["m"]), spec["q"]
    if spec.lemma is Lemma.SINGLE_Z:
        k, threshold, stat = 1, spec["t"], "max_z"
    elif spec.lemma is Lemma.MAX_Z:
        k, threshold, stat = int(spec["k"]), spec["q"] / (2.0 * spec["alpha"]), "max_z"
    else:
        k, threshold, stat = int(spec["k"]), spec["t"], "sum_zsq"
    successes = _z_event_successes(m, q, k, stat, threshold, trials, seed, workers)
    estimate = TailEstimate.from_counts(successes, trials)
    return BoundCheck(spec=spec, estimate=estimate, bound=bound, verdict=check_bound(spec, estimate))


def default_bound_grid() -> list[BoundSpec]:
    """Hypothesis-satisfying grid used by ``verify-lemmas`` and the acceptance suite."""
    ms = (16, 64, 256)
    qs = (0.05, 0.25, 0.5)
    ks = (8, 64)
    specs = [BoundSpec(Lemma.MAX_Z, {"m": m, "q": q, "k": k, "alpha": alpha})
             for m in ms for q in qs for k in ks for alpha in (0.05, 0.1, 0.25)]
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
# exact oracles


def binomial_tail_exact(r: int, q: float, s: int) -> float:
    """Exact P[Binomial(r, q) >= s] by stable summation of log-binomial terms.

    The terms come from :func:`_binomial_log_pmf`, which the z-statistics
    sampler shares, with ``log i!`` from ``math.lgamma``.  Measured relative
    error: at most 6.3e-14 against ``scipy.stats.binom.sf`` over
    :func:`reverse_chernoff_grid`; against a 50-digit sum, at most 6.9e-13 at
    r <= 600 and 1.3e-11 at r = 10^4 (the error grows with ``log r!``).
    """
    check_size("s", s, (0, check_size("r", r, (0, _BINOMIAL_MAX_N))))
    check_real("q", q, ("[", 0, 1, "]"))
    if s == 0:
        return 1.0
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    log_terms = _binomial_log_pmf(r, q)[s:]
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
    check_size("r", r)
    if not 0.0 < q <= 0.25:
        raise DomainError(f"hypothesis q <= 1/4 violated (q={q})")
    if not (alpha >= 0.0 and alpha * q <= 0.25):  # NaN too
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
    check_finite("weights", w)
    if np.any(w < 0.0):
        raise ParameterError("weights must be non-negative")
    norm_sq = float(w @ w)
    if norm_sq == 0.0:
        raise ParameterError("weights must not all be zero")
    check_real("x", x, NON_NEGATIVE)
    check_real("c3", c3, POSITIVE)
    check_real("C3", C3, POSITIVE)
    exponent = -C3 * x * x / norm_sq
    bound = c3 * (0.0 if exponent < -745.0 else math.exp(exponent))

    def draw(rng: np.random.Generator, count: int) -> int:
        g = rng.standard_normal((count, len(w)))
        stat = (w * (g * g - 1.0)).sum(axis=1)
        return int(np.count_nonzero(stat >= x))

    estimate = TailEstimate.from_counts(sum(run_trials(seed, trials, draw, workers)), trials)
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
    check_real("x", x, NON_NEGATIVE)
    exact = math.erfc(math.sqrt(x / 2.0))
    bound = 1.0 - math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * x / math.pi)))
    verdict = Verdict.PASS if exact >= bound else Verdict.FAIL
    return GaussianSquareCheck(x=x, exact=exact, bound=bound, verdict=verdict)


def gaussian_square_grid() -> tuple[float, ...]:
    return (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0)


def elementary_ineq_holds(x, a):
    """``(1-x)^a <= 1 - a x / 2`` (+1e-12 slack), elementwise on arrays; the domain is not checked."""
    return (1.0 - x) ** a <= 1.0 - a * x / 2.0 + 1e-12


def elementary_grid() -> np.ndarray:
    """A 100 x 100 grid of admissible (x, a) pairs, the rows of a (10000, 2) array.

    Row ``100 i + j`` holds the i-th of 100 evenly spaced x in [0, 1] and the
    j-th of 100 evenly spaced a in [0, 1/x] (in [0, 100] at x = 0).
    """
    xs = np.linspace(0.0, 1.0, 100)
    a = np.linspace(0.0, np.r_[100.0, 1.0 / xs[1:]], 100, axis=1)
    return np.stack([np.repeat(xs, 100), a.ravel()], axis=1)


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

    def draw(rng: np.random.Generator, count: int):
        z_sq = 2.0 * rng.standard_normal(count) ** 2
        x = math.sqrt(2.0) * np.exp((MGF_RATE - 0.25) * z_sq - MGF_RATE)
        return float(x.sum()), float((x * x).sum())

    parts = run_trials(seed, trials, draw, workers)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1)) if trials > 1 else 0.0
    stderr = math.sqrt(var / trials)
    ok = abs(mean - MGF_TARGET) <= 3.0 * stderr and mean <= math.e
    return MgfPremiseEstimate(mean=mean, stderr=stderr, trials=trials, target=MGF_TARGET,
                              verdict=Verdict.PASS if ok else Verdict.FAIL)
