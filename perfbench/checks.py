"""Checks of the CLI's outputs.

Every check compares an output with a computation made apart from fastjl
(``dense.py``, ``scipy.stats``) or with a property the method must have,
and returns a list of error strings: empty means correct.  A check never
raises on a malformed output; it reports it.

Probability checks use a wide two-sided binomial bound: a count is
rejected when an exact binomial tail at the reference probability is below
``ALPHA / 2``.  A reference that is itself an estimate is widened by
``REF_SE_WIDTH`` of its standard errors first.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np
from scipy import stats

import dense

FJLV_HEADER = struct.Struct("<4sHIQ")  # magic "FJLV" | u16 version | u32 d | u64 count
ROW_RTOL = 1e-9        # embedded rows against the dense formula, relative to the row norm
ORACLE_RTOL = 1e-12    # exact oracles against scipy
WILSON_ATOL = 1e-12
ALPHA = 1e-9
REF_SE_WIDTH = 4.0

# The reverse-Chernoff points below the q r >= 2 premise; verify-lemmas
# reports them as FAIL by design and exits 1.
EXPECTED_FAILS = {("reverse_chernoff", 4, 0.05, alpha) for alpha in (0.0, 0.25, 0.5)}
# verify-lemmas passes this record when |mean - target| <= 3 stderr, but
# exp(0.3 (N^2 - 1)) has infinite variance, so the verdict is FAIL on about
# 2% of seeds (9 of seeds 1-400).  Its verdict is reported, not checked.
UNCHECKED_VERDICTS = {"subexponential_mgf_premise"}


def parse_fjlv(raw: bytes) -> np.ndarray:
    """Rows of a ``.fjlv`` file; raises ValueError on a malformed one."""
    if len(raw) < FJLV_HEADER.size:
        raise ValueError(f"truncated header ({len(raw)} bytes)")
    magic, version, d, count = FJLV_HEADER.unpack_from(raw)
    if magic != b"FJLV" or version != 1:
        raise ValueError(f"bad magic or version: {magic!r} v{version}")
    body = raw[FJLV_HEADER.size:]
    if len(body) != count * d * 8:
        raise ValueError(f"header declares {count} x {d} values, payload has {len(body)} bytes")
    return np.frombuffer(body, dtype="<f8").reshape(count, d)


def fjlv_bytes(X: np.ndarray) -> bytes:
    """``X`` in the ``.fjlv`` format."""
    X = np.ascontiguousarray(X, dtype="<f8")
    return FJLV_HEADER.pack(b"FJLV", 1, X.shape[1], X.shape[0]) + X.tobytes()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_embed(rc: int, stdout: str, raw_out: bytes, expected: np.ndarray, q: float) -> list[str]:
    """``fastjl embed``: exit 0, printed k and q, and every row against the dense formula."""
    errors = []
    if rc != 0:
        errors.append(f"embed exited {rc}, expected 0")
    n, k = expected.shape
    match = re.search(r"-> k=(\d+), q=([^,\s]+),", stdout)
    if match is None:
        errors.append(f"embed printed no k and q: {stdout.strip()!r}")
    else:
        if int(match.group(1)) != k:
            errors.append(f"printed k={match.group(1)}, expected {k}")
        if not _close(float(match.group(2)), q, 1e-12):
            errors.append(f"printed q={match.group(2)}, expected {q!r}")
    try:
        Y = parse_fjlv(raw_out)
    except ValueError as exc:
        return errors + [f"output: {exc}"]
    if Y.shape != (n, k):
        return errors + [f"output has shape {Y.shape}, expected {(n, k)}"]
    bad = np.flatnonzero(np.abs(Y - expected).max(axis=1) > ROW_RTOL * np.linalg.norm(expected, axis=1))
    if len(bad):
        errors.append(f"{len(bad)} rows differ from k^-1/2 P H D x, first at row {bad[0]}")
    return errors


def binomial_consistent(successes: int, trials: int, p: float, p_se: float = 0.0) -> bool:
    """Whether ``successes`` of ``trials`` is plausible at probability ``p`` (+- REF_SE_WIDTH p_se)."""
    hi = min(1.0, p + REF_SE_WIDTH * p_se)
    lo = max(0.0, p - REF_SE_WIDTH * p_se)
    too_many = stats.binom.sf(successes - 1, trials, hi) < ALPHA / 2
    too_few = stats.binom.cdf(successes, trials, lo) < ALPHA / 2
    return not (too_many or too_few)


def check_estimate(record: dict, trials: int) -> list[str]:
    """Counts, ``p_hat`` and the Wilson interval of one Monte Carlo record."""
    name = record.get("experiment")
    try:
        got, successes = int(record["trials"]), int(record["successes"])
        p_hat, lo, hi = float(record["p_hat"]), float(record["wilson_lo"]), float(record["wilson_hi"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{name}: bad estimate fields ({exc!r})"]
    if got != trials:
        return [f"{name}: ran {got} trials, asked {trials}"]
    if not 0 <= successes <= trials:
        return [f"{name}: successes {successes} outside [0, {trials}]"]
    errors = []
    if p_hat != successes / trials:
        errors.append(f"{name}: p_hat {p_hat} != {successes}/{trials}")
    ref_lo, ref_hi = dense.wilson(successes, trials)
    if abs(lo - ref_lo) > WILSON_ATOL or abs(hi - ref_hi) > WILSON_ATOL:
        errors.append(f"{name}: Wilson ({lo}, {hi}) != recomputed ({ref_lo}, {ref_hi})")
    return errors


def check_upper(rc: int, records: list[dict], trials: int, experiment: str,
                reference: dict, k: int, q: float) -> list[str]:
    """``fastjl verify-upper``: one record, its k and q, its estimate, and p_hat
    near the dense reference."""
    if rc != 0:
        return [f"verify-upper exited {rc}, expected 0"]
    if len(records) != 1 or records[0].get("experiment") != experiment:
        return [f"expected one {experiment} record, got {[r.get('experiment') for r in records]}"]
    record = records[0]
    params = record.get("params", {})
    if params.get("k") != k or not _close(float(params.get("q", 0.0)), q, 1e-12):
        return [f"{experiment}: report has k={params.get('k')}, q={params.get('q')}, expected k={k}, q={q!r}"]
    errors = check_estimate(record, trials)
    if not errors and not binomial_consistent(record["successes"], trials, reference["p"], reference["se"]):
        errors.append(
            f"{experiment}: {record['successes']}/{trials} failures is implausible at the "
            f"dense reference p={reference['p']:.5g} +- {reference['se']:.2g}"
        )
    return errors


def z_event_probability(m: int, q: float, k: int, threshold: float) -> float:
    """Exact P[max of k iid Binomial(m, q)/m > threshold], with the same float division."""
    above = np.flatnonzero(np.arange(m + 1) / m > threshold)
    if len(above) == 0:
        return 0.0
    p1 = float(stats.binom.sf(above[0] - 1, m, q))
    return -math.expm1(k * math.log1p(-p1)) if p1 < 1.0 else 1.0


def _z_exact(record: dict) -> float | None:
    """Exact event probability of a single_z or max_z record, else None."""
    p = record.get("params", {})
    if record["experiment"] == "lemma_bound:single_z":
        return z_event_probability(int(p["m"]), p["q"], 1, p["t"])
    if record["experiment"] == "lemma_bound:max_z":
        return z_event_probability(int(p["m"]), p["q"], int(p["k"]), p["q"] / (2.0 * p["alpha"]))
    return None


def check_lemmas(rc: int, records: list[dict], trials: int) -> list[str]:
    """``fastjl verify-lemmas``: verdicts, exact oracles and z-statistic estimates."""
    errors = []
    if rc != 1:
        errors.append(f"verify-lemmas exited {rc}, expected 1 (three reverse-Chernoff FAILs)")
    fails = set()
    for record in records:
        name, params, verdict = record.get("experiment"), record.get("params", {}), record.get("verdict")
        try:
            if name in UNCHECKED_VERDICTS:
                if verdict not in ("PASS", "FAIL"):
                    errors.append(f"{name}: verdict {verdict!r}")
            elif verdict == "FAIL":
                fails.add((name, params.get("r"), params.get("q"), params.get("alpha")))
            elif verdict not in ("PASS", "VACUOUS"):
                errors.append(f"{name} {params}: verdict {verdict!r}")
            if name == "reverse_chernoff":
                r, q, alpha = params["r"], params["q"], params["alpha"]
                exact = float(stats.binom.sf(math.ceil((1.0 + alpha) * q * r) - 1, r, q))
                if not _close(record["exact"], exact, ORACLE_RTOL):
                    errors.append(f"reverse_chernoff {(r, q, alpha)}: exact {record['exact']} != {exact}")
            elif name == "gaussian_square_tail":
                exact = float(stats.chi2.sf(params["x"], 1))
                if not _close(record["exact"], exact, ORACLE_RTOL):
                    errors.append(f"gaussian_square_tail x={params['x']}: exact {record['exact']} != {exact}")
            elif name.startswith("lemma_bound:") or name == "chisq_lower_tail":
                estimate_errors = check_estimate(record, trials)
                errors += estimate_errors
                exact = _z_exact(record)
                if not estimate_errors and exact is not None and not binomial_consistent(
                    record["successes"], trials, exact
                ):
                    errors.append(
                        f"{name} {params}: {record['successes']}/{trials} is implausible at exact p={exact:.6g}"
                    )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            errors.append(f"{name}: malformed record ({exc!r})")
    if fails != EXPECTED_FAILS:
        errors.append(f"FAIL records {sorted(fails, key=str)}, expected {sorted(EXPECTED_FAILS)}")
    return errors


def success_counts(records: list[dict]) -> list:
    """The Monte Carlo counts of a report, which must not depend on --workers."""
    return [(r.get("experiment"), r.get("successes"), r.get("mean")) for r in records]
