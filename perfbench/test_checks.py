"""Tests of the benchmark's own checks: each corrupted output must be rejected.

    python3 -m pytest perfbench
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

import checks
import dense
import run
import workloads

# Sylvester-order Hadamard matrix of order 8, written out by hand.
H8 = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [1, -1, 1, -1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1, 1, -1, -1],
    [1, -1, -1, 1, 1, -1, -1, 1],
    [1, 1, 1, 1, -1, -1, -1, -1],
    [1, -1, 1, -1, -1, 1, -1, 1],
    [1, 1, -1, -1, -1, -1, 1, 1],
    [1, -1, -1, 1, -1, 1, 1, -1],
], dtype=float)


def test_dense_reference_matches_hand_built_d8():
    signs = np.array([1, -1, -1, 1, 1, 1, -1, 1], dtype=float)
    # P: 3 x 8 in row-compressed form, and the same matrix by hand
    indptr, cols, weights = [0, 2, 2, 5], [1, 6, 0, 3, 7], [0.5, -2.0, 1.5, 0.25, -1.0]
    P = np.zeros((3, 8))
    P[0, 1], P[0, 6], P[2, 0], P[2, 3], P[2, 7] = 0.5, -2.0, 1.5, 0.25, -1.0
    x = np.array([[0.3, -1.2, 2.0, 0.7, -0.4, 1.1]])  # d=6, padded to 8

    x8 = np.concatenate([x[0], [0.0, 0.0]])
    u = [sum(H8[j, l] / math.sqrt(8) * signs[l] * x8[l] for l in range(8)) for j in range(8)]
    y = [sum(P[i, j] * u[j] for j in range(8)) / math.sqrt(3) for i in range(3)]

    np.testing.assert_array_equal(dense.normalized_hadamard(8), H8 / math.sqrt(8))
    np.testing.assert_array_equal(dense.dense_projection(3, 8, indptr, cols, weights), P)
    np.testing.assert_array_equal(dense.pad_columns(x), [x8])
    got = dense.pad_columns(x) @ dense.phd_matrix(signs, P)
    np.testing.assert_allclose(got[0], y, rtol=1e-13, atol=1e-15)


def _embed_case():
    rng = np.random.default_rng(5)
    signs = np.where(rng.random(16) < 0.5, -1.0, 1.0)
    P = dense.draw_dense_projection(rng, 4, 16, 0.5)
    expected = dense.pad_columns(rng.standard_normal((6, 12))) @ dense.phd_matrix(signs, P)
    stdout = f"embed: 6 vectors, d=16 -> k=4, q={0.5!r}, nnz=30, seed=0 -> out.fjlv\n"
    return expected, stdout


def test_embed_check_accepts_the_formula():
    expected, stdout = _embed_case()
    assert checks.check_embed(0, stdout, checks.fjlv_bytes(expected), expected, 0.5) == []


def test_embed_check_rejects_one_altered_row():
    expected, stdout = _embed_case()
    altered = expected.copy()
    altered[3, 2] *= 1 + 1e-6
    errors = checks.check_embed(0, stdout, checks.fjlv_bytes(altered), expected, 0.5)
    assert errors and "row 3" in errors[0]


@pytest.mark.parametrize("corrupt", [
    lambda raw, out: (0, out, raw[:-8]),                              # truncated payload
    lambda raw, out: (0, out.replace("q=0.5", "q=0.25"), raw),        # wrong printed q
    lambda raw, out: (0, out.replace("k=4", "k=5"), raw),             # wrong printed k
    lambda raw, out: (2, out, raw),                                   # exit code
])
def test_embed_check_rejects_other_corruptions(corrupt):
    expected, stdout = _embed_case()
    rc, out, raw = corrupt(checks.fjlv_bytes(expected), stdout)
    assert checks.check_embed(rc, out, raw, expected, 0.5)


def _estimate(successes: int, trials: int) -> dict:
    lo, hi = dense.wilson(successes, trials)
    return {"trials": trials, "successes": successes, "p_hat": successes / trials,
            "wilson_lo": lo, "wilson_hi": hi}


REF = {"p": 0.0116, "se": 0.0004}


def _upper(successes: int, trials: int = 8192) -> list[dict]:
    return [{"experiment": "failure_rate", "params": {"k": 267, "q": 0.0162},
             **_estimate(successes, trials)}]


def test_upper_check_accepts_a_plausible_estimate():
    assert checks.check_upper(0, _upper(95), 8192, "failure_rate", REF, 267, 0.0162) == []


def test_upper_check_rejects_p_hat_moved_by_10_standard_errors():
    se = math.sqrt(REF["p"] * (1 - REF["p"]) / 8192)
    moved = round((REF["p"] + 10 * se) * 8192)
    errors = checks.check_upper(0, _upper(moved), 8192, "failure_rate", REF, 267, 0.0162)
    assert errors and "implausible" in errors[0]


def test_upper_check_rejects_inconsistent_fields():
    record = _upper(95)
    record[0]["wilson_hi"] += 1e-6
    assert checks.check_upper(0, record, 8192, "failure_rate", REF, 267, 0.0162)
    assert checks.check_upper(0, _upper(95, 8191), 8192, "failure_rate", REF, 267, 0.0162)
    assert checks.check_upper(0, _upper(95), 8192, "failure_rate", REF, 266, 0.0162)


def _lemma_report(trials: int = 20000) -> list[dict]:
    records = []
    for r, q, alpha in [(4, 0.05, 0.0), (4, 0.05, 0.25), (4, 0.05, 0.5), (16, 0.25, 0.5), (64, 0.1, 1.0)]:
        exact = float(stats.binom.sf(math.ceil((1 + alpha) * q * r) - 1, r, q))
        bound = 0.25 * math.exp(-2 * alpha * alpha * q * r)
        records.append({"experiment": "reverse_chernoff", "params": {"r": r, "q": q, "alpha": alpha},
                        "exact": exact, "bound": bound, "verdict": "PASS" if exact >= bound else "FAIL"})
    for m, q, k, alpha in [(16, 0.25, 8, 0.25), (64, 0.05, 64, 0.1)]:
        p = checks.z_event_probability(m, q, k, q / (2 * alpha))
        records.append({"experiment": "lemma_bound:max_z",
                        "params": {"m": float(m), "q": q, "k": float(k), "alpha": alpha},
                        **_estimate(round(p * trials), trials), "verdict": "PASS"})
    p = checks.z_event_probability(64, 0.25, 1, 0.5)
    records.append({"experiment": "lemma_bound:single_z", "params": {"m": 64.0, "q": 0.25, "t": 0.5},
                    **_estimate(round(p * trials), trials), "verdict": "VACUOUS"})
    records.append({"experiment": "gaussian_square_tail", "params": {"x": 2.0},
                    "exact": math.erfc(1.0), "verdict": "PASS"})
    return records


def test_lemma_check_accepts_the_expected_report():
    assert checks.check_lemmas(1, _lemma_report(), 20000) == []


def test_lemma_check_rejects_a_fourth_fail():
    report = _lemma_report()
    report[3]["verdict"] = "FAIL"
    errors = checks.check_lemmas(1, report, 20000)
    assert errors and "FAIL records" in errors[-1]


def test_lemma_check_reports_but_does_not_check_the_mgf_verdict():
    mgf = {"experiment": "subexponential_mgf_premise", "params": {}, "verdict": "FAIL"}
    assert checks.check_lemmas(1, _lemma_report() + [mgf], 20000) == []
    mgf["verdict"] = "MAYBE"
    assert checks.check_lemmas(1, _lemma_report() + [mgf], 20000)


def test_lemma_check_rejects_other_corruptions():
    assert checks.check_lemmas(0, _lemma_report(), 20000)            # exit code
    report = _lemma_report()
    report[4]["exact"] *= 1 + 1e-9                                    # oracle value
    assert checks.check_lemmas(1, report, 20000)
    report = _lemma_report()
    p = report[5]["p_hat"]
    moved = report[5]["successes"] + round(10 * math.sqrt(p * (1 - p) * 20000))
    report[5].update(_estimate(moved, 20000))                         # z estimate 10 SE off
    assert checks.check_lemmas(1, report, 20000)


def _write_report(work, tag, records):
    (work / f"{tag}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))


def test_worker_counts_that_differ_are_rejected(tmp_path):
    single = workloads.McSingle(0, tmp_path)
    config = workloads.SINGLE
    base = {"experiment": "failure_rate", "params": {"k": config["k"], "q": config["q"]}}
    p = single.reference["p"]
    s1 = round(p * workloads.SINGLE_TRIALS)
    _write_report(tmp_path, "u1", [{**base, **_estimate(s1, workloads.SINGLE_TRIALS)}])
    _write_report(tmp_path, "u2", [{**base, **_estimate(s1 + 1, workloads.SINGLE_TRIALS)}])
    errors, first, _ = run.check_op(single, 0, "", "u1", None)
    assert errors == []
    errors, _, _ = run.check_op(single, 0, "", "u2", first)
    assert errors and "differ" in errors[0]


def test_lemma_worker_counts_that_differ_are_rejected(tmp_path):
    grid = workloads.LemmaGrid(0, tmp_path)
    report = _lemma_report(workloads.LEMMA_TRIALS)
    _write_report(tmp_path, "u1", report)
    report[5].update(_estimate(report[5]["successes"] + 1, workloads.LEMMA_TRIALS))
    _write_report(tmp_path, "u2", report)
    errors, first, _ = run.check_op(grid, 1, "", "u1", None)
    assert errors == []
    errors, _, _ = run.check_op(grid, 1, "", "u2", first)
    assert errors and "differ" in errors[0]
