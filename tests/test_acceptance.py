"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two criteria are stated as facts about the checked formulas:

* C5: the multiplicative reverse-Chernoff inequality holds at every grid
  point with q r >= 2 and is false below that premise: at (r=4, q=0.05,
  alpha=0) the event collapses to X >= 1 and P[Bin(4, 0.05) >= 1] = 0.18549
  < 1/4.
* C9a: k = eps^-2 ln(1/delta) = 48 carries no safety constant, so even the
  dense (q = 1) limit of the witness fails with probability
  P[chi2_48/48 outside 1 +- 0.25] ~ 0.216.  The 3x gap is measured on the
  failure rate above that floor, the part that sparsity causes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from fastjl import (
    JlParams,
    embed,
    fwht_inplace,
    hard_vector,
    random_unit_vector,
    sample_signs,
)
from fastjl.cli import main as cli_main
from fastjl.sparsity import q_ailon_chazelle, q_lower_threshold, q_theorem1
from fastjl.lemmas import (
    BoundSpec,
    REVERSE_CHERNOFF_MIN_QR,
    Lemma,
    default_bound_grid,
    elementary_grid,
    elementary_ineq_holds,
    gaussian_square_grid,
    gaussian_square_tail_check,
    mgf_premise_estimate,
    reverse_chernoff_check,
    reverse_chernoff_grid,
    run_bound_check,
)
from fastjl.verify import Verdict, estimate_failure_rate, lower_bound_witness

from helpers import dense_hadamard

WORKERS = 4


def note(cid: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_transform_correctness():
    t0 = time.perf_counter()
    worst_dense = 0.0
    for d in (2, 4, 8, 16, 32, 64):
        H = dense_hadamard(d)
        rng = np.random.default_rng(d)
        for x in np.vstack([np.eye(d), rng.standard_normal((5, d))]):
            err = np.abs(fwht_inplace(x.copy()) - H @ x).max()
            worst_dense = max(worst_dense, err)
    assert worst_dense < 1e-12

    worst_invol = 0.0
    for log_d in range(1, 15):
        d = 2**log_d
        x = np.random.default_rng(log_d).standard_normal(d)
        y = x.copy()
        fwht_inplace(y)
        fwht_inplace(y)
        worst_invol = max(worst_invol, np.abs(y - x).max())
    assert worst_invol < 1e-9

    worst_unit = 0.0
    for log_d in range(4, 15):
        d = 2**log_d
        rng = np.random.default_rng(100 + log_d)
        for seed in range(100):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            u = sample_signs(d, seed=seed).signs * x
            fwht_inplace(u)
            worst_unit = max(worst_unit, abs(float(np.linalg.norm(u)) - 1.0))
    assert worst_unit < 1e-9

    elapsed = time.perf_counter() - t0
    assert note(
        "C1 transform-correctness",
        elapsed < 10.0,
        f"dense err {worst_dense:.2e}, involution err {worst_invol:.2e}, "
        f"|norm-1| {worst_unit:.2e}, {elapsed:.1f}s",
    )


def test_c02_unbiasedness():
    t0 = time.perf_counter()
    d, k, trials = 64, 8, 100_000
    x = random_unit_vector(d, 2026)
    details = []
    for qi, q in enumerate((0.1, 0.5, 1.0)):

        def chunk_sums(seeds, q=q, qi=qi):
            total = total_sq = 0.0
            for t in seeds:
                y = embed(x, JlParams(d=d, k=k, eps=0.5, q=q, seed=qi * trials + t))
                sq = float(y @ y)
                total += sq
                total_sq += sq * sq
            return total, total_sq

        # serial: embed holds the GIL, so a thread pool only adds contention
        chunks = [range(lo, min(lo + 12_500, trials)) for lo in range(0, trials, 12_500)]
        parts = [chunk_sums(chunk) for chunk in chunks]
        total = math.fsum(p[0] for p in parts)
        total_sq = math.fsum(p[1] for p in parts)
        mean = total / trials
        var = (total_sq - trials * mean * mean) / (trials - 1)
        stderr = math.sqrt(var / trials)
        details.append(f"q={q}: mean={mean:.5f} ({abs(mean - 1.0) / stderr:.2f} se)")
        assert abs(mean - 1.0) <= 3.0 * stderr, details[-1]
    elapsed = time.perf_counter() - t0
    assert note("C2 unbiasedness", elapsed < 60.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_c03_exact_oracle_spot_check():
    t0 = time.perf_counter()
    target = float(1.0 - (stats.chi2.cdf(1.5, 1) - stats.chi2.cdf(0.5, 1)))
    assert abs(target - 0.7412) < 5e-5  # the hand-quoted value of the oracle
    params = JlParams(d=2, k=1, eps=0.5, q=1.0, seed=31)
    est = estimate_failure_rate(params, np.array([1.0, 0.0]), 100_000, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    ok = est.wilson_lo <= target <= est.wilson_hi and elapsed < 10.0
    assert note(
        "C3 exact-oracle-spot-check",
        ok,
        f"p_hat={est.p_hat:.5f}, wilson=({est.wilson_lo:.5f}, {est.wilson_hi:.5f}) "
        f"brackets {target:.5f}, {elapsed:.1f}s",
    )


def test_c04_lemma_bound_suite():
    t0 = time.perf_counter()
    grid = default_bound_grid()
    verdicts = {Verdict.PASS: 0, Verdict.VACUOUS: 0, Verdict.FAIL: 0}
    failures = []
    for index, spec in enumerate(grid):
        check = run_bound_check(spec, trials=100_000, seed=5000 + index, workers=WORKERS)
        verdicts[check.verdict] += 1
        if check.verdict is Verdict.FAIL:
            failures.append((spec.lemma.value, dict(spec.params), check.estimate.p_hat, check.bound))
    # the quoted grid point, at a million trials
    showcase = run_bound_check(
        BoundSpec(Lemma.MAX_Z, {"m": 100, "q": 0.5, "k": 10, "alpha": 0.25}),
        trials=1_000_000,
        seed=4999,
        workers=WORKERS,
    )
    verdicts[showcase.verdict] += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and showcase.verdict is Verdict.PASS and elapsed < 600.0
    assert note(
        "C4 lemma-bound-suite",
        ok,
        f"{len(grid) + 1} points: {verdicts[Verdict.PASS]} PASS, "
        f"{verdicts[Verdict.VACUOUS]} VACUOUS, {verdicts[Verdict.FAIL]} FAIL; {elapsed:.1f}s",
    ), failures


def test_c05_reverse_chernoff():
    t0 = time.perf_counter()
    grid = reverse_chernoff_grid()
    in_premise = [(r, q, a) for r, q, a in grid if q * r >= REVERSE_CHERNOFF_MIN_QR]
    assert len(grid) == 60 and len(in_premise) == 28
    failures = []
    for r, q, alpha in in_premise:
        check = reverse_chernoff_check(r, q, alpha)
        if check.verdict is not Verdict.PASS:
            failures.append((r, q, alpha, check.exact, check.bound))
    # the premise is needed: at q r = 0.2 the event collapses to X >= 1 and
    # P[Bin(4, 0.05) >= 1] = 1 - 0.95^4 = 0.18549 < 1/4
    below = reverse_chernoff_check(4, 0.05, 0.0)
    elapsed = time.perf_counter() - t0
    ok = not failures and below.verdict is Verdict.FAIL and elapsed < 1.0
    note(
        "C5 reverse-chernoff",
        ok,
        f"{len(in_premise) - len(failures)}/{len(in_premise)} points with qr >= {REVERSE_CHERNOFF_MIN_QR:g} "
        f"dominate the bound; below the premise (r=4, q=0.05, alpha=0): exact {below.exact:.5f} "
        f"< bound {below.bound:.5f}; {elapsed:.2f}s",
    )
    assert not failures, f"exact binomial tails fall below the bound at {failures}"
    assert below.verdict is Verdict.FAIL
    assert below.exact == pytest.approx(1.0 - 0.95**4, rel=1e-12)


def test_c06_gaussian_square_lower_tail():
    t0 = time.perf_counter()
    for x in gaussian_square_grid():
        check = gaussian_square_tail_check(x)
        assert check.verdict is Verdict.PASS, (x, check)
    hand = gaussian_square_tail_check(1.0)
    assert abs(hand.exact - 0.31731) < 5e-6
    assert abs(hand.bound - 0.31376) < 5e-6
    assert hand.exact >= hand.bound
    elapsed = time.perf_counter() - t0
    assert note(
        "C6 gaussian-square-lower-tail",
        elapsed < 1.0,
        f"all {len(gaussian_square_grid())} grid points pass; "
        f"x=1: {hand.exact:.5f} >= {hand.bound:.5f}; {elapsed:.2f}s",
    )


def test_c07_elementary_inequality():
    t0 = time.perf_counter()
    grid = elementary_grid()
    assert len(grid) == 10_000
    bad = grid[~elementary_ineq_holds(*grid.T)].tolist()
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    assert note(
        "C7 elementary-inequality",
        ok,
        f"100x100 admissible grid holds; {elapsed:.2f}s",
    ), bad


def test_c08_hard_instance_structure():
    t0 = time.perf_counter()
    # structure of H x against an explicit dense multiply
    signs_budget = []
    for log_d in range(3, 13):
        d = 2**log_d
        H = dense_hadamard(d)
        for delta in (0.1, 0.01, 1e-4, 1e-6):
            inst = hard_vector(delta, d)
            if 2**inst.level > d:
                continue
            u = H @ inst.x
            nz = np.flatnonzero(np.abs(u) > 1e-12)
            assert len(nz) == d // 2**inst.level
            assert np.array_equal(nz, inst.predicted_support)
            assert np.abs(u[nz] - inst.predicted_magnitude).max() < 1e-12

    # sign-fixing frequency at l in {1, 2} over 1e5 draws
    trials = 100_000
    for index, (delta, level) in enumerate(((0.01, 1), (1e-4, 2))):
        inst = hard_vector(delta, 16)
        assert inst.level == level
        p = 2.0 ** -(2**level)
        hits = 0
        for seed in range(index * trials, (index + 1) * trials):
            diag = sample_signs(16, seed=seed)
            hits += np.array_equal(diag.signs * inst.x, inst.x)
        sigma = math.sqrt(p * (1 - p) / trials)
        signs_budget.append(f"l={level}: freq={hits / trials:.5f} vs {p:.5f}")
        assert abs(hits / trials - p) <= 3.0 * sigma, signs_budget[-1]
    elapsed = time.perf_counter() - t0
    assert note(
        "C8 hard-instance-structure",
        elapsed < 60.0,
        "; ".join(signs_budget) + f", {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def witness_pair():
    eps, delta, d = 0.25, 0.05, 1024
    q_threshold = q_lower_threshold(eps, delta, d, 1.0)
    sparse = lower_bound_witness(eps, delta, d, q_threshold / 16.0, 20_000, seed=90, workers=WORKERS)
    reference = lower_bound_witness(eps, delta, d, q_threshold, 20_000, seed=91, workers=WORKERS)
    assert sparse.k == 48 and reference.k == 48
    return sparse, reference


def test_c09a_lower_bound_failure_gap(witness_pair):
    t0 = time.perf_counter()
    sparse, reference = witness_pair
    # With k = eps^-2 ln(1/delta) = 48 even the dense (q = 1) limit of the
    # witness fails with probability P[chi2_48/48 outside 1 +- eps] ~ 0.216,
    # whatever q is.  The gap is measured on the failure rate above that floor,
    # which is the part sparsity causes.
    k, eps, delta = sparse.k, sparse.eps, sparse.delta
    floor = float(stats.chi2.cdf((1.0 - eps) * k, k) + stats.chi2.sf((1.0 + eps) * k, k))
    gap = (sparse.estimate.wilson_lo - floor) / (reference.estimate.wilson_hi - floor)
    elapsed = time.perf_counter() - t0
    ok = gap >= 3.0 and sparse.estimate.wilson_lo > delta and elapsed < 300.0
    note(
        "C9a lower-bound-failure-gap",
        ok,
        f"sparse q: p_hat={sparse.estimate.p_hat:.4f} (wilson_lo {sparse.estimate.wilson_lo:.4f} "
        f"vs delta {delta}), threshold q: p_hat={reference.estimate.p_hat:.4f} "
        f"(wilson_hi {reference.estimate.wilson_hi:.4f}), dense floor {floor:.4f}, "
        f"excess gap {gap:.2f}x (need >= 3)",
    )
    assert sparse.estimate.wilson_lo > delta, (
        f"sparse witness fails at most delta: wilson_lo={sparse.estimate.wilson_lo:.4f}"
    )
    assert gap >= 3.0, (
        f"excess failure-rate gap {gap:.2f}x < 3x over the floor {floor:.4f}: "
        f"sparse wilson_lo={sparse.estimate.wilson_lo:.4f}, reference wilson_hi={reference.estimate.wilson_hi:.4f}"
    )


def test_c09b_single_coordinate_mechanism(witness_pair):
    sparse, _ = witness_pair
    # per-trial decomposition is exact
    assert np.abs(sparse.first_term + sparse.rest_sum - sparse.total).max() < 1e-9
    # the blow-up mechanism, read at the dominant coordinate (coordinates are
    # exchangeable, so the fixed-coordinate fraction is diluted by ~1/k)
    dominant = sparse.mechanism_fraction(dominant=True)
    literal = sparse.mechanism_fraction(dominant=False)
    ok = dominant >= 0.10
    assert note(
        "C9b single-coordinate-mechanism",
        ok,
        f"{dominant:.1%} of failing trials have a coordinate > eps*k with the rest "
        f">= (1-3eps)(k-1) (fixed first coordinate alone: {literal:.1%})",
    )


def test_c10_sparsity_savings():
    t0 = time.perf_counter()
    d = 2**16
    details = []
    for eps, n in ((0.1, 1e6), (0.25, 1e4), (0.05, 1e9)):
        ratio = q_theorem1(eps, n, d) / q_ailon_chazelle(n, d)
        cap = 2.0 / min(math.log(1.0 / eps) / eps, math.log(n))
        details.append(f"(eps={eps}, n={n:g}): {ratio:.4f} <= {cap:.4f}")
        assert ratio <= cap, details[-1]
    elapsed = time.perf_counter() - t0
    assert note("C10 sparsity-savings", elapsed < 1.0, "; ".join(details) + f", {elapsed:.2f}s")


def test_c11_subexponential_mgf_premise():
    t0 = time.perf_counter()
    est = mgf_premise_estimate(1_000_000, seed=48, workers=WORKERS)
    target = (0.4) ** -0.5 * math.exp(-0.3)
    assert est.target == pytest.approx(target, rel=1e-15)
    elapsed = time.perf_counter() - t0
    ok = abs(est.mean - target) <= 3.0 * est.stderr and est.mean <= math.e and elapsed < 10.0
    assert note(
        "C11 subexponential-mgf-premise",
        ok,
        f"mean={est.mean:.5f} vs {target:.5f} ({abs(est.mean - target) / est.stderr:.2f} se), "
        f"{elapsed:.1f}s",
    )


def test_c12_determinism_golden_replay(tmp_path):
    def strip_timing(path):
        records = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_time_ms", None)
            rec["params"]["config"]["report"] = "<report>"
            records.append(rec)
        return records

    lower = ["verify-lower", "--eps", "0.25", "--delta", "0.05", "--d", "512",
             "--trials", "4000", "--seed", "12", "--compare-threshold", "--report"]
    upper = ["verify-upper", "--d", "64", "--eps", "0.3", "--k", "16", "--q", "0.25",
             "--trials", "4000", "--seed", "13", "--report"]
    ok = True
    for name, argv in (("lower", lower), ("upper", upper)):
        r1, r2 = tmp_path / f"{name}1.jsonl", tmp_path / f"{name}2.jsonl"
        assert cli_main(argv + [str(r1)]) == 0
        assert cli_main(argv + [str(r2)]) == 0
        ok = ok and strip_timing(r1) == strip_timing(r2)
        assert strip_timing(r1) == strip_timing(r2), f"{name} replay diverged"

    bench = ["bench", "--d", "256", "--k", "32", "--q", "0.1", "--reps", "3",
             "--seed", "14", "--out"]
    b1, b2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert cli_main(bench + [str(b1)]) == 0
    assert cli_main(bench + [str(b2)]) == 0

    def bench_rows(path):
        rows = []
        for line in path.read_text().strip().splitlines():
            if line.startswith("#"):
                rows.append(json.loads(line[1:]) | {"out_path": "<out>"})
            else:
                rows.append(line.split(",")[:6])  # drop median_ns, setup_ns
        return rows

    ok = ok and bench_rows(b1) == bench_rows(b2)
    assert note("C12 determinism-golden-replay", ok, "verify-lower, verify-upper and bench replays identical modulo timings")


@pytest.mark.parametrize("trials", ["4000", "9000"])  # one block, and three blocks that the workers split
def test_c12_replay_holds_at_every_worker_count(tmp_path, trials):
    def records(path):
        out = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_time_ms", None)
            rec["params"]["config"].update(report="<report>", workers="<workers>")
            out.append(rec)
        return out

    lower = ["verify-lower", "--eps", "0.25", "--delta", "0.05", "--d", "512",
             "--trials", trials, "--seed", "12", "--compare-threshold"]
    upper = ["verify-upper", "--d", "64", "--eps", "0.3", "--k", "16", "--q", "0.25",
             "--trials", trials, "--seed", "13"]
    for name, argv in (("lower", lower), ("upper", upper)):
        runs = []
        for workers in ("1", "2", "3"):
            report = tmp_path / f"{name}{workers}.jsonl"
            assert cli_main(argv + ["--workers", workers, "--report", str(report)]) == 0
            runs.append(records(report))
        assert runs[0] == runs[1] == runs[2], f"{name} replay depends on --workers"
