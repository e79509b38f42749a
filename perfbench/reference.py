"""Make the reference failure probabilities of mc_single and mc_pairwise anew.

    python3 perfbench/reference.py

writes ``perfbench/reference.json``.  The simulation uses only numpy, scipy
and ``dense.py``: fresh signs, ``scipy.linalg.hadamard(d) / sqrt(d)``, a
dense ``P`` with Bernoulli(q) cells holding ``N / sqrt(q)``, and the
squared-norm window ``(1 - eps, 1 + eps)``.  No fastjl code runs.

The benchmark's inputs depend on its seed (the unit vector of mc_single is
drawn by the CLI, the point set of mc_pairwise by the benchmark), so each
estimate here averages over inputs: a fresh unit vector for every trial and
a fresh point set for every ``POINT_SET_TRIALS`` trials.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import dense  # noqa: E402
from workloads import PAIRWISE, SINGLE  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference.json"
SEED = 20260418
# Standard errors of about 0.0006 and 0.0013, well inside the binomial
# spread of the benchmark's 8,192 and 64 trials.
TRIALS_SINGLE = 40_000
TRIALS_PAIRWISE = 8_000
POINT_SET_TRIALS = 16


def single_failure(rng: np.random.Generator, trials: int) -> int:
    c = SINGLE
    H = dense.normalized_hadamard(c["d"])
    failures = 0
    for _ in range(trials):
        x = rng.standard_normal(c["d"])
        x /= math.sqrt(x @ x)
        u = H @ (dense.draw_signs(rng, c["d"]) * x)
        y = dense.draw_dense_projection(rng, c["k"], c["d"], c["q"]) @ u
        failures += bool(dense.window_fails((y @ y) / c["k"], c["eps"]))
    return failures


def pairwise_failure(rng: np.random.Generator, trials: int) -> int:
    c = PAIRWISE
    H = dense.normalized_hadamard(c["d"])
    ii, jj = np.triu_indices(c["points"], k=1)
    failures = 0
    for t in range(trials):
        if t % POINT_SET_TRIALS == 0:
            X = dense.pad_columns(rng.standard_normal((c["points"], c["raw_d"])))
            true_sq = ((X[ii] - X[jj]) ** 2).sum(axis=1)
        U = (X * dense.draw_signs(rng, c["d"])) @ H
        E = U @ dense.draw_dense_projection(rng, c["k"], c["d"], c["q"]).T / math.sqrt(c["k"])
        ratio_sq = ((E[ii] - E[jj]) ** 2).sum(axis=1) / true_sq
        failures += bool(dense.window_fails(ratio_sq, c["eps"]).any())
    return failures


def estimate(fn, rng: np.random.Generator, trials: int, config: dict) -> dict:
    t0 = time.perf_counter()
    failures = fn(rng, trials)
    p = failures / trials
    return {
        "config": config,
        "trials": trials,
        "failures": failures,
        "p": p,
        "se": math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials),
        "seconds": round(time.perf_counter() - t0, 1),
    }


def main() -> None:
    rng_single, rng_pairwise = np.random.default_rng(SEED).spawn(2)
    result = {
        "seed": SEED,
        "mc_single": estimate(single_failure, rng_single, TRIALS_SINGLE, SINGLE),
        "mc_pairwise": estimate(pairwise_failure, rng_pairwise, TRIALS_PAIRWISE, PAIRWISE),
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
