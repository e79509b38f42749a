"""Wall-clock and sparsity benchmarks: dense Gaussian JL versus Fast JL.

Only the apply path is timed (the transform given pre-sampled structures);
sampling cost is reported separately as setup time since it is amortized
over many embedded vectors.  Timings are medians over ``reps`` runs after
explicit warm-up, with no further statistical model.  Benchmarks run the
configurations serially; a flag enables a thread pool across repetitions
purely for throughput reporting.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError
from .instances import random_unit_vector
from .rng import derive_seed
from .sparsity import q_ailon_chazelle, q_theorem1
from .transform import (
    SparseProjection,
    embed_with,
    sample_dense_matrix,
    sample_projection,
    sample_signs,
)

METHOD_DENSE = "Dense"
METHOD_FASTJL_AC = "FastJL_AC"
METHOD_FASTJL_NEW = "FastJL_New"
METHODS = (METHOD_DENSE, METHOD_FASTJL_AC, METHOD_FASTJL_NEW)

CSV_HEADER = "method,d,k,q,nnz,reps,median_ns,setup_ns"

__all__ = [
    "METHODS",
    "METHOD_DENSE",
    "METHOD_FASTJL_AC",
    "METHOD_FASTJL_NEW",
    "CSV_HEADER",
    "BenchConfig",
    "BenchRecord",
    "empty_projection",
    "run_bench",
    "records_to_csv",
]


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark point; q is resolved from the method's scheduler when None."""

    method: str
    d: int
    k: int
    q: float | None = None
    eps: float | None = None
    n: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.k > self.d:
            raise ParameterError(f"k must be <= d, got k={self.k}, d={self.d}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")

    def resolve_q(self) -> float:
        if self.method == METHOD_DENSE:
            return 1.0
        if self.q is not None:
            return self.q
        if self.n is None:
            raise ParameterError(f"{self.method} needs either q or n (plus eps for {METHOD_FASTJL_NEW})")
        if self.method == METHOD_FASTJL_AC:
            return q_ailon_chazelle(self.n, self.d)
        if self.eps is None:
            raise ParameterError(f"{METHOD_FASTJL_NEW} needs eps when q is derived")
        return q_theorem1(self.eps, self.n, self.d)


@dataclass(frozen=True)
class BenchRecord:
    method: str
    d: int
    k: int
    q: float
    nnz_observed: int
    reps: int
    median_embed_time_ns: int
    setup_time_ns: int

    def __post_init__(self) -> None:
        if self.reps < 3:
            raise ParameterError(f"reps must be >= 3, got {self.reps}")
        if self.median_embed_time_ns < 0 or self.setup_time_ns < 0:
            raise ParameterError("times must be >= 0")
        if self.nnz_observed < 0:
            raise ParameterError("nnz must be >= 0")


def empty_projection(k: int, d: int) -> SparseProjection:
    """The degenerate q = 0 projection (no entries; output always zero)."""
    return SparseProjection(
        k=k, d=d, q=0.0,
        indptr=np.zeros(k + 1, dtype=np.int64),
        cols=np.empty(0, dtype=np.int64),
        weights=np.empty(0, dtype=np.float64),
    )


def _build_apply(config: BenchConfig, q: float, seed: int):
    """Return (apply closure, observed nnz); building it is the timed setup."""
    d, k = config.d, config.k
    x = random_unit_vector(d, derive_seed(seed, 0))
    if config.method == METHOD_DENSE:
        A = sample_dense_matrix(k, d, seed)
        scale = k**-0.5
        return (lambda: (A @ x) * scale), k * d
    diag = sample_signs(d, seed)
    proj = empty_projection(k, d) if q == 0.0 else sample_projection(k, d, q, seed)
    return (lambda: embed_with(x, diag, proj)), proj.nnz


def run_bench(
    configs: Iterable[BenchConfig],
    reps: int,
    seed: int,
    *,
    warmup: int = 3,
    parallel_apply: int = 1,
) -> list[BenchRecord]:
    """Time the apply path of each configuration; median of ``reps`` runs."""
    if reps < 3:
        raise ParameterError(f"reps must be >= 3, got {reps}")
    records = []
    for index, config in enumerate(configs):
        q = config.resolve_q()
        cfg_seed = derive_seed(seed, index)
        t0 = time.perf_counter_ns()
        apply_fn, nnz = _build_apply(config, q, cfg_seed)
        setup_ns = time.perf_counter_ns() - t0
        for _ in range(warmup):
            apply_fn()
        if parallel_apply > 1:
            times = _timed_parallel(apply_fn, reps, parallel_apply)
        else:
            times = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                apply_fn()
                times.append(time.perf_counter_ns() - t0)
        records.append(
            BenchRecord(
                method=config.method,
                d=config.d,
                k=config.k,
                q=q,
                nnz_observed=nnz,
                reps=reps,
                median_embed_time_ns=int(statistics.median(times)),
                setup_time_ns=int(setup_ns),
            )
        )
    return records


def _timed_parallel(apply_fn: Callable, reps: int, workers: int) -> list[int]:
    def one(_: int) -> int:
        t0 = time.perf_counter_ns()
        apply_fn()
        return time.perf_counter_ns() - t0

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(reps)))


def records_to_csv(records: Sequence[BenchRecord], config_echo: str | None = None) -> str:
    """CSV text for a bench run; an optional '#'-prefixed line echoes the config."""
    lines = []
    if config_echo:
        lines.append(f"# {config_echo}")
    lines.append(CSV_HEADER)
    for r in records:
        lines.append(
            f"{r.method},{r.d},{r.k},{r.q!r},{r.nnz_observed},{r.reps},"
            f"{r.median_embed_time_ns},{r.setup_time_ns}"
        )
    return "\n".join(lines) + "\n"
