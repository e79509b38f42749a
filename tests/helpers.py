"""Shared test oracles, independent of the library's fast paths, and the z-statistics sampler."""

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from fastjl import instances, lemmas


def dense_hadamard(d: int) -> np.ndarray:
    """The normalized Hadamard matrix built by the explicit recursion."""
    assert d >= 1 and d & (d - 1) == 0
    H = np.array([[1.0]])
    while H.shape[0] < d:
        H = np.block([[H, H], [H, -H]]) / np.sqrt(2.0)
    return H


def write_fjlv_unchecked(path: Path, X: np.ndarray) -> None:
    """A ``.fjlv`` file of the rows of ``X`` as they are, NaN and infinity included, which no fastjl writer makes."""
    X = np.ascontiguousarray(X, dtype="<f8")
    header = instances._HEADER.pack(instances.MAGIC, instances.FORMAT_VERSION, X.shape[1], len(X))
    Path(path).write_bytes(header + X.tobytes())


def wilson_reference(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Textbook Wilson score interval, written out directly."""
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = p + z**2 / (2 * trials)
    half = z * np.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    return (center - half) / denom, (center + half) / denom


class CallLog:
    """Records appended to a file, so that worker processes made with ``fork`` report them too.

    Each record is one short write to a file opened for appending, so the
    records of concurrent processes never interleave; :meth:`read` returns
    them in the order they were written.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        path.write_text("")

    def add(self, *values) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(values) + "\n")

    def read(self) -> list[tuple]:
        return [tuple(json.loads(line)) for line in self.path.read_text().splitlines()]


class ZStatistics(NamedTuple):
    """Per-trial max, sum and sum of squares of the k values."""

    max_z: np.ndarray
    sum_z: np.ndarray
    sum_zsq: np.ndarray


def simulate_z_statistics(m: int, q: float, k: int, trials: int, seed: int, workers: int = 1) -> ZStatistics:
    """Draw (max, sum, sum of squares) of k independent Binomial(m, q)/m values per trial.

    The counts are those that ``lemmas.run_bound_check`` counts its events
    on: the uniforms of ``lemmas._z_trials``, inverted through the exact CDF
    by ``lemmas._z_counts``.  The statistics are reduced exactly on the
    integer counts and divided by m (or m^2) once.
    """
    m, q, k, cdf, table = lemmas._z_table(m, q, k)

    def statistics(u):
        x, squares = lemmas._z_counts(u, cdf, table)
        return x.max(axis=0) / m, x.sum(axis=0) / m, squares.sum(axis=0) / (m * m)

    return ZStatistics(*map(np.concatenate, zip(*lemmas._z_trials(k, trials, seed, workers, statistics))))
