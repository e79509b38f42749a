"""Shared test oracles, independent of the library's fast paths, and the z-statistics sampler."""

from typing import NamedTuple

import numpy as np

from fastjl import verify


def dense_hadamard(d: int) -> np.ndarray:
    """The normalized Hadamard matrix built by the explicit recursion."""
    assert d >= 1 and d & (d - 1) == 0
    H = np.array([[1.0]])
    while H.shape[0] < d:
        H = np.block([[H, H], [H, -H]]) / np.sqrt(2.0)
    return H


def wilson_reference(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Textbook Wilson score interval, written out directly."""
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = p + z**2 / (2 * trials)
    half = z * np.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    return (center - half) / denom, (center + half) / denom


class ZStatistics(NamedTuple):
    """Per-trial max, sum and sum of squares of the k values."""

    max_z: np.ndarray
    sum_z: np.ndarray
    sum_zsq: np.ndarray


def simulate_z_statistics(m: int, q: float, k: int, trials: int, seed: int, workers: int = 1) -> ZStatistics:
    """Draw (max, sum, sum of squares) of k independent Binomial(m, q)/m values per trial.

    The counts are those that ``verify.run_bound_check`` counts its events
    on: the uniforms of ``verify._z_trials``, inverted through the exact CDF
    by ``verify._z_counts``.  The statistics are reduced exactly on the
    integer counts and divided by m (or m^2) once.
    """
    m, q, k, cdf, table = verify._z_table(m, q, k)

    def statistics(u):
        x, squares = verify._z_counts(u, cdf, table)
        return x.max(axis=0) / m, x.sum(axis=0) / m, squares.sum(axis=0) / (m * m)

    return ZStatistics(*map(np.concatenate, zip(*verify._z_trials(k, trials, seed, workers, statistics))))
