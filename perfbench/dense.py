"""Dense reference formulas for the PHD embedding, written apart from fastjl.

Nothing here imports fastjl.  The benchmark checks the program's outputs
against these formulas, and ``reference.py`` uses them to estimate the
failure probabilities of the Monte Carlo workloads.

* ``H`` is ``scipy.linalg.hadamard(d) / sqrt(d)`` (Sylvester order).
* ``P`` is a dense ``k x d`` matrix: each cell is occupied with probability
  ``q`` and an occupied cell holds ``N / sqrt(q)``.
* An embedded row is ``k^-1/2 * P @ H @ (signs * x)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import hadamard

Z95 = 1.96


def normalized_hadamard(d: int) -> np.ndarray:
    """``H_d / sqrt(d)`` as float64; every entry is +-d^-1/2."""
    return hadamard(d).astype(np.float64) / math.sqrt(d)


def dense_projection(k: int, d: int, indptr, cols, weights) -> np.ndarray:
    """Dense ``k x d`` matrix from row-compressed arrays (row i owns cols[indptr[i]:indptr[i+1]])."""
    P = np.zeros((k, d))
    rows = np.repeat(np.arange(k), np.diff(np.asarray(indptr)))
    P[rows, np.asarray(cols)] = weights
    return P


def phd_matrix(signs: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The ``d x k`` matrix ``M`` with ``x @ M = k^-1/2 P H (signs * x)`` for a row ``x``."""
    k, d = P.shape
    H = normalized_hadamard(d)
    return (signs[:, None] * H) @ P.T / math.sqrt(k)


def pad_columns(X: np.ndarray) -> np.ndarray:
    """Zero-pad the rows of ``X`` on the right to the next power of two."""
    d = X.shape[1]
    target = 1 << (d - 1).bit_length()
    if target == d:
        return X
    out = np.zeros((X.shape[0], target))
    out[:, :d] = X
    return out


def theorem1_q(eps: float, n: float, d: int, c_q: float = 1.0) -> float:
    """``c_q * min{eps, (ln n / d) max{1, eps ln n / ln(1/eps)}}``, clamped to (0, 1]."""
    log_n = math.log(n)
    rate = c_q * min(eps, (log_n / d) * max(1.0, eps * log_n / math.log(1.0 / eps)))
    return min(max(rate, 2.0**-32), 1.0)


def jl_k(eps: float, n: float, c_k: float = 1.0) -> int:
    """Target dimension ``ceil(c_k eps^-2 ln n)``."""
    return math.ceil(c_k * eps**-2 * math.log(n))


def wilson(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Textbook Wilson score interval."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2.0 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (center - half) / denom, (center + half) / denom


def window_fails(ratio_sq: np.ndarray, eps: float) -> np.ndarray:
    """The squared-norm window: a ratio fails outside the open interval (1-eps, 1+eps)."""
    return (ratio_sq <= 1.0 - eps) | (ratio_sq >= 1.0 + eps)


def draw_dense_projection(rng: np.random.Generator, k: int, d: int, q: float) -> np.ndarray:
    """Bernoulli(q) cells, each occupied one holding ``N / sqrt(q)``."""
    occupied = rng.random((k, d)) < q
    P = np.zeros((k, d))
    P[occupied] = rng.standard_normal(int(occupied.sum())) / math.sqrt(q)
    return P


def draw_signs(rng: np.random.Generator, shape) -> np.ndarray:
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)
