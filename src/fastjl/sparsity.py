"""Closed-form schedulers for the sparsity rate q and the target dimension k.

Three rates are provided:

* ``q_theorem1``      -- min{eps, (ln n / d) * max{1, eps ln n / ln(1/eps)}},
  the improved rate for embedding a set of n points;
* ``q_ailon_chazelle`` -- the classic ln^2(n)/d rate;
* ``q_lower_threshold`` -- the same shape as ``q_theorem1`` with ln(1/delta)
  in place of ln n, the per-vector threshold below which the embedding
  provably fails with probability more than delta.

Asymptotic statements hide constants, so each scheduler takes an explicit
multiplier (``c_q``, ``c_k``) defaulting to 1.0; experiment reports must
record the values used.  Rates are clamped to (0, 1] with a floor of 2^-32
to avoid degenerate zero-probability sampling.  The regime validated by the
harness is eps, delta <= 0.5; larger values up to 0.99 are accepted.
"""

from __future__ import annotations

import math

from .errors import MAX_SIZE, OPEN_UNIT, POINT_COUNT, POSITIVE, ParameterError, check_real, check_size

Q_FLOOR = 2.0**-32

__all__ = [
    "Q_FLOOR",
    "q_theorem1",
    "q_ailon_chazelle",
    "q_lower_threshold",
    "choose_k",
]


_D = (2, MAX_SIZE)


def _clamp_q(value: float) -> float:
    return float(min(max(value, Q_FLOOR), 1.0))


def q_theorem1(eps: float, n: float, d: int, c_q: float = 1.0) -> float:
    """Improved sparsity rate for a set of n points, clamped to (0, 1]."""
    check_real("eps", eps, OPEN_UNIT)
    check_real("n", n, POINT_COUNT)
    check_size("d", d, _D)
    check_real("c_q", c_q, POSITIVE)
    log_n = math.log(n)
    inner = max(1.0, eps * log_n / math.log(1.0 / eps))
    return _clamp_q(c_q * min(eps, (log_n / d) * inner))


def q_ailon_chazelle(n: float, d: int, c_q: float = 1.0) -> float:
    """Classic rate ln^2(n)/d, clamped to (0, 1]."""
    check_real("n", n, POINT_COUNT)
    check_size("d", d, _D)
    check_real("c_q", c_q, POSITIVE)
    return _clamp_q(c_q * math.log(n) ** 2 / d)


def q_lower_threshold(eps: float, delta: float, d: int, c_q: float = 1.0) -> float:
    """Per-vector failure threshold: below this rate the embedding fails w.p. > delta."""
    check_real("eps", eps, OPEN_UNIT)
    check_real("delta", delta, OPEN_UNIT)
    check_size("d", d, _D)
    check_real("c_q", c_q, POSITIVE)
    log_inv_delta = math.log(1.0 / delta)
    inner = max(1.0, eps * log_inv_delta / math.log(1.0 / eps))
    return _clamp_q(c_q * min(eps, (log_inv_delta / d) * inner))


def choose_k(eps: float, *, n: float | None = None, delta: float | None = None, c_k: float = 1.0) -> int:
    """Target dimension ceil(c_k * eps^-2 * ln n) or ceil(c_k * eps^-2 * ln(1/delta)).

    Exactly one of ``n`` and ``delta`` selects the mode.
    """
    check_real("eps", eps, OPEN_UNIT)
    check_real("c_k", c_k, POSITIVE)
    if (n is None) == (delta is None):
        raise ParameterError("exactly one of n and delta must be given")
    if n is not None:
        log_term = math.log(check_real("n", n, POINT_COUNT))
    else:
        log_term = math.log(1.0 / check_real("delta", delta, OPEN_UNIT))
    try:
        k = math.ceil(c_k * eps**-2 * log_term)
    except OverflowError:  # eps**-2, or the product, beyond the float range
        k = math.inf
    return check_size("derived k", k)
