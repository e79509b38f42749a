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

from .errors import ParameterError

Q_FLOOR = 2.0**-32

__all__ = [
    "Q_FLOOR",
    "q_theorem1",
    "q_ailon_chazelle",
    "q_lower_threshold",
    "choose_k",
]


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must be in (0, 1), got {eps}")


def _check_n(n: float) -> None:
    if not 2 <= n < math.inf:
        raise ParameterError(f"n must be finite and >= 2, got {n}")


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")


def _check_d(d: int) -> None:
    if d < 2:
        raise ParameterError(f"d must be >= 2, got {d}")


def _check_multiplier(c: float, name: str) -> None:
    if not 0.0 < c < math.inf:
        raise ParameterError(f"{name} must be finite and > 0, got {c}")


def _clamp_q(value: float) -> float:
    return float(min(max(value, Q_FLOOR), 1.0))


def q_theorem1(eps: float, n: float, d: int, c_q: float = 1.0) -> float:
    """Improved sparsity rate for a set of n points, clamped to (0, 1]."""
    _check_eps(eps)
    _check_n(n)
    _check_d(d)
    _check_multiplier(c_q, "c_q")
    log_n = math.log(n)
    inner = max(1.0, eps * log_n / math.log(1.0 / eps))
    return _clamp_q(c_q * min(eps, (log_n / d) * inner))


def q_ailon_chazelle(n: float, d: int, c_q: float = 1.0) -> float:
    """Classic rate ln^2(n)/d, clamped to (0, 1]."""
    _check_n(n)
    _check_d(d)
    _check_multiplier(c_q, "c_q")
    return _clamp_q(c_q * math.log(n) ** 2 / d)


def q_lower_threshold(eps: float, delta: float, d: int, c_q: float = 1.0) -> float:
    """Per-vector failure threshold: below this rate the embedding fails w.p. > delta."""
    _check_eps(eps)
    _check_delta(delta)
    _check_d(d)
    _check_multiplier(c_q, "c_q")
    log_inv_delta = math.log(1.0 / delta)
    inner = max(1.0, eps * log_inv_delta / math.log(1.0 / eps))
    return _clamp_q(c_q * min(eps, (log_inv_delta / d) * inner))


def choose_k(eps: float, *, n: float | None = None, delta: float | None = None, c_k: float = 1.0) -> int:
    """Target dimension ceil(c_k * eps^-2 * ln n) or ceil(c_k * eps^-2 * ln(1/delta)).

    Exactly one of ``n`` and ``delta`` selects the mode.
    """
    _check_eps(eps)
    _check_multiplier(c_k, "c_k")
    if (n is None) == (delta is None):
        raise ParameterError("exactly one of n and delta must be given")
    if n is not None:
        _check_n(n)
        log_term = math.log(n)
    else:
        assert delta is not None
        _check_delta(delta)
        log_term = math.log(1.0 / delta)
    k = math.ceil(c_k * eps**-2 * log_term)
    if k < 1:
        raise ParameterError(f"derived k must be >= 1, got {k}")
    return k
