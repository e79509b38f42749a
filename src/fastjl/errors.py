"""Exception types shared across the package, and its one rule for admissible numbers.

A number is admissible only if it is finite and inside its interval.
:func:`check_real` applies the rule to a real parameter, :func:`check_size`
to an integer size and :func:`check_finite` to every entry of an array.
The scalar checks raise one message shape, ``"{name} must be in {interval}
and finite, got {value}"``, and make plain comparisons only: ``JlParams`` and
``rng.substream`` run them on every embedding.
"""

import math

import numpy as np

# Largest integer size: every size up to it converts to float exactly.
MAX_SIZE = 2**53

# Intervals of check_real used in more than one place
OPEN_UNIT = ("(", 0, 1, ")")  # eps, delta
RATE = ("(", 0, 1, "]")  # a sparsity rate q
POSITIVE = ("(", 0, math.inf, ")")  # multipliers and constants
NON_NEGATIVE = ("[", 0, math.inf, ")")
POINT_COUNT = ("[", 2, math.inf, ")")  # n, the number of points


class FastJlError(Exception):
    """Base class for all fastjl errors."""


class DimensionError(FastJlError, ValueError):
    """A vector or matrix has an incompatible or unsupported shape."""


class ParameterError(FastJlError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DomainError(FastJlError, ValueError):
    """Hypotheses of an analytic bound or check are violated."""


class InstanceError(FastJlError, ValueError):
    """A test instance cannot be constructed from the given parameters."""


class DatasetFormatError(FastJlError, ValueError):
    """A vector file is malformed (bad magic, truncated, unparsable row)."""


class DimensionMismatchError(DatasetFormatError):
    """A record in a vector file disagrees with the declared dimension."""


def check_real(name: str, value, bounds: tuple):
    """``value`` if it lies in the interval ``bounds``, else :class:`ParameterError`.

    ``bounds`` is ``(left, lo, hi, right)`` with ``left`` one of ``"("``,
    ``"["`` and ``right`` one of ``")"``, ``"]"``, e.g. ``("(", 0, 1, "]")``
    for ``(0, 1]``.  An infinite end is open, so NaN and infinity never pass.
    """
    left, lo, hi, right = bounds
    if (lo < value if left == "(" else lo <= value) and (value < hi if right == ")" else value <= hi):
        return value
    raise ParameterError(f"{name} must be in {left}{lo}, {hi}{right} and finite, got {value}")


def check_size(name: str, value, bounds: tuple = (1, MAX_SIZE), error: type = ParameterError) -> int:
    """``value`` as an int if it is an integer with ``lo <= value <= hi``, ``(lo, hi) = bounds``; else ``error``.

    A huge int is compared as it is: ``math.isfinite`` would raise
    OverflowError on it.
    """
    lo, hi = bounds
    if isinstance(value, (int, np.integer)) and lo <= value <= hi:
        return int(value)
    raise error(f"{name} must be in the integers {lo} <= {name} <= {hi} and finite, got {value}")


def check_finite(name: str, a: np.ndarray) -> None:
    """Raise :class:`ParameterError` if the array ``a`` holds NaN or infinity."""
    # min and max are NaN or infinite when some entry is, and make no temporary array
    if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise ParameterError(f"{name} has a non-finite value")
