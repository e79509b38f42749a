"""Test-vector generators and vector-file I/O.

The hard instance is the unit vector whose first 2^l coordinates equal
2^{-l/2}: its Hadamard image concentrates on d/2^l equal entries of
magnitude sqrt(2^l/d), which is the structure that forces the sparse
projection's failure mode.  Under 0-based indexing the non-zeros of H x
sit exactly at the indices divisible by 2^l (checked against a direct
transform for moderate d).

Two file formats are supported, dispatched on the file suffix:

* ``.fjlv`` -- binary: header ``magic "FJLV" | u16 version | u32 d |
  u64 count`` (little-endian, 18 bytes) followed by count*d float64
  values, row-major.  Round-trips are bit-exact.
* ``.csv``  -- text, one vector per line, 17 significant digits (enough
  for exact float64 round-trips).

Readers reject NaN and infinity, naming the first bad row (1-based).
Vectors travel as plain ``(n, d)`` float64 arrays, at any width d; the PHD
kernel zero-pads rows to a power of two in its own scratch, so nothing here
pads.  :func:`read_vectors` and :func:`write_vectors` move a whole array
(a ``.fjlv`` read is one read-only block of :class:`VectorReader`);
:class:`VectorReader` and :func:`vector_writer` move it a block of rows at
a time, which CLI ``embed`` uses.  A ``.fjlv`` input then streams in
O(block) memory, a ``.csv`` input is still read whole, and output of
either format is written block by block.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .errors import (
    DatasetFormatError,
    DimensionError,
    DimensionMismatchError,
    InstanceError,
    check_real,
    check_size,
)
from .rng import substream
from .transform import _CHUNK_CELLS, _fwht_last_axis, is_power_of_two

MAGIC = b"FJLV"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")

# Above this dimension the support of H x is taken from the index rule
# instead of an explicit transform.
_DIRECT_CHECK_MAX_D = 4096

__all__ = [
    "HardInstance",
    "hard_vector",
    "hard_level",
    "random_unit_vector",
    "read_vectors",
    "write_vectors",
    "VectorReader",
    "vector_writer",
]


@dataclass(frozen=True)
class HardInstance:
    """The lower-bound witness vector together with its predicted transform."""

    d: int
    delta: float
    level: int
    x: np.ndarray
    predicted_support: np.ndarray
    predicted_magnitude: float
    m: int


def hard_level(delta: float) -> int:
    """The integer l with l <= log2(log2(1/sqrt(2 delta))) <= l+1, floored at 0.

    The bracket is non-negative only for delta <= 1/8; for larger delta the
    construction degenerates to l = 0 (a single spike coordinate).
    """
    check_real("delta", delta, ("(", 0, 0.5, ")"))
    bracket = math.log2(math.log2(1.0 / math.sqrt(2.0 * delta)))
    return max(0, math.floor(bracket))


def hard_vector(delta: float, d: int) -> HardInstance:
    """Construct the hard instance for failure probability delta in dimension d."""
    if not is_power_of_two(check_size("d", d, error=DimensionError)):
        raise DimensionError(f"d must be a power of two, got {d}")
    level = hard_level(delta)
    width = 2**level
    if width > d:
        raise InstanceError(f"delta={delta} needs 2^l = {width} leading coordinates but d={d}")
    x = np.zeros(d, dtype=np.float64)
    x[:width] = width**-0.5
    m = d // width
    magnitude = math.sqrt(width / d)
    if d <= _DIRECT_CHECK_MAX_D:
        u = _fwht_last_axis(x.copy())
        support = np.flatnonzero(np.abs(u) > 1e-9 * magnitude)
        if len(support) != m or not np.allclose(u[support], magnitude, rtol=0, atol=1e-12):
            raise InstanceError("transformed support disagrees with the index rule")
    else:
        support = np.arange(0, d, width, dtype=np.int64)
    return HardInstance(
        d=d,
        delta=float(delta),
        level=level,
        x=x,
        predicted_support=support,
        predicted_magnitude=magnitude,
        m=m,
    )


def random_unit_vector(d: int, seed: int) -> np.ndarray:
    """Uniform random direction: iid Gaussians normalized to unit length."""
    d = check_size("d", d)
    rng = substream(seed)
    while True:
        v = rng.standard_normal(d)
        norm = math.sqrt(v @ v)
        if norm > 0.0:
            return v / norm


@contextlib.contextmanager
def _atomic_file(path: Path) -> Iterator[BinaryIO]:
    """A binary file that replaces ``path`` only when the ``with`` body ends without an error.

    It is written as a temporary file beside ``path``; on an error the
    temporary file is removed and ``path`` is left as it was.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(payload)


def _check_suffix(path: Path) -> None:
    if path.suffix not in (".fjlv", ".csv"):
        raise DatasetFormatError(f"unsupported vector-file suffix {path.suffix!r} (use .fjlv or .csv)")


@contextlib.contextmanager
def vector_writer(path: str | Path, d: int, count: int) -> Iterator[Callable[[np.ndarray], None]]:
    """Write a ``count`` x ``d`` vector file block by block: yields ``write(block)``.

    The suffix selects the format (.fjlv binary, .csv text).  Blocks go
    straight into the temporary file of an atomic write, with no copy of
    the whole set; ``path`` is replaced only if exactly ``count`` rows were
    written and no error escaped, and is otherwise left as it was.
    """
    path = Path(path)
    _check_suffix(path)
    binary = path.suffix == ".fjlv"
    row_format = ",".join(["%.17g"] * d) + "\n"  # one % per row: 0.6x the time of an f-string per value
    written = 0

    def write(block: np.ndarray) -> None:
        nonlocal written
        block = np.ascontiguousarray(block, dtype="<f8")
        if block.ndim != 2 or block.shape[1] != d:
            raise DimensionError(f"block must have shape (rows, {d}), got {block.shape}")
        written += len(block)
        if binary:
            fh.write(block.data)
        else:
            fh.write("".join(row_format % tuple(row) for row in block.tolist()).encode("ascii"))

    with _atomic_file(path) as fh:
        if binary:
            fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, d, count))
        yield write
        if written != count:
            raise DimensionMismatchError(f"{path}: {written} rows written, {count} declared")


def write_vectors(path: str | Path, X: np.ndarray) -> None:
    """Write the rows of ``X[n, d]``; the suffix selects the format (.fjlv binary, .csv text)."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise DimensionError(f"vectors must have shape (n, d), got {X.shape}")
    with vector_writer(path, X.shape[1], len(X)) as write:
        write(X)


def _parse_header(path: Path, head: bytes, size: int) -> tuple[int, int]:
    """``(d, count)`` from the first bytes of a ``.fjlv`` file of ``size`` bytes.

    Rejects a bad header, and a payload whose size disagrees with it, before
    any row is read.
    """
    if size == 0:
        raise DatasetFormatError(f"{path}: empty file")
    if size < _HEADER.size:
        raise DatasetFormatError(f"{path}: truncated header ({size} bytes)")
    magic, version, d, count = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"{path}: unsupported format version {version}")
    if d < 1:
        raise DatasetFormatError(f"{path}: header declares d={d}")
    payload = size - _HEADER.size
    if payload != count * d * 8:
        have = payload // 8
        row = have // d + 1
        raise DimensionMismatchError(
            f"{path}: header declares {count} x {d} values but payload holds {have} (row {row})"
        )
    return d, count


def _check_finite(path: Path, rows: np.ndarray, first: int) -> None:
    """Reject ``rows`` if one holds NaN or infinity, naming it (1-based, counting from row ``first``).

    Rows are checked ``_CHUNK_CELLS`` cells at a time, so no mask is the size of the block.
    """
    step = max(1, _CHUNK_CELLS // rows.shape[1])
    for lo in range(0, len(rows), step):
        finite = np.isfinite(rows[lo : lo + step]).all(axis=1)
        if not finite.all():
            raise DatasetFormatError(f"{path}: row {first + lo + int(np.argmin(finite)) + 1} has a non-finite value")


def _read_csv(path: Path, raw: bytes) -> np.ndarray:
    text = raw.decode("utf-8")
    rows: list[np.ndarray] = []
    d: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = np.array([float(tok) for tok in line.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from None
        if not np.isfinite(row).all():
            raise DatasetFormatError(f"{path}: row {lineno} has a non-finite value")
        if d is None:
            d = len(row)
            if d == 0:
                raise DatasetFormatError(f"{path}: row {lineno} is empty")
        elif len(row) != d:
            raise DimensionMismatchError(
                f"{path}: row {lineno} has {len(row)} values, expected {d}"
            )
        rows.append(row)
    if d is None:
        raise DatasetFormatError(f"{path}: empty file")
    return np.vstack(rows)


def read_vectors(path: str | Path) -> np.ndarray:
    """The ``(n, d)`` float64 array in a file written by :func:`write_vectors`.

    A ``.fjlv`` file is read by :class:`VectorReader` as one block of all its
    rows, into one read-only array of the payload's size.
    """
    path = Path(path)
    _check_suffix(path)
    if path.suffix == ".csv":
        return _read_csv(path, path.read_bytes())
    with VectorReader(path) as reader:
        vectors = next(reader.blocks(max(1, reader.count)), np.empty((0, reader.d)))
    vectors.flags.writeable = False  # callers that write make their own copy
    return vectors


class VectorReader:
    """A vector file opened to be read a block of rows at a time.

    ``d`` and ``count`` are known on opening.  A ``.fjlv`` file is checked
    against its header at once and then streams from the open file through
    one reused buffer, so memory is O(block).  A ``.csv`` file is parsed
    whole (its shape is known only then) and handed out in blocks.  Use it
    as a context manager, which closes the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None
        if self.path.suffix != ".fjlv":
            self._vectors = read_vectors(self.path)
            self.count, self.d = self._vectors.shape
            return
        self._fh = open(self.path, "rb")
        try:
            size = os.fstat(self._fh.fileno()).st_size
            self.d, self.count = _parse_header(self.path, self._fh.read(_HEADER.size), size)
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "VectorReader":
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self._fh.close()

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """Consecutive blocks of at most ``rows`` rows, NaN and infinity rejected.

        A ``.fjlv`` block is overwritten by the next one, so use it before
        asking for the next.
        """
        if self._fh is None:
            for lo in range(0, self.count, rows):
                yield self._vectors[lo : lo + rows]
            return
        buf = np.empty((min(rows, self.count), self.d), dtype="<f8")
        for lo in range(0, self.count, rows):
            block = buf[: min(rows, self.count - lo)]
            if self._fh.readinto(memoryview(block).cast("B")) != block.nbytes:
                raise DimensionMismatchError(f"{self.path}: payload ends before row {self.count}")
            _check_finite(self.path, block, lo)
            yield block.astype(np.float64, copy=False)
