"""Test-vector generators and vector-file I/O.

The hard instance is the unit vector whose first 2^l coordinates equal
2^{-l/2}: its Hadamard image concentrates on d/2^l equal entries of
magnitude sqrt(2^l/d), which is the structure that forces the sparse
projection's failure mode.  Under 0-based indexing the non-zeros of H x
sit exactly at the indices divisible by 2^l (the tests check this against
the dense and the fast transform).

Two file formats are supported, dispatched on the file suffix:

* ``.fjlv`` -- binary: header ``magic "FJLV" | u16 version | u32 d |
  u64 count`` (little-endian, 18 bytes) followed by count*d float64
  values, row-major.  Round-trips are bit-exact.
* ``.csv``  -- text, one vector per line, 17 significant digits (enough
  for exact float64 round-trips).

Every file written here is finite, as every reader requires: readers and
writers reject NaN and infinity, naming the first bad row (1-based).  A
``.csv`` file states ``d`` only in its rows, so the writers refuse one of no
rows; a ``.fjlv`` file of no rows states it in its header and reads back.
Vectors travel as plain ``(n, d)`` float64 arrays, at any width d; the PHD
kernel zero-pads rows to a power of two in its own scratch, so nothing here
pads.  :func:`read_vectors` and :func:`write_vectors` move a whole array;
:meth:`VectorReader.read_rows` and :func:`vector_writer` move any run of
rows by its position, which CLI ``embed`` uses.  A ``.fjlv`` input is then
read and its output written by ``os.preadv`` and ``os.pwrite``, from
several threads at once, in the memory of their buffers; a ``.csv`` input is
still read whole, and a ``.csv`` output is written in row order.
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
from .transform import _CHUNK_CELLS, is_power_of_two

MAGIC = b"FJLV"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")

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
    return HardInstance(
        d=d,
        delta=float(delta),
        level=level,
        x=x,
        predicted_support=np.arange(0, d, width, dtype=np.int64),
        predicted_magnitude=math.sqrt(width / d),
        m=d // width,
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
def vector_writer(path: str | Path, d: int, count: int) -> Iterator[Callable[[int, np.ndarray], None]]:
    """Write a ``count`` x ``d`` vector file a block of rows at a time: yields ``write(first, block)``.

    ``write`` puts ``block`` at rows ``first, first + 1, ...`` of the file.  The
    suffix selects the format.  A ``.fjlv`` temporary file is sized for all its
    rows on opening and each block goes to its own offset with ``os.pwrite``,
    so blocks may come in any order and from several threads at once.  A
    ``.csv`` file is text appended row after row, so it takes blocks only in
    row order.  A block holding NaN or infinity raises
    :class:`DatasetFormatError`, naming its first bad row, and so does a
    ``.csv`` file of no rows, which could not state its ``d``.  Blocks go straight
    into the temporary file of an atomic write, with no copy of the whole set;
    ``path`` is replaced only if the blocks written cover the ``count`` rows
    exactly once and no error escaped, and is otherwise left as it was.
    """
    path = Path(path)
    _check_suffix(path)
    binary = path.suffix == ".fjlv"
    if not (binary or count):  # a reader takes a .csv file's d from its rows
        raise DatasetFormatError(f"{path}: a .csv file of no rows cannot state its dimension")
    row_format = ",".join(["%.17g"] * d) + "\n"  # one % per row: 0.6x the time of an f-string per value
    spans: list[tuple[int, int]] = []  # (first, rows) of each block; list.append is atomic

    def write(first: int, block: np.ndarray) -> None:
        block = np.ascontiguousarray(block, dtype="<f8")
        if block.ndim != 2 or block.shape[1] != d:
            raise DimensionError(f"block must have shape (rows, {d}), got {block.shape}")
        if not 0 <= first <= count - len(block):
            raise DimensionMismatchError(f"{path}: rows {first + 1} to {first + len(block)} of {count} declared")
        _check_finite(path, block, first)  # every reader refuses NaN and infinity
        if binary:
            _pwrite_all(fh.fileno(), block.reshape(-1), _HEADER.size + first * d * 8)
        elif first != (sum(spans[-1]) if spans else 0):
            raise DimensionMismatchError(f"{path}: a .csv file is written in row order, got row {first + 1} next")
        else:
            fh.write("".join(row_format % tuple(row) for row in block.tolist()).encode("ascii"))
        spans.append((first, len(block)))

    with _atomic_file(path) as fh:
        if binary:
            os.ftruncate(fh.fileno(), _HEADER.size + count * d * 8)
            _pwrite_all(fh.fileno(), _HEADER.pack(MAGIC, FORMAT_VERSION, d, count), 0)
        yield write
        covered = 0  # the end of the rows written from row 0 on without a gap or an overlap
        for first, rows in sorted(spans):
            covered = covered + rows if first == covered else -1
        if covered != count:
            raise DimensionMismatchError(f"{path}: {sum(rows for _, rows in spans)} rows written, {count} declared")


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of ``data`` (bytes or a 1-d contiguous array) at ``offset`` of ``fd``."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def write_vectors(path: str | Path, X: np.ndarray) -> None:
    """Write the rows of ``X[n, d]``; the suffix selects the format (.fjlv binary, .csv text)."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise DimensionError(f"vectors must have shape (n, d), got {X.shape}")
    with vector_writer(path, X.shape[1], len(X)) as write:
        write(0, X)


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

    A block passes on its min and max, which make no temporary array; a failing
    one is searched ``_CHUNK_CELLS`` cells at a time, so no mask is the size of the block.
    """
    if not rows.size or math.isfinite(rows.min()) and math.isfinite(rows.max()):
        return
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

    A ``.fjlv`` file is read by :meth:`VectorReader.read_rows` in one call,
    into one read-only array over a buffer of the payload's size.
    """
    path = Path(path)
    _check_suffix(path)
    if path.suffix == ".csv":
        return _read_csv(path, path.read_bytes())
    with VectorReader(path) as reader:
        vectors = np.frombuffer(bytearray(reader.count * reader.d * 8)).reshape(reader.count, reader.d)
        reader.read_rows(0, vectors)
    vectors.flags.writeable = False  # callers that write make their own copy
    return vectors


class VectorReader:
    """A vector file opened to be read a run of rows at a time, at any row.

    ``d`` and ``count`` are known on opening.  A ``.fjlv`` file is checked
    against its header at once and then read by position
    (:meth:`read_rows`), so memory is what the caller's buffers hold and
    several threads may read at once.  A ``.csv`` file is parsed whole (its
    shape is known only then) and copied out.  Use it as a context manager,
    which closes the file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fd = None
        if self.path.suffix != ".fjlv":
            self._vectors = read_vectors(self.path)
            self.count, self.d = self._vectors.shape
            return
        self._fd = os.open(self.path, os.O_RDONLY)
        try:
            self.d, self.count = _parse_header(self.path, os.pread(self._fd, _HEADER.size, 0),
                                               os.fstat(self._fd).st_size)
        except BaseException:
            os.close(self._fd)
            raise

    def __enter__(self) -> "VectorReader":
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)

    def read_rows(self, first: int, out: np.ndarray) -> np.ndarray:
        """Fill the float64 ``out[n, d]`` with rows ``first`` to ``first + n - 1`` and return it.

        A ``.fjlv`` file is read with ``os.preadv`` at the rows' offset, straight
        into ``out``, and its rows are checked for NaN and infinity, a bad one
        named by its 1-based row in the file; a ``.csv`` file's rows were
        checked when it was parsed.
        """
        if out.ndim != 2 or out.shape[1] != self.d or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise DimensionError(f"out must be a C-contiguous float64 array of shape (rows, {self.d})")
        if not 0 <= first <= self.count - len(out):
            raise DimensionError(f"{self.path}: no rows {first + 1} to {first + len(out)} of {self.count}")
        if self._fd is None:
            out[...] = self._vectors[first : first + len(out)]
            return out
        view, offset = memoryview(out.reshape(-1)).cast("B"), _HEADER.size + first * self.d * 8
        while view:
            read = os.preadv(self._fd, [view], offset)
            if read == 0:
                raise DimensionMismatchError(f"{self.path}: payload ends before row {self.count}")
            view, offset = view[read:], offset + read
        if not np.little_endian:
            out.byteswap(inplace=True)
        _check_finite(self.path, out, first)
        return out
