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
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DatasetFormatError,
    DimensionError,
    DimensionMismatchError,
    InstanceError,
    ParameterError,
)
from .rng import check_seed, substream
from .transform import _CHUNK_CELLS, _fwht_last_axis, is_power_of_two

MAGIC = b"FJLV"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")

# Above this dimension the support of H x is taken from the index rule
# instead of an explicit transform.
_DIRECT_CHECK_MAX_D = 4096

__all__ = [
    "HardInstance",
    "VectorDataset",
    "hard_vector",
    "hard_level",
    "random_unit_vector",
    "read_vectors",
    "write_vectors",
    "pad_to_power_of_two",
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
    if not 0.0 < delta < 0.5:
        raise ParameterError(f"delta must be in (0, 1/2), got {delta}")
    bracket = math.log2(math.log2(1.0 / math.sqrt(2.0 * delta)))
    return max(0, math.floor(bracket))


def hard_vector(delta: float, d: int) -> HardInstance:
    """Construct the hard instance for failure probability delta in dimension d."""
    if not is_power_of_two(d):
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
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    rng = substream(check_seed(seed))
    while True:
        v = rng.standard_normal(d)
        norm = math.sqrt(v @ v)
        if norm > 0.0:
            return v / norm


@dataclass(frozen=True)
class VectorDataset:
    """A stack of n vectors of common dimension d."""

    d: int
    vectors: np.ndarray
    source: str | None = None

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.d:
            raise DimensionError(
                f"vectors must have shape (n, {self.d}), got {self.vectors.shape}"
            )

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_vectors(path: str | Path, dataset: VectorDataset) -> None:
    """Write a dataset; the suffix selects the format (.fjlv binary, .csv text)."""
    path = Path(path)
    vectors = np.ascontiguousarray(dataset.vectors, dtype=np.float64)
    if path.suffix == ".fjlv":
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, dataset.d, len(dataset))
        payload = header + vectors.astype("<f8", copy=False).tobytes()
    elif path.suffix == ".csv":
        lines = (",".join(f"{v:.17g}" for v in row) for row in vectors)
        payload = ("\n".join(lines) + "\n").encode("ascii")
    else:
        raise DatasetFormatError(f"unsupported vector-file suffix {path.suffix!r} (use .fjlv or .csv)")
    _atomic_write_bytes(path, payload)


def _read_binary(path: Path, raw: bytes) -> VectorDataset:
    if len(raw) == 0:
        raise DatasetFormatError(f"{path}: empty file")
    if len(raw) < _HEADER.size:
        raise DatasetFormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, d, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"{path}: unsupported format version {version}")
    if d < 1:
        raise DatasetFormatError(f"{path}: header declares d={d}")
    payload = len(raw) - _HEADER.size
    if payload != count * d * 8:
        have = payload // 8
        row = have // d + 1
        raise DimensionMismatchError(
            f"{path}: header declares {count} x {d} values but payload holds {have} (row {row})"
        )
    # a read-only view of ``raw``, not a copy; callers that write make their own
    vectors = np.frombuffer(raw, dtype="<f8", count=count * d, offset=_HEADER.size)
    vectors = vectors.astype(np.float64, copy=False).reshape(count, d)
    step = max(1, _CHUNK_CELLS // d)  # checked a chunk at a time: no file-sized mask
    for lo in range(0, count, step):
        finite = np.isfinite(vectors[lo : lo + step]).all(axis=1)
        if not finite.all():
            raise DatasetFormatError(f"{path}: row {lo + int(np.argmin(finite)) + 1} has a non-finite value")
    return VectorDataset(d=d, vectors=vectors, source=str(path))


def _read_csv(path: Path, raw: bytes) -> VectorDataset:
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
    return VectorDataset(d=d, vectors=np.vstack(rows), source=str(path))


def read_vectors(path: str | Path) -> VectorDataset:
    """Read a dataset written by :func:`write_vectors`."""
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix == ".fjlv":
        return _read_binary(path, raw)
    if path.suffix == ".csv":
        return _read_csv(path, raw)
    raise DatasetFormatError(f"unsupported vector-file suffix {path.suffix!r} (use .fjlv or .csv)")


def pad_to_power_of_two(dataset: VectorDataset) -> VectorDataset:
    """Zero-pad vectors on the right to the next power-of-two dimension."""
    d = dataset.d
    if is_power_of_two(d):
        return dataset
    target = 1 << (d - 1).bit_length()
    padded = np.zeros((len(dataset), target), dtype=np.float64)
    padded[:, :d] = dataset.vectors
    return VectorDataset(d=target, vectors=padded, source=dataset.source)
