"""The PHD embedding pipeline.

The embedding of a vector ``x`` is ``k^{-1/2} * P @ H @ D @ x`` where

* ``D`` is a diagonal of independent uniform random signs,
* ``H`` is the normalized Walsh-Hadamard matrix,
* ``P`` is a sparse k x d matrix whose cells are independently occupied
  with probability ``q`` and carry weight ``N / sqrt(q)`` for a standard
  Gaussian ``N``.

Many rows go through one batched kernel, :class:`PhdKernel`, which prepares
``(D, P)`` once and then applies it chunk by chunk (:func:`apply_phd` is its
checked entry for a whole set); one vector (``embed``,
``embed_with``) takes the kernel's one-row path directly.  ``H_d`` is a
Kronecker product of Sylvester blocks of size <= 64, each one BLAS product
(a cache-blocked FWHT after FFHT: Andoni, Indyk, Laarhoven, Razenshteyn and
Schmidt, NeurIPS 2015); ``P`` is a gather, or a product with a dense copy.
A batch of at least ``k`` rows that pays for the dense copy folds ``H`` and
``D`` into it as well, so each of its rows costs one dense ``k x d`` product,
as the dense Gaussian map does; the FWHT's saving shows in the one-row path
and in batches too large or too sparse for the copy.

A dense Gaussian embedding is provided as the classical reference.
All samplers are pure functions of their seed; see :mod:`fastjl.rng`.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import OPEN_UNIT, RATE, DimensionError, ParameterError, check_finite, check_real, check_size
from .rng import MAX_WORKERS, check_seed, parallel_map, substream

# Key paths so that the sign diagonal, the sparse projection and the dense
# reference matrix drawn from one seed are independent streams.
_SIGNS_KEY = 0
_PROJECTION_KEY = 1
_DENSE_KEY = 2

__all__ = [
    "NormCriterion",
    "JlParams",
    "SignDiagonal",
    "SparseProjection",
    "is_power_of_two",
    "fwht_inplace",
    "sample_signs",
    "apply_signs",
    "sample_projection",
    "PhdKernel",
    "apply_phd",
    "embed",
    "embed_with",
    "sample_dense_matrix",
    "dense_embed_reference",
]


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_float_vector(v: np.ndarray, name: str = "v") -> None:
    if not isinstance(v, np.ndarray) or v.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d numpy array")
    if v.dtype != np.float64:
        raise ParameterError(f"{name} must have dtype float64, got {v.dtype}")
    check_finite(name, v)


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place multiplication by the normalized Hadamard matrix H_d.

    ``v`` must be a finite float64 vector whose length is a power of two.  The
    result overwrites ``v``, which is also returned (``fwht_inplace(v) is
    v``).  H_d is applied as a Kronecker product of Sylvester blocks of size
    at most 64, one BLAS product per block, in O(d log d) flops for every d.
    H_d is symmetric orthogonal, so applying the transform twice restores the
    input.
    """
    _check_float_vector(v)
    if not is_power_of_two(v.shape[0]):
        raise DimensionError(f"length must be a power of two, got {v.shape[0]}")
    return _fwht_last_axis(v)


# Largest Sylvester block of the factored transform: a product with H_a costs
# 2a flops per entry, so blocks stay small but give each BLAS call real work.
_MAX_HADAMARD_BLOCK = 64

# Float64 cells per row chunk (2 MB per scratch array): 256 rows at d = 1024.
_CHUNK_CELLS = 1 << 18

# Slots of the per-thread scratch: the FWHT's two Kronecker intermediates,
# the kernel's padded signed rows and a one-shot kernel's dense matrix.
_FWHT_SLOTS, _ROWS_SLOT, _DENSE_P_SLOT = (0, 1), 2, 3


class _ThreadScratch(threading.local):
    """Float64 buffers of one thread, kept for the thread's life and grown on demand.

    Arrays made afresh per chunk cost page faults and system time each time
    glibc hands them back to the kernel; these are made once per thread.
    """

    def __init__(self) -> None:
        self.bufs = [np.empty(0)] * 4

    def take(self, slot: int, cells: int) -> np.ndarray:
        """The first ``cells`` cells of buffer ``slot``, valid until the next take of that slot."""
        if len(self.bufs[slot]) < cells:
            self.bufs[slot] = np.empty(cells)
        return self.bufs[slot][:cells]


_scratch = _ThreadScratch()


@functools.lru_cache(maxsize=None)
def _hadamard_blocks(d: int) -> tuple[np.ndarray, ...]:
    """Read-only normalized Sylvester matrices H_a, a <= 64 and as equal as can be, whose
    Kronecker product is H_d."""
    bits = d.bit_length() - 1
    count = max(1, -(-bits // (_MAX_HADAMARD_BLOCK.bit_length() - 1)))
    blocks = []
    for i in range(count):
        H = np.ones((1, 1))
        while len(H) < 1 << (bits // count + (i < bits % count)):
            H = np.block([[H, H], [H, -H]])
        H *= len(H) ** -0.5
        H.setflags(write=False)
        blocks.append(H)
    return tuple(blocks)


def _fwht_last_axis(a: np.ndarray) -> np.ndarray:
    """Transform the last axis of ``a`` in place and return ``a``.

    H_d = H_{a_1} (x) ... (x) H_{a_f}, so each block multiplies its own axis of
    a row reshaped to (a_1, ..., a_f); the last product writes into ``a``.
    Rows go ``_CHUNK_CELLS`` at a time.  The intermediates of a chunk go into
    the calling thread's scratch (:class:`_ThreadScratch`), alternating
    between its two FWHT buffers when there are two or more inner blocks
    (d > 4096), so a call allocates nothing once the thread has run a chunk
    of that size.
    """
    *inner, last = _hadamard_blocks(a.shape[-1])
    if not inner:  # d <= 64: one product, which costs less than the chunk loop
        a[...] = a @ last
        return a
    if not a.flags.c_contiguous:
        a[...] = _fwht_last_axis(np.ascontiguousarray(a))
        return a
    d = a.shape[-1]
    rows = a.reshape(-1, d)
    step = max(1, _CHUNK_CELLS // d)
    bufs = [_scratch.take(slot, min(step, len(rows)) * d) for slot in _FWHT_SLOTS[: len(inner)]]
    for lo in range(0, len(rows), step):
        chunk = u = rows[lo : lo + step]
        right = d
        for i, H in enumerate(inner):
            right //= len(H)
            out = bufs[i % 2][: chunk.size].reshape(-1, len(H), right)
            u = np.matmul(H, u.reshape(-1, len(H), right), out=out)
        np.matmul(u.reshape(-1, len(last)), last, out=chunk.reshape(-1, len(last)))
    return a


class NormCriterion(Enum):
    """Whether the (1 +- eps) window is checked on ||.||^2 or on ||.||."""

    SQUARED_NORM = "squared"
    NORM = "norm"


@dataclass(frozen=True)
class JlParams:
    """Full configuration of one PHD embedding."""

    d: int
    k: int
    eps: float
    q: float
    seed: int
    norm_criterion: NormCriterion = NormCriterion.SQUARED_NORM

    def __post_init__(self) -> None:
        if not is_power_of_two(check_size("d", self.d)):
            raise ParameterError(f"d must be a power of two >= 1, got {self.d}")
        check_size("k", self.k, (1, self.d))
        check_real("eps", self.eps, OPEN_UNIT)
        check_real("q", self.q, RATE)
        check_seed(self.seed)


@dataclass(frozen=True)
class SignDiagonal:
    """Rademacher diagonal: d independent signs plus the seed that made them."""

    signs: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        _check_float_vector(self.signs, "signs")
        if not np.all(np.abs(self.signs) == 1.0):
            raise ParameterError("sign entries must be exactly +1 or -1")
        check_seed(self.seed)

    @property
    def d(self) -> int:
        return self.signs.shape[0]


def _draw_signs(rng: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
    """Uniform +-1.0 signs of the given shape, from one ``rng.integers`` call."""
    signs = rng.integers(0, 2, size=shape).astype(np.float64)
    signs *= 2.0
    signs -= 1.0
    return signs


def sample_signs(d: int, seed: int) -> SignDiagonal:
    """Draw the random sign diagonal D (deterministic per seed)."""
    check_size("d", d)
    rng = substream(seed, _SIGNS_KEY)
    return SignDiagonal(signs=_draw_signs(rng, d), seed=check_seed(seed))


def apply_signs(v: np.ndarray, diag: SignDiagonal) -> np.ndarray:
    """Componentwise product D @ v; preserves the norm exactly."""
    _check_float_vector(v)
    if v.shape[0] != diag.d:
        raise DimensionError(f"length mismatch: v has {v.shape[0]}, diagonal has {diag.d}")
    return diag.signs * v


@dataclass(frozen=True)
class SparseProjection:
    """Row-compressed k x d matrix of scaled Gaussian entries (the matrix P).

    Row ``i`` occupies ``cols[indptr[i]:indptr[i+1]]`` with weights
    ``weights[indptr[i]:indptr[i+1]]``; weights are ``N / sqrt(q)``.
    """

    k: int
    d: int
    q: float
    indptr: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        check_size("k", self.k)
        check_size("d", self.d)
        check_real("q", self.q, ("[", 0, 1, "]"))
        if self.indptr.shape != (self.k + 1,) or self.indptr[0] != 0 or self.indptr[-1] != len(self.cols):
            raise DimensionError("indptr must have shape (k+1,) spanning the entry arrays")
        counts = np.diff(self.indptr)
        if counts.min(initial=0) < 0:
            raise DimensionError("indptr must be non-decreasing")
        if len(self.cols) != len(self.weights):
            raise DimensionError("cols and weights must have equal length")
        if len(self.cols):
            if self.cols.min() < 0 or self.cols.max() >= self.d:
                raise DimensionError("column indices must lie in [0, d)")
            # given the bounds, strict increase within each row is equivalent
            # to strict monotonicity of the flattened k*d cell indices
            flat = np.repeat(np.arange(self.k, dtype=np.int64) * self.d, counts) + self.cols
            if np.diff(flat).min(initial=1) <= 0:
                raise DimensionError("column indices must be strictly increasing within a row")
            check_finite("weights", self.weights)

    @property
    def nnz(self) -> int:
        return int(len(self.cols))

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column indices, weights) of row ``i``."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.cols[lo:hi], self.weights[lo:hi]


def _gap_batch(ncells: int, q: float) -> int:
    """Gaps drawn at first for ``ncells`` cells: the mean success count plus 10 deviations and 16."""
    mean = ncells * q
    return int(mean + 10.0 * math.sqrt(max(mean * (1.0 - q), 1.0)) + 16.0)


def _draw_gaps(rng: np.random.Generator, q: float, out: np.ndarray) -> np.ndarray:
    """Fill the float64 ``out`` with the gaps ``rng.geometric(q, len(out))`` would return, ``0 < q < 1``."""
    if q < 1 / 3:  # numpy's inversion branch: ceil(-E / log1p(-q)), one exponential E per gap
        rng.standard_exponential(out=out)
        out /= -math.log1p(-q)  # a division, as numpy's, so the rounding is the same
        np.ceil(out, out=out)
    else:
        out[...] = rng.geometric(q, size=len(out))
    return out


def _geometric_positions(
    rng: np.random.Generator, ncells: int, q: float, scratch: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Indices of Bernoulli(q) successes among ``ncells`` cells, via gap skipping.

    Gaps between successive successes are iid Geometric(q), so the expected
    work is O(ncells * q) instead of ncells coin flips.  The gaps are those of
    ``rng.geometric(q)`` and leave ``rng`` in the same state.  For ``q < 1/3``
    numpy draws a geometric variate by inversion, ``ceil(-E / log1p(-q))`` with
    E standard exponential (``random_geometric_inversion`` in numpy's
    ``random/src/distributions/distributions.c``; Devroye 1986, X.2), so a
    batch of exponentials gives the same gaps at a fraction of the cost; from
    ``q = 1/3`` numpy switches to a sequential search, which is kept.  A float64
    prefix sum is exact up to 2^53, so every position inside the grid is exact.

    ``scratch`` is an optional caller-owned (float64, int64) pair of arrays;
    when both hold ``_gap_batch(ncells, q)`` entries, the gaps go into the first
    and the positions returned are a prefix of the second, so nothing is
    allocated unless a rare top-up lengthens the batch.
    """
    if q >= 1.0:
        return np.arange(ncells, dtype=np.int64)
    batch = _gap_batch(ncells, q)
    if scratch is None or min(map(len, scratch)) < batch:
        scratch = np.empty(batch), np.empty(batch, dtype=np.int64)
    gaps, out = scratch
    pos = _draw_gaps(rng, q, gaps[:batch])
    pos[0] -= 1.0  # the first success is at cell gap - 1
    np.add.accumulate(pos, out=pos)  # np.cumsum's sum, without its Python-level dispatch
    while pos[-1] < ncells:  # top-ups after an unlucky first batch are rare
        more = np.add.accumulate(_draw_gaps(rng, q, np.empty(16)))
        more += pos[-1]
        pos = np.concatenate((pos, more))
    # positions increase strictly, so the cells inside the grid are a prefix
    n = int(pos.searchsorted(ncells))
    if n > len(out):
        out = np.empty(n, dtype=np.int64)
    out = out[:n]
    out[...] = pos[:n]
    return out


def _draw_projection_arrays(
    rng: np.random.Generator, k: int, d: int, q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos = _geometric_positions(rng, k * d, q)
    weights = rng.standard_normal(len(pos))
    weights /= math.sqrt(q)
    indptr = np.searchsorted(pos, np.arange(0, (k + 1) * d, d, dtype=np.int64))
    cols = pos & (d - 1) if is_power_of_two(d) else pos % d  # the mask costs a tenth of the division
    return indptr.astype(np.int64, copy=False), cols, weights


def sample_projection(k: int, d: int, q: float, seed: int) -> SparseProjection:
    """Draw the sparse projection P (deterministic per seed).

    Each of the k*d cells is occupied independently with probability q;
    occupied cells carry weight ``standard normal / sqrt(q)``.  Sampling
    skips over empty cells with geometric gaps, so it costs O(nnz)
    expected time rather than O(kd).
    """
    check_size("k", k)
    check_size("d", d)
    check_real("q", q, RATE)
    rng = substream(seed, _PROJECTION_KEY)
    indptr, cols, weights = _draw_projection_arrays(rng, k, d, q)
    return SparseProjection(k=k, d=d, q=float(q), indptr=indptr, cols=cols, weights=weights)


def _project_core(indptr: np.ndarray, cols: np.ndarray, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    csum = np.zeros(len(cols) + 1)
    np.cumsum(weights * v[cols], out=csum[1:])
    bounds = csum[indptr]
    return bounds[1:] - bounds[:-1]


# Largest dense copy of P (k * d float64 cells, 16 MB) that a call may build.
DENSE_PROJECTION_MAX_CELLS = 1 << 21


def _dense_projection_pays(rows: int, nnz: int, cells: int) -> bool:
    """Whether ``rows`` BLAS products with a dense copy of P beat ``rows`` gathers.

    Per row the gather costs about 8 ns per entry and the product 0.04 ns per
    cell; the copy costs 0.4 ns per cell plus 20 ns per entry to build (2-core
    x86, one BLAS thread).  The rule states that in units of one gathered entry.
    When ``rows >= k`` the product also replaces each row's sign, padding and
    FWHT, and the build adds an FWHT of the copy's ``k`` rows (see
    :class:`PhdKernel`): ``rows`` FWHTs saved for ``k`` spent, so there the
    copy pays at least as well as the rule says.
    """
    return cells <= DENSE_PROJECTION_MAX_CELLS and cells * (1 / 20 + rows / 200) + 2.5 * nnz < rows * nnz


class PhdKernel:
    """``k^{-1/2} P H D`` prepared for ``rows`` rows: the one batched kernel of the package.

    Building it is the prepare step: it scales the weights by ``k^{-1/2}`` and
    decides once, on the total row count, how to apply P.  :meth:`apply_chunk`
    is the per-chunk step and :meth:`apply` runs it over a whole set.  A caller
    that streams its rows (CLI ``embed``) prepares once and applies the chunks
    of ``step`` rows from row 0, so every chunk takes the path, and gives the
    bits, of one :meth:`apply` on all rows.  :func:`apply_phd` builds one per
    call and a pairwise trial one per sample.  The arrays are those of a
    :class:`SignDiagonal` and a :class:`SparseProjection`, taken as checked.
    There are three paths:

    * ``rows >= k`` rows that pay for a dense copy of P fold the whole map
      into one ``k x d`` matrix ``M = k^{-1/2} P H D``: the copy's ``k`` rows
      are transformed once (H is symmetric) and its columns signed, so a
      chunk is one BLAS product with the caller's rows, with no padding and
      no per-row FWHT.  Fewer rows than ``k`` transform their own rows for
      less, so the fold stops there;
    * fewer rows that still pay for the copy pad, sign and transform each
      row and multiply by the dense copy of P;
    * the rest gather P's stored entries row by row.

    Each chunk's padded signed rows go into the scratch of the thread that
    applies it (:class:`_ThreadScratch`).  A ``one_shot`` kernel, used for a
    single call and then dropped, builds its dense matrix in the building
    thread's scratch too, so it is valid only until the next one-shot kernel
    is built on that thread.
    """

    def __init__(self, signs, indptr, cols, weights, k: int, rows: int, one_shot: bool = False) -> None:
        d = len(signs)
        self.signs, self.indptr, self.cols, self.k = signs, indptr, cols, k
        self.weights = weights * k**-0.5
        self.step = max(1, _CHUNK_CELLS // d)
        self.M = self.Pt = None
        if _dense_projection_pays(rows, len(cols), k * d):
            cells = np.repeat(np.arange(0, k * d, d), np.diff(indptr))
            cells += cols
            P = _scratch.take(_DENSE_P_SLOT, k * d) if one_shot else np.empty(k * d)
            P.fill(0.0)
            P[cells] = self.weights  # one flat scatter, about half the cost of a 2-d one
            P = P.reshape(k, d)
            if rows >= k:  # P H D: H is symmetric, so it transforms the rows of P
                self.M = _fwht_last_axis(P)
                self.M *= signs
            else:
                self.Pt = P.T

    def apply(self, X: np.ndarray, out: np.ndarray | None = None, workers: int = 1) -> np.ndarray:
        """The embeddings of the rows of ``X[n, d_raw]``, ``d_raw <= d``, written into ``out[n, k]``.

        Rows go in chunks of ``step`` from row 0, on up to ``workers`` threads of
        the process's one pool (:func:`.rng.parallel_map`); chunk boundaries
        depend on the shapes only, so the result is the same at every worker count.
        """
        Y = np.empty((len(X), self.k)) if out is None else out
        step = self.step
        parallel_map(lambda lo: self.apply_chunk(X[lo : lo + step], Y[lo : lo + step]),
                     range(0, len(X), step), workers)
        return Y

    def apply_chunk(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Write the embeddings of the rows of one chunk ``X[n, d_raw]``, ``n <= step``, into ``Y[n, k]``."""
        d_raw = X.shape[1]
        if self.M is not None:  # padded cells are zero, so the padded columns of M drop out
            np.matmul(X, self.M[:, :d_raw].T, out=Y)
            return
        # the zero-padded, signed rows; a padded cell holds 0 * sign, so -0.0
        # under a negative sign, exactly as in a padded copy of the input
        U = _scratch.take(_ROWS_SLOT, len(X) * len(self.signs)).reshape(len(X), -1)
        np.multiply(X, self.signs[:d_raw], out=U[:, :d_raw])
        U[:, d_raw:] = self.signs[d_raw:] * 0.0
        if self.Pt is not None:
            np.matmul(_fwht_last_axis(U), self.Pt, out=Y)
        else:  # row by row: a batched gather is slower per row at large nnz, and one row stays 1-d
            for u, y in zip(U, Y):
                y[...] = _project_core(self.indptr, self.cols, self.weights, _fwht_last_axis(u))


def apply_phd(X: np.ndarray, diag: SignDiagonal, proj: SparseProjection, workers: int = 1) -> np.ndarray:
    """The embeddings ``k^{-1/2} P H D x`` of the rows ``x`` of ``X[n, d]``, as ``Y[n, k]``.

    The kernel first prepares ``(D, P)``: it scales the weights and, when ``n``
    rows pay for it, builds a dense copy of P; when ``n >= k`` it also folds
    ``H`` and ``D`` into the copy (an FWHT of its ``k`` rows), so each row then
    costs one dense ``k x d`` product and no FWHT of its own.  That decision is
    made on the total row count, so a caller streaming rows in batches through
    the same prepared kernel gets the bits of one call on all rows.  It then
    applies the rows in fixed chunks of about 2 MB, spread over ``workers``
    threads of the process's one pool, each keeping its chunk scratch (see
    :class:`PhdKernel`).  The output is bit-identical at every worker count.
    NaN or infinity in ``X`` raises :class:`ParameterError`.
    """
    if not isinstance(X, np.ndarray) or X.ndim != 2 or X.shape[1] != diag.d or diag.d != proj.d:
        raise DimensionError(f"X must be a 2-d array with d={proj.d} columns, matching the diagonal (d={diag.d})")
    if not is_power_of_two(diag.d):
        raise DimensionError(f"d must be a power of two, got {diag.d}")
    if X.dtype != np.float64:
        raise ParameterError(f"X must have dtype float64, got {X.dtype}")
    check_finite("X", X)
    check_size("workers", workers, (1, MAX_WORKERS))
    kernel = PhdKernel(diag.signs, proj.indptr, proj.cols, proj.weights, proj.k, len(X), one_shot=True)
    return kernel.apply(X, workers=workers)


def embed(x: np.ndarray, params: JlParams) -> np.ndarray:
    """The full embedding k^{-1/2} P H D x with (D, P) drawn from params.seed.

    ``x`` must be finite and already have length params.d (callers zero-pad
    to the next power of two beforehand; this layer rejects other lengths so
    the unitary contract of H stays exact).  Bit-identical to ``embed_with``
    applied to ``sample_signs`` / ``sample_projection`` at the same seed,
    but skips building the intermediate structures.
    """
    _check_float_vector(x, "x")
    if x.shape[0] != params.d:
        raise DimensionError(f"length mismatch: x has {x.shape[0]}, params.d is {params.d}")
    signs = _draw_signs(substream(params.seed, _SIGNS_KEY), params.d)
    rng = substream(params.seed, _PROJECTION_KEY)
    indptr, cols, weights = _draw_projection_arrays(rng, params.k, params.d, params.q)
    weights *= params.k**-0.5
    # one row never pays for a dense copy of P (see _dense_projection_pays): the gather
    return _project_core(indptr, cols, weights, _fwht_last_axis(x * signs))


def embed_with(x: np.ndarray, diag: SignDiagonal, proj: SparseProjection) -> np.ndarray:
    """Embed with a pre-sampled (D, P) pair; :func:`apply_phd` embeds many vectors at once."""
    _check_float_vector(x, "x")
    if x.shape[0] != diag.d or diag.d != proj.d:
        raise DimensionError(f"length mismatch: x has {x.shape[0]}, diagonal d={diag.d}, projection d={proj.d}")
    if not is_power_of_two(diag.d):
        raise DimensionError(f"d must be a power of two, got {diag.d}")
    return _project_core(proj.indptr, proj.cols, proj.weights * proj.k**-0.5, _fwht_last_axis(x * diag.signs))


def sample_dense_matrix(k: int, d: int, seed: int) -> np.ndarray:
    """Dense k x d matrix of iid standard Gaussians (deterministic per seed)."""
    check_size("k", k)
    check_size("d", d)
    rng = substream(seed, _DENSE_KEY)
    return rng.standard_normal((k, d))


def dense_embed_reference(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Classical dense Gaussian embedding k^{-1/2} A x (timing/correctness baseline)."""
    _check_float_vector(x, "x")
    A = sample_dense_matrix(k, x.shape[0], seed)
    return (A @ x) * k**-0.5
