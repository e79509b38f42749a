"""Deterministic random streams.

Every stochastic routine in the package derives its generators with
:func:`substream`, which hashes ``(seed, key...)`` through numpy's
``SeedSequence``.  Streams with distinct key paths are statistically
independent and reproducible regardless of the order in which they are
consumed, so Monte Carlo work can be split across workers without
changing any result.

Monte Carlo runs go through :func:`run_trials`, which splits them into
fixed blocks of ``TRIAL_BLOCK`` trials; block ``b`` of a run draws
everything from ``substream(seed, b)``.  The block size is a constant of
the implementation (never a function of the worker count), which makes
parallel and sequential runs bit-identical; workers take contiguous runs
of blocks.  A run of one block can still fan out: its trials' verdicts go
to the pool while the block's thread draws their samples in stream order.
"""

from __future__ import annotations

import collections
import functools
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np
# numpy loads numpy.random on first use; every command draws, so load it with the package
from numpy.random import PCG64, Generator, SeedSequence

from .errors import check_size

TRIAL_BLOCK = 4096
MAX_WORKERS = 64


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    return check_size("seed", seed, (0, 2**64 - 1))


def substream(seed: int, *key: int) -> Generator:
    """Generator for the stream identified by ``(seed, *key)``."""
    seq = SeedSequence(check_seed(seed), spawn_key=tuple(map(int, key)))
    # what default_rng(seq) builds, minus its argument dispatch
    return Generator(PCG64(seq))


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed hashed from ``(seed, *key)``, for namespacing experiments."""
    seq = SeedSequence(check_seed(seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


@functools.lru_cache(maxsize=1)
def _pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=workers)


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, inline or on ``workers`` threads of the process's one pool.

    The pool outlives the call, so its threads keep their per-thread scratch.
    Nested calls, made from inside ``fn``, pass ``workers=1``: a pool thread
    that waits on its own pool can deadlock.  When calls fail, the earliest
    item's error is raised, and only once every call started has returned.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    pool = _pool(workers)
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]


def _fan_out(verdict: Callable, samples, workers: int) -> list:
    """``[verdict(s) for s in samples]``: samples drawn here, in order, verdicts on the pool.

    At most ``2 * workers`` verdicts are in flight, so the samples held at
    once stay few; a sample is drawn only after the oldest verdict beyond
    that bound has returned.
    """
    pool, pending, out = _pool(workers), collections.deque(), []
    for sample in samples:
        pending.append(pool.submit(verdict, sample))
        if len(pending) == 2 * workers:
            out.append(pending.popleft().result())
    return out + [future.result() for future in pending]


def run_trials(seed: int, trials: int, draw: Callable[[Generator, int], object], workers: int = 1,
               verdict: Callable | None = None) -> list:
    """``draw(substream(seed, b), count)`` for each block ``b`` of ``TRIAL_BLOCK`` trials, in block order.

    ``count`` is ``TRIAL_BLOCK`` except in the last block.  The blocks are cut
    into ``min(workers, blocks)`` contiguous runs of near-equal length, one
    pool task each, so a worker takes one hand-off per run, not per block; a
    run of no more blocks than workers has one task per block.  What block
    ``b`` draws does not depend on ``workers``.

    With ``verdict``, ``draw`` yields one sample per trial and block ``b``
    gives the list ``[verdict(s) for s in draw(substream(seed, b), count)]``.
    A run of one block at ``workers > 1`` then fans out inside the block: the
    calling thread draws the samples in trial order, and the verdicts go to
    the pool (:func:`_fan_out`).  Blocks on pool threads judge their samples
    inline, since a pool thread that waits on its own pool can deadlock.  So
    ``verdict`` must be a pure function of its sample, and the results are
    the same at every worker count.
    """
    check_seed(seed)
    blocks = -(-check_size("trials", trials) // TRIAL_BLOCK)
    runs = max(1, min(check_size("workers", workers, (1, MAX_WORKERS)), blocks))
    if verdict is not None:
        samples = draw
        if runs == 1 and workers > 1:
            def draw(rng, count):
                return _fan_out(verdict, samples(rng, count), workers)
        else:
            def draw(rng, count):
                return [verdict(sample) for sample in samples(rng, count)]

    def run(r: int) -> list:
        return [draw(substream(seed, b), min(TRIAL_BLOCK, trials - b * TRIAL_BLOCK))
                for b in range(r * blocks // runs, (r + 1) * blocks // runs)]

    return [result for part in parallel_map(run, range(runs), workers) for result in part]
