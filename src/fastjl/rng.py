"""Deterministic random streams.

Every stochastic routine in the package derives its generators with
:func:`substream`, which hashes ``(seed, key...)`` through numpy's
``SeedSequence``.  Streams with distinct key paths are statistically
independent and reproducible regardless of the order in which they are
consumed, so Monte Carlo work can be split across workers without
changing any result.

Monte Carlo runs go through :func:`run_trials`, which splits them into
fixed blocks, of ``TRIAL_BLOCK`` trials unless the estimator names a
shorter one; block ``b`` of a run draws everything from
``substream(seed, b)``.  The block size is a constant of the
implementation (never a function of the worker count), which makes
parallel and sequential runs bit-identical.  :func:`runs` cuts blocks or
an embedding's chunks into one contiguous run per worker.  Trial runs fork
(:func:`process_map`), as the trial loops hold the interpreter lock, and
embedding runs take threads (:func:`parallel_map`), as their products
release it; both run item 0 in the caller and outlive no call.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
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


def runs(n: int, workers: int) -> list[range]:
    """``range(n)`` cut into ``min(workers, n)`` contiguous runs of near-equal length, in order."""
    m = min(check_size("workers", workers, (1, MAX_WORKERS)), n)
    return [range(r * n // m, (r + 1) * n // m) for r in range(m)]


def parallel_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``: item 0 on the calling thread, the rest on threads started for this call.

    For work that releases the interpreter lock.  Callers pass runs, so at
    most ``workers`` items, and at most ``workers - 1`` threads start.  Every
    thread has returned when the call returns or raises, a Ctrl-C included;
    when calls fail, the earliest item's error is raised.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(min(workers, len(items)) - 1) as pool:
        futures = [pool.submit(fn, item) for item in items[1:]]
        first = fn(items[0])
    return [first, *(future.result() for future in futures)]


def process_map(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``: item 0 here, each other item in a child made with ``os.fork``.

    For work that holds the interpreter lock.  A child pipes back ``(ok,
    result or exception)`` pickled and leaves with ``os._exit``.  A fork must
    find no other thread alive; while another thread lives, or without
    ``os.fork``, the items go to :func:`parallel_map`.  Every child is reaped
    on every path: the earliest item's error is raised once all have
    returned, and Ctrl-C kills them.
    """
    if workers <= 1 or len(items) <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return parallel_map(fn, items, workers)
    children: list = []  # (pid, read end of its pipe)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # no Ctrl-C between a fork and its append
    try:
        for item in items[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _child(fn, item, read, write, mask)
            os.close(write)
            children.append((pid, open(read, "rb")))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        outcomes = [(True, fn(items[0]))]
        for pid, pipe in children:
            try:
                outcomes.append(pickle.load(pipe))
            except EOFError:  # the child died without a word, e.g. killed for its memory
                outcomes.append((False, ChildProcessError(f"worker process {pid} ended without a result")))
    except KeyboardInterrupt:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # at once, even inside a long numpy call
        raise
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid, pipe in children:
            pipe.close()  # a child still writing gets EPIPE and leaves
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _child(fn: Callable, item, read: int, write: int, mask: set) -> None:
    """In a forked child: restore the signal ``mask``, pipe the pickled outcome of ``fn(item)`` to ``write``, leave."""
    try:
        os.close(read)
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a Ctrl-C pending since the fork lands here
            data = pickle.dumps((True, fn(item)))
        except BaseException as exc:  # the parent raises it
            data = pickle.dumps((False, exc))
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def run_trials(seed: int, trials: int, draw: Callable[[Generator, int], object], workers: int = 1,
               block: int = TRIAL_BLOCK) -> list:
    """``draw(substream(seed, b), count)`` for each block ``b`` of ``block`` trials, in block order.

    ``count`` is ``block`` except in the last block.  The blocks are cut
    into :func:`runs`, one :func:`process_map` item each, so ``draw`` must
    return what pickles.  What block ``b`` draws does not depend on ``workers``.
    """
    check_seed(seed)
    trials, block = check_size("trials", trials), check_size("block", block)

    def run(blocks: range) -> list:
        return [draw(substream(seed, b), min(block, trials - b * block)) for b in blocks]

    return [result for part in process_map(run, runs(-(-trials // block), workers), workers) for result in part]
