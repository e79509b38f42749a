"""Spans around the calls between fastjl's modules, for the traced runs.

``install()`` rebinds, in the namespace of each calling module, every
function that module imported from another fastjl module (``cli`` calls
into ``instances``, ``transform`` and ``verify``; ``verify`` into
``transform`` and ``rng``; ``transform`` into ``rng``).  A module imported
whole (``from . import verify``) is replaced by a proxy that wraps the
module's functions.  The helpers listed in ``HOT`` are also rebound in
their own module, so that calls inside ``transform`` and ``verify`` (the
FWHT inside ``embed_with``, say) get spans too.  Nothing in ``src/`` is
edited; a name that a later change removes simply yields no span.

A span records its name (``module.function`` of the callee), its parent
span, its start and end, and a few counts taken from its arguments or
result.  Spans stay in memory; ``summarize`` turns them into the per-layer
metrics when the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time
import types

# Helpers rebound inside their own module: the hot layers of the PHD path
# and of the lemma harness, which their callers reach without crossing a
# module boundary.
HOT = {
    "fastjl.transform": ("_fwht_last_axis", "_draw_signs", "_draw_projection_arrays",
                         "_project_core", "apply_signs"),
    "fastjl.verify": ("simulate_z_statistics", "binomial_tail_exact"),
}

# Span name sets behind each per-layer metric.  Only the outermost span of a
# set counts, so a sampler calling a sampler is not counted twice.
FWHT = {"transform._fwht_last_axis", "transform.fwht_inplace"}
SAMPLE_P = {"transform.sample_projection", "transform._draw_projection_arrays"}
PROJECT = {"transform.project", "transform._project_core"}
SIGNS = {"transform.sample_signs", "transform._draw_signs", "transform.apply_signs"}
ORACLES = {"verify.binomial_tail_exact", "verify.reverse_chernoff_check",
           "verify.gaussian_square_tail_check"}


def _rows(a) -> int:
    return a.size // a.shape[-1]


def _materialize_blocks(result):
    blocks = list(result)
    return iter(blocks), {"blocks": len(blocks), "trials": sum(hi - lo for _, lo, hi in blocks)}


# span name -> f(args, result) -> (result, counts)
COUNTERS = {
    "instances.read_vectors": lambda a, r: (r, {"bytes": os.path.getsize(a[0])}),
    "instances.write_vectors": lambda a, r: (r, {"bytes": os.path.getsize(a[0])}),
    "transform._fwht_last_axis": lambda a, r: (r, {"rows": _rows(a[0]), "d": a[0].shape[-1]}),
    "transform.fwht_inplace": lambda a, r: (r, {"rows": 1, "d": a[0].shape[-1]}),
    "transform.sample_projection": lambda a, r: (r, {"nnz": r.nnz}),
    "transform._draw_projection_arrays": lambda a, r: (r, {"nnz": len(r[1])}),
    "transform.project": lambda a, r: (r, {"nnz": a[0].nnz * _rows(a[1])}),
    "transform._project_core": lambda a, r: (r, {"nnz": len(a[1]) * _rows(a[3])}),
    "rng.block_ranges": lambda a, r: _materialize_blocks(r),
}


class Tracer:
    """Spans as ``[name, parent, start, end, counts]`` lists, in start order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            span[3] = time.perf_counter()
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                result, span[4] = counter(args, result)
            except (AttributeError, IndexError, TypeError, OSError):
                pass  # a changed signature loses the counts, not the run
        return result

    def wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


class _ModuleProxy:
    """Stands for a fastjl module imported whole; its functions come back wrapped."""

    def __init__(self, module: types.ModuleType, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer
        self._wrapped: dict = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if isinstance(value, types.FunctionType) and value.__module__ == self._module.__name__:
            if name not in self._wrapped:
                self._wrapped[name] = self._tracer.wrap(value)
            return self._wrapped[name]
        return value


def install() -> Tracer:
    """Rebind the cross-module calls of every loaded fastjl module; return the tracer."""
    tracer = Tracer()
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("fastjl.")]
    patches = []
    for module in modules:
        hot = HOT.get(module.__name__, ())
        for name, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value.__module__.startswith("fastjl."):
                if value.__module__ != module.__name__ or name in hot:
                    patches.append((module, name, tracer.wrap(value)))
            elif isinstance(value, types.ModuleType) and value.__name__.startswith("fastjl."):
                patches.append((module, name, _ModuleProxy(value, tracer)))
    for module, name, replacement in patches:
        setattr(module, name, replacement)
    return tracer


def _fwht_flops(d: int, rows: int, dense_max_d: int) -> float:
    """Operation count the FWHT path implies: 2 d^2 per row for the dense
    product, d log2 d per row for the butterfly."""
    per_row = 2.0 * d * d if d <= dense_max_d else d * math.log2(d)
    return per_row * rows


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced call of ``cli.main``."""
    spans = tracer.spans
    dur = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    for s, t in zip(spans, dur):
        if s[1] >= 0:
            child_time[s[1]] += t
    self_time: dict[str, float] = {}
    for s, t, c in zip(spans, dur, child_time):
        layer = s[0].partition(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + t - c

    def outermost(names: set) -> list[int]:
        picked = []
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            p = s[1]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][1]
            if p < 0:
                picked.append(i)
        return picked

    def total(names: set) -> float:
        return sum(dur[i] for i in outermost(names))

    def count(names: set, key: str) -> int:
        return sum((spans[i][4] or {}).get(key, 0) for i in outermost(names))

    transform = sys.modules.get("fastjl.transform")
    dense_max_d = getattr(transform, "DENSE_FWHT_MAX_D", 0)
    fwht = outermost(FWHT)
    fwht_s = sum(dur[i] for i in fwht)
    flops = sum(_fwht_flops(spans[i][4]["d"], spans[i][4]["rows"], dense_max_d)
                for i in fwht if spans[i][4])
    blocks = {"rng.block_ranges"}
    return {
        "cli.self_s": self_time.get("cli", 0.0),
        "instances.read_s": total({"instances.read_vectors"}),
        "instances.pad_s": total({"instances.pad_to_power_of_two"}),
        "instances.write_s": total({"instances.write_vectors"}),
        "instances.read_mb": count({"instances.read_vectors"}, "bytes") / 1e6,
        "instances.write_mb": count({"instances.write_vectors"}, "bytes") / 1e6,
        "transform.fwht_s": fwht_s,
        "transform.fwht_rows": count(FWHT, "rows"),
        "transform.fwht_gflops": flops / fwht_s / 1e9 if fwht_s > 0 else 0.0,
        "transform.sample_p_s": total(SAMPLE_P),
        "transform.sample_p_calls": len(outermost(SAMPLE_P)),
        "transform.nnz_sampled": count(SAMPLE_P, "nnz"),
        "transform.project_s": total(PROJECT),
        "transform.project_calls": len(outermost(PROJECT)),
        "transform.project_nnz": count(PROJECT, "nnz"),
        "transform.signs_s": total(SIGNS),
        "transform.signs_calls": len(outermost(SIGNS)),
        "rng.substream_s": total({"rng.substream"}),
        "rng.substream_calls": len(outermost({"rng.substream"})),
        "verify.self_s": self_time.get("verify", 0.0),
        "verify.zstats_s": total({"verify.simulate_z_statistics"}),
        "verify.oracle_s": total(ORACLES),
        "verify.trials": count(blocks, "trials"),
        "verify.blocks": count(blocks, "blocks"),
    }
