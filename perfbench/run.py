"""fastjl benchmark: run the real CLI on one workload and print one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation of ``fastjl.cli.main`` runs in a fresh child process
(``child.py``), one at a time, with its BLAS pool held to one thread.  A
round is the workload's command at ``--workers 1`` and then at
``--workers 2``; whole rounds repeat for about ``--seconds``, and every
invocation's outputs are checked (``workloads.py``).  An operation is one
invocation with its checks: it fails when the child times out or dies
before reporting, and ``correct`` is false when a finished operation's
outputs are wrong.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the run's operations; with ``--trace 1`` a round is an untraced and a
traced invocation at ``--workers 1`` and the result holds the per-layer
metrics of the traced ones (``tracing.py``).  The last line of standard
output is the JSON result; the lines before it repeat the metrics for
people.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 60
# Import time moves by +-20% from one process to the next, so each round adds
# an import-only child to the set-up samples of its invocations.
PROBES_PER_ROUND = 1

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "items_per_s_2w": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "instances.read_s": "s",
    "instances.pad_s": "s",
    "instances.write_s": "s",
    "instances.read_mb": "MB",
    "instances.write_mb": "MB",
    "transform.fwht_s": "s",
    "transform.fwht_rows": "count",
    "transform.fwht_gflops": "GFLOP/s",
    "transform.sample_p_s": "s",
    "transform.sample_p_calls": "count",
    "transform.nnz_sampled": "count",
    "transform.project_s": "s",
    "transform.project_calls": "count",
    "transform.project_nnz": "count",
    "transform.signs_s": "s",
    "transform.signs_calls": "count",
    "rng.substream_s": "s",
    "rng.substream_calls": "count",
    "verify.self_s": "s",
    "verify.zstats_s": "s",
    "verify.oracle_s": "s",
    "verify.trials": "count",
    "verify.blocks": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Op:
    """One CLI invocation and what it reported."""

    workers: int
    traced: bool
    completed: bool
    errors: list
    signature: object = None
    items: int = 0
    setup_s: float = 0.0
    main_s: float = 0.0
    maxrss_kb: int = 0
    layers: dict | None = None


def _child(args: list[str], stats_path: Path, traced: bool):
    """Run child.py; returns (completed process or None on timeout, its stats
    or None, the clock reading just before the start)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "child.py"), str(stats_path), "1" if traced else "0", *args]
    stats_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=WORK, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, None, spawned
    try:
        stats = json.loads(stats_path.read_text())
    except (OSError, ValueError):
        stats = None
    return proc, stats, spawned


def check_op(workload, rc: int, stdout: str, tag: str, previous):
    """The workload's checks, plus: the signature (the output bytes or the
    Monte Carlo counts) repeats ``previous``, the first invocation's."""
    errors, signature, items = workload.check(rc, stdout, tag)
    if previous is not None and signature != previous:
        errors.append(f"{tag}: outputs differ from the first invocation's")
    return errors, signature, items


def probe_setup() -> float | None:
    """Set-up time of a child that only imports ``fastjl.cli``; None if it failed."""
    proc, stats, spawned = _child([], WORK / "probe.stats.json", False)
    if proc is None or proc.returncode != 0 or stats is None:
        return None
    return stats["ready"] - spawned


def run_op(workload, workers: int, traced: bool, previous) -> Op:
    """One checked invocation.  ``previous`` is the signature this one must repeat."""
    tag = f"{'t' if traced else 'u'}{workers}"
    proc, stats, spawned = _child([*workload.args(tag), "--workers", str(workers)],
                                  WORK / f"{tag}.stats.json", traced)
    if proc is None or stats is None or "rc" not in stats:
        detail = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return Op(workers, traced, completed=False, errors=[f"no result ({detail})"])
    errors, signature, items = check_op(workload, stats["rc"], proc.stdout, tag, previous)
    if Path(stats["fastjl"]).resolve().parent.parent != SRC.resolve():
        errors.append(f"imported fastjl from {stats['fastjl']}, not from {SRC}")
    return Op(workers, traced, completed=True, errors=errors, signature=signature, items=items,
              setup_s=stats["ready"] - spawned, main_s=stats["main_s"],
              maxrss_kb=stats["maxrss_kb"], layers=stats.get("layers"))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(ops: list[Op], setups: list[float]) -> dict:
    one = [op for op in ops if op.workers == 1]
    two = [op for op in ops if op.workers == 2]
    return {
        "setup_s": _median(setups),
        "items_per_s": _median(op.items / op.main_s for op in one),
        "items_per_s_2w": _median(op.items / op.main_s for op in two),
        "peak_rss_mb": _median(op.maxrss_kb * 1024 / 1e6 for op in one),
    }


def per_layer(ops: list[Op]) -> dict:
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    values = {name: _median(op.layers.get(name, 0) for op in traced)
              for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (_median(op.main_s for op in traced)
                                  - _median(op.main_s for op in untraced))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fastjl" / "cli.py").is_file():
        print(f"perfbench: no fastjl sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, WORK)
        if probe_setup() is None:  # the first import also compiles the bytecode
            print("perfbench: cannot import fastjl.cli", file=sys.stderr)
            return 2
        plan = [(1, False), (1, True)] if args.trace else [(1, False), (2, False)]
        ops: list[Op] = []
        setups: list[float] = []
        first = None
        start = time.monotonic()
        while True:
            for workers, traced in plan:
                op = run_op(workload, workers, traced, first)
                if first is None and op.completed:
                    first = op.signature
                ops.append(op)
            setups += [op.setup_s for op in ops[-len(plan):] if op.completed]
            setups += [s for s in (probe_setup() for _ in range(PROBES_PER_ROUND)) if s is not None]
            rounds = len(ops) // len(plan)
            elapsed = time.monotonic() - start
            # stop when another round would end nearer past the deadline than this one ends short of it
            if elapsed + elapsed / rounds / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    done = [op for op in ops if op.completed]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for op in ops:
        for error in op.errors:
            print(f"{args.workload} --workers {op.workers}{' traced' if op.traced else ''}: {error}")
    print(f"{args.workload}: seed {args.seed}, {len(ops)} operations, "
          f"{len(ops) - len(done)} failed, {sum(bool(op.errors) for op in done)} with wrong outputs")
    values = per_layer(done) if args.trace else end_to_end(done, setups)
    for name, unit in units.items():
        print(f"  {name:24s} {values[name]:14.6g} {unit}")
    result = {
        "correct": bool(done) and not any(op.errors for op in done),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
