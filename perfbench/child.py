"""One CLI invocation, measured: ``python3 child.py STATS TRACE [CLI ARGS...]``.

Imports ``fastjl.cli`` (the set-up every CLI call pays), calls ``main`` on
the remaining arguments and writes a JSON object to STATS:

* ``ready``: ``time.monotonic()`` once ``main`` can be called; the parent
  subtracts its own clock reading taken just before it started this process;
* ``main_s``: wall time of ``main``;
* ``rc``: what ``main`` returned, which is also this process's exit code;
* ``maxrss_kb``: the peak resident set size of this process since it
  started the interpreter (``VmHWM``; ``ru_maxrss`` would also count the
  benchmark process it was spawned from, whose peak it inherits);
* ``layers``: per-layer metrics, when TRACE is 1.

With no CLI arguments it only imports, which compiles and caches the
bytecode before anything is timed.  Only ``sys`` and ``time`` are imported
ahead of ``fastjl.cli``.
"""

import sys
import time

from fastjl.cli import main  # noqa: E402

ready = time.monotonic()


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run() -> int:
    import json

    import fastjl

    stats_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    stats = {"ready": ready, "fastjl": fastjl.__file__}
    if argv:
        tracer = None
        if traced:
            import tracing

            tracer = tracing.install()
        t0 = time.perf_counter()
        if tracer is None:
            rc = main(argv)
        else:
            rc = tracer.call("cli.main", main, argv)
        stats["main_s"] = time.perf_counter() - t0
        stats["rc"] = rc
        if tracer is not None:
            stats["layers"] = tracing.summarize(tracer)
    else:
        rc = 0
    stats["maxrss_kb"] = peak_rss_kb()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run())
