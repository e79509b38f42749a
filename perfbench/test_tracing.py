"""Tests of the span tracer: self time, outermost spans, and absent names.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np

import checks
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_and_outermost_spans():
    tracer = tracing.Tracer()
    # cli.main [0, 10] > transform.embed_with [1, 7] > transform._fwht_last_axis [2, 4]
    #                  > verify.estimate_failure_rate [7, 9] > transform._draw_projection_arrays [7.5, 8.5]
    tracer.spans = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["transform.embed_with", 0, 1.0, 7.0, None],
        ["transform._fwht_last_axis", 1, 2.0, 4.0, {"rows": 3, "d": 1024}],
        ["verify.estimate_failure_rate", 0, 7.0, 9.0, None],
        ["transform._draw_projection_arrays", 3, 7.5, 8.5, {"nnz": 40}],
        ["transform.sample_projection", 0, 9.0, 9.5, {"nnz": 7}],
        ["transform._draw_projection_arrays", 5, 9.1, 9.4, {"nnz": 7}],
    ]
    layers = tracing.summarize(tracer)
    assert layers["cli.self_s"] == 10.0 - 6.0 - 2.0 - 0.5
    assert layers["verify.self_s"] == 1.0
    assert layers["transform.fwht_s"] == 2.0
    assert layers["transform.fwht_rows"] == 3
    # the sampler inside sample_projection is not counted twice
    assert layers["transform.sample_p_calls"] == 2
    assert layers["transform.nnz_sampled"] == 47
    assert layers["transform.sample_p_s"] == 1.0 + 0.5
    assert layers["verify.trials"] == 0


def test_traced_run_completes_when_a_wrapped_name_is_absent(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import fastjl.cli

    saved = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("fastjl.")}
    # as if a later change had renamed the FWHT helper: it is neither found nor wrapped
    hot = tuple(n for n in tracing.HOT["fastjl.transform"] if n != "_fwht_last_axis")
    monkeypatch.setitem(tracing.HOT, "fastjl.transform", ("_fwht_renamed_away", *hot))
    points = tmp_path / "in.fjlv"
    points.write_bytes(checks.fjlv_bytes(np.random.default_rng(0).standard_normal((5, 12))))
    try:
        tracer = tracing.install()
        rc = tracer.call("cli.main", fastjl.cli.main,
                         ["embed", "--in", str(points), "--out", str(tmp_path / "out.fjlv"),
                          "--k", "4", "--q", "0.5", "--seed", "3", "--workers", "1"])
        layers = tracing.summarize(tracer)
    finally:
        for name, namespace in saved.items():
            vars(sys.modules[name]).update(namespace)
    assert rc == 0
    assert layers["transform.fwht_s"] == 0 and layers["transform.fwht_rows"] == 0
    assert layers["transform.project_calls"] == 5
    assert layers["instances.read_mb"] == (18 + 5 * 12 * 8) / 1e6
    assert layers["instances.pad_s"] > 0
