import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastjl import (
    DomainError,
    ParameterError,
    apply_phd,
    embed_with,
    read_vectors,
    sample_projection,
    sample_signs,
    write_vectors,
)
from fastjl import cli, instances, verify
from fastjl.cli import RunConfig, execute, main, parse_config
from fastjl.rng import MAX_WORKERS, TRIAL_BLOCK
from fastjl.sparsity import q_theorem1
from fastjl.transform import _CHUNK_CELLS, PhdKernel
from helpers import CallLog, write_fjlv_unchecked


def make_dataset(path, n=6, d=20, seed=0):
    rng = np.random.default_rng(seed)
    write_vectors(path, rng.standard_normal((n, d)))


class TestParseConfig:
    def test_embed_example_maps_flags(self, tmp_path):
        src = tmp_path / "x.fjlv"
        make_dataset(src)
        cfg = parse_config(
            ["embed", "--in", str(src), "--out", str(tmp_path / "y.fjlv"),
             "--eps", "0.1", "--n", "1000000", "--scheduler", "theorem1", "--seed", "7"]
        )
        assert cfg.command == "embed"
        assert cfg.scheduler == "theorem1"
        assert cfg.seed == 7
        assert cfg.eps == 0.1 and cfg.n == 1e6

    def test_q_and_scheduler_conflict(self, tmp_path):
        src = tmp_path / "x.fjlv"
        make_dataset(src)
        with pytest.raises(ParameterError, match="conflicting"):
            parse_config(["embed", "--in", str(src), "--out", str(tmp_path / "y.fjlv"),
                          "--q", "0.01", "--scheduler", "ac"])

    def test_config_file_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# experiment defaults\ntrials=10000\ndelta=0.05\neps=0.25\nd=1024\n")
        cfg = parse_config(
            ["verify-lower", "--config", str(conf), "--trials", "500",
             "--report", str(tmp_path / "r.jsonl")]
        )
        assert cfg.trials == 500       # flag wins
        assert cfg.delta == 0.05       # config fills the rest
        assert cfg.eps == 0.25 and cfg.d == 1024

    @pytest.mark.parametrize("in_key, out_key", [("in", "out"), ("in_path", "out_path")])
    def test_config_file_path_keys(self, tmp_path, in_key, out_key):
        # a key is the flag's name without its dashes or the field's (echoed) name
        src = tmp_path / "x.fjlv"
        make_dataset(src)
        conf = tmp_path / "run.conf"
        conf.write_text(f"{in_key}={src}\n{out_key}={tmp_path / 'y.fjlv'}\nq=0.1\nk=4\n")
        cfg = parse_config(["embed", "--config", str(conf)])
        assert cfg.in_path == str(src) and cfg.out_path == str(tmp_path / "y.fjlv")

    def test_config_key_c3_by_flag_or_field_name(self, tmp_path):
        # C3= was rejected as an unknown key; only big_c3= worked
        reports = []
        for how in ("C3=3.0\n", "big_c3=3.0\n", None):
            conf, report = tmp_path / "run.conf", tmp_path / f"r{len(reports)}.jsonl"
            conf.write_text(how or "")
            flag = [] if how else ["--C3", "3.0"]
            assert main(["verify-lemmas", "--config", str(conf), *flag, "--trials", "500", "--seed", "2",
                         "--workers", "1", "--report", str(report)]) == 1
            records = [json.loads(line) for line in report.read_text().splitlines()]
            for r in records:
                r.pop("wall_time_ms", None)
                assert r["params"]["config"].pop("report") == str(report)
                assert r["params"]["config"]["big_c3"] == 3.0
            reports.append(records)
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus=1\n")
        with pytest.raises(ParameterError, match="bogus"):
            parse_config(["verify-lemmas", "--config", str(conf),
                          "--report", str(tmp_path / "r.jsonl")])

    def test_unknown_flag_exits_2(self):
        assert main(["verify-lemmas", "--report", "r.jsonl", "--bogus", "1"]) == 2

    def test_missing_required_parameter(self, tmp_path):
        with pytest.raises(ParameterError, match="--report"):
            parse_config(["verify-lower", "--eps", "0.25", "--delta", "0.05", "--d", "1024"])

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FASTJL_SEED", "99")
        cfg = parse_config(["verify-lemmas", "--report", str(tmp_path / "r.jsonl")])
        assert cfg.seed == 99

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FASTJL_SEED", "twelve")
        code = main(["verify-lemmas", "--report", str(tmp_path / "r.jsonl")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "FASTJL_SEED" in err[0]

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["verify-lemmas", "--config", str(missing), "--report", str(tmp_path / "r.jsonl")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "nope.cfg" in err[0]

    def test_nonexistent_input_exits_2(self, tmp_path):
        code = main(["embed", "--in", str(tmp_path / "missing.fjlv"),
                     "--out", str(tmp_path / "y.fjlv"), "--q", "0.1", "--k", "4"])
        assert code == 2

    def test_missing_output_directory_rejected(self, tmp_path):
        src = tmp_path / "x.fjlv"
        make_dataset(src)
        code = main(["embed", "--in", str(src),
                     "--out", str(tmp_path / "nodir" / "y.fjlv"), "--q", "0.1", "--k", "4"])
        assert code == 2

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        src = tmp_path / "x.fjlv"
        make_dataset(src)
        out = tmp_path / "y.fjlv"
        runs = (
            ["embed", "--in", str(src), "--out", str(out), "--q", "0.1", "--k", "4"],
            ["verify-upper", "--d", "64", "--k", "8", "--eps", "0.5", "--q", "0.1", "--trials", "10",
             "--report", str(tmp_path / "r.jsonl")],
        )
        for argv in runs:
            assert main([*argv, "--workers", workers]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("fastjl: error:") and "--workers" in err[0]
        assert not out.exists() and not (tmp_path / "r.jsonl").exists()

    def test_workers_above_max_exit_2(self, tmp_path, capsys):
        # rejected while parsing, so no thread is ever asked for
        argv = ["verify-upper", "--d", "64", "--k", "8", "--eps", "0.5", "--q", "0.1", "--trials", "10",
                "--report", str(tmp_path / "r.jsonl"), "--workers", "100000"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and f"[1, {MAX_WORKERS}]" in err[0]
        assert not (tmp_path / "r.jsonl").exists()
        assert parse_config([*argv[:-1], str(MAX_WORKERS)]).workers == MAX_WORKERS

    def test_default_workers_capped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1000)
        cfg = parse_config(["verify-lemmas", "--report", str(tmp_path / "r.jsonl")])
        assert cfg.workers == MAX_WORKERS

    def test_workers_below_one_in_config_file_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("workers=0\n")
        code = main(["verify-lemmas", "--config", str(conf), "--report", str(tmp_path / "r.jsonl")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "--workers" in err[0]
        with pytest.raises(ParameterError, match="workers"):
            parse_config(["verify-lemmas", "--config", str(conf), "--report", str(tmp_path / "r.jsonl")])
        # a flag of 1 or more still wins over the file
        cfg = parse_config(["verify-lemmas", "--config", str(conf), "--workers", "1",
                            "--report", str(tmp_path / "r.jsonl")])
        assert cfg.workers == 1


class TestEmbedCommand:
    def test_embeds_and_pads(self, tmp_path, capsys):
        src, dst = tmp_path / "x.csv", tmp_path / "y.csv"
        make_dataset(src, n=5, d=20)
        code = main(["embed", "--in", str(src), "--out", str(dst),
                     "--eps", "0.25", "--n", "1000", "--scheduler", "theorem1",
                     "--k", "8", "--seed", "3"])
        assert code == 0
        assert read_vectors(dst).shape == (5, 8)
        log = capsys.readouterr().out
        assert "d=32" in log  # 20 padded to 32
        assert repr(q_theorem1(0.25, 1000, 32)) in log

    def test_deterministic_output(self, tmp_path):
        src = tmp_path / "x.fjlv"
        make_dataset(src, n=4, d=16)
        argv = ["embed", "--in", str(src), "--out", "", "--q", "0.3", "--k", "6", "--seed", "5"]
        out1, out2 = tmp_path / "a.fjlv", tmp_path / "b.fjlv"
        argv1 = argv.copy(); argv1[4] = str(out1)
        argv2 = argv.copy(); argv2[4] = str(out2)
        assert main(argv1) == 0 and main(argv2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_output(self, tmp_path):
        # 600 rows at d=1024 run as three row chunks
        src = tmp_path / "x.fjlv"
        pts = np.random.default_rng(2).standard_normal((600, 1000))
        write_vectors(src, pts)
        outs = []
        for workers in ("1", "2"):
            dst = tmp_path / f"y{workers}.fjlv"
            assert main(["embed", "--in", str(src), "--out", str(dst), "--q", "0.05", "--k", "32",
                         "--seed", "6", "--workers", workers]) == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]
        diag, proj = sample_signs(1024, 6), sample_projection(32, 1024, 0.05, 6)
        padded = np.zeros((600, 1024))
        padded[:, :1000] = pts
        emb = read_vectors(tmp_path / "y1.fjlv")
        for i in (0, 255, 256, 599):
            assert np.abs(emb[i] - embed_with(padded[i], diag, proj)).max() < 1e-12

    def test_non_finite_input_exits_2(self, tmp_path, capsys):
        src, dst = tmp_path / "x.csv", tmp_path / "y.csv"
        src.write_text("1,2,3\nnan,1,inf\n")
        assert main(["embed", "--in", str(src), "--out", str(dst), "--q", "0.5", "--k", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "row 2" in err[0]
        assert not dst.exists()

    def test_preserves_distances_roughly(self, tmp_path):
        # with k = d and q = 1 the embedding is a dense Gaussian JL map
        src, dst = tmp_path / "x.fjlv", tmp_path / "y.fjlv"
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((8, 256))
        write_vectors(src, pts)
        assert main(["embed", "--in", str(src), "--out", str(dst),
                     "--q", "1.0", "--k", "256", "--seed", "11"]) == 0
        emb = read_vectors(dst)
        for i in range(4):
            for j in range(i + 1, 4):
                true = np.linalg.norm(pts[i] - pts[j])
                got = np.linalg.norm(emb[i] - emb[j])
                assert abs(got / true - 1.0) < 0.5


STEP = _CHUNK_CELLS // 1024  # rows per kernel chunk at the padded d = 1024


def whole_file_embedding(src, dst, k, q, seed):
    """Write what one kernel call over all rows of the input, as read, gives.

    From k rows on, the kernel multiplies the rows by the first d_raw columns of
    its folded matrix, so for d_raw < d its bits may differ from apply_phd on the
    zero-padded rows, which sums over d columns; the two agree to rounding.
    """
    raw = read_vectors(src)
    d = 1 << (raw.shape[1] - 1).bit_length()
    padded = np.zeros((len(raw), d))
    padded[:, : raw.shape[1]] = raw
    diag, proj = sample_signs(d, seed), sample_projection(k, d, q, seed)
    Y = PhdKernel(diag.signs, proj.indptr, proj.cols, proj.weights, k, len(raw)).apply(raw)
    assert np.abs(Y - apply_phd(padded, diag, proj)).max(initial=0.0) < 1e-12
    write_vectors(dst, Y)


class TestStreamedEmbed:
    """CLI embed cuts the kernel chunks into contiguous runs; each worker reads, embeds and writes its own."""

    def run(self, src, dst, workers):
        return main(["embed", "--in", str(src), "--out", str(dst), "--q", "0.05", "--k", "32",
                     "--seed", "9", "--workers", workers])

    def check(self, tmp_path, rows, d_raw, workers, src_suffix, dst_suffix):
        src, dst, ref = tmp_path / f"x{src_suffix}", tmp_path / f"y{dst_suffix}", tmp_path / f"r{dst_suffix}"
        X = np.random.default_rng(rows).standard_normal((rows, d_raw))
        X[:1] = 0.0  # an all-zero row: its output zeros must carry the reference's signs
        write_vectors(src, X)
        assert self.run(src, dst, workers) == 0
        whole_file_embedding(src, ref, 32, 0.05, 9)
        assert dst.read_bytes() == ref.read_bytes()

    # 1 row takes the gather, the others fold (D, P) into a dense copy of P; 4 * STEP + 3 rows
    # are 5 chunks, so 2 and 3 workers each take runs of more than one chunk
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("d_raw", [1000, 1024])
    @pytest.mark.parametrize("rows", [0, 1, STEP - 1, STEP, STEP + 1, 4 * STEP + 3])
    def test_matches_one_whole_file_call(self, tmp_path, rows, d_raw, workers):
        self.check(tmp_path, rows, d_raw, workers, ".fjlv", ".fjlv")

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("src_suffix, dst_suffix", [(".csv", ".fjlv"), (".fjlv", ".csv")])
    def test_format_pairs(self, tmp_path, src_suffix, dst_suffix, workers):
        self.check(tmp_path, 2 * STEP + 5, 1000, workers, src_suffix, dst_suffix)

    # a .csv output is one run, written chunk by chunk in row order; one of no rows is refused (below)
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("rows", [1, STEP, 4 * STEP + 3])
    def test_csv_output_matches_one_whole_file_call(self, tmp_path, rows, workers):
        self.check(tmp_path, rows, 1000, workers, ".fjlv", ".csv")

    def check_rejected(self, tmp_path, capsys, workers, row, dst_suffix=".fjlv"):
        src, dst = tmp_path / "x.fjlv", tmp_path / f"y{dst_suffix}"
        dst.write_bytes(b"an earlier output")
        assert self.run(src, dst, workers) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and f"row {row} " in err[0]
        assert dst.read_bytes() == b"an earlier output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.fjlv", dst.name]

    def test_non_finite_row_in_the_last_block(self, tmp_path, capsys):
        rows = 2 * STEP + 10
        X = np.random.default_rng(3).standard_normal((rows, 1000))
        X[-1, 7] = np.nan
        write_fjlv_unchecked(tmp_path / "x.fjlv", X)
        self.check_rejected(tmp_path, capsys, "1", rows)

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_non_finite_rows_in_two_runs_report_the_earlier(self, tmp_path, capsys, workers):
        # 5 chunks: rows 300 and 900 fall in runs 0 and 1 at 2 workers, runs 1 and 2 at 3
        X = np.random.default_rng(4).standard_normal((4 * STEP + 3, 1000))
        X[300, 5], X[900, 9] = np.inf, np.nan
        write_fjlv_unchecked(tmp_path / "x.fjlv", X)
        self.check_rejected(tmp_path, capsys, workers, 301)

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_non_finite_rows_with_a_csv_output_report_the_earlier(self, tmp_path, capsys, workers):
        # rows 300 and 900 lie in chunks 1 and 3 of the one .csv run
        X = np.random.default_rng(4).standard_normal((4 * STEP + 3, 1000))
        X[300, 5], X[900, 9] = np.inf, np.nan
        write_fjlv_unchecked(tmp_path / "x.fjlv", X)
        self.check_rejected(tmp_path, capsys, workers, 301, ".csv")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("dst_suffix", [".fjlv", ".csv"])
    def test_rows_whose_embedding_overflows_are_not_written(self, tmp_path, capsys, dst_suffix, workers):
        # finite rows of 1.7e308 in the last of 3 chunks (run 1 at 2 workers) embed to inf or NaN,
        # which no reader takes; numpy's overflow warning, as an error here, would be a traceback
        step = _CHUNK_CELLS // 8
        X = np.random.default_rng(7).standard_normal((2 * step + 300, 8))
        X[2 * step :] = 1.7e308
        src, dst = tmp_path / "x.fjlv", tmp_path / f"y{dst_suffix}"
        write_vectors(src, X)
        dst.write_bytes(b"an earlier output")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["embed", "--in", str(src), "--out", str(dst), "--k", "4", "--q", "1", "--seed", "1",
                         "--workers", workers])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and f"row {2 * step + 1} " in err[0]
        assert dst.read_bytes() == b"an earlier output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.fjlv", dst.name]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_no_rows_to_a_csv_output_are_refused(self, tmp_path, capsys, workers):
        # such a .csv output used to be written empty, and then read_vectors refused it as an empty file
        src, dst = tmp_path / "x.fjlv", tmp_path / "y.csv"
        write_vectors(src, np.empty((0, 8)))
        dst.write_bytes(b"an earlier output")
        code = main(["embed", "--in", str(src), "--out", str(dst), "--k", "4", "--q", "0.5", "--workers", workers])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "no rows" in err[0]
        assert dst.read_bytes() == b"an earlier output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.fjlv", "y.csv"]

    def test_no_write_after_an_earlier_run_fails(self, tmp_path, capsys, monkeypatch):
        # run 0 fails on its first chunk only once run 1 is inside a write, which then
        # takes 0.2 s: that write must land before the output is closed and main returns
        X = np.random.default_rng(5).standard_normal((4 * STEP + 3, 1000))
        X[5, 0] = np.nan
        write_fjlv_unchecked(tmp_path / "x.fjlv", X)
        writing, writes = threading.Event(), []
        check_finite, pwrite = instances._check_finite, os.pwrite

        def slow_pwrite(fd, data, offset):
            if offset > 0:  # a payload write; the header goes first, at offset 0
                writing.set()
                time.sleep(0.2)
                writes.append(time.perf_counter())
            return pwrite(fd, data, offset)

        def late_check_finite(path, rows, first):
            if first == 0:
                assert writing.wait(10)
            check_finite(path, rows, first)

        monkeypatch.setattr(os, "pwrite", slow_pwrite)
        monkeypatch.setattr(instances, "_check_finite", late_check_finite)
        self.check_rejected(tmp_path, capsys, "2", 6)
        returned = time.perf_counter()
        time.sleep(0.5)  # a write still running would append its time here
        assert writes and max(writes) < returned

    def test_truncated_payload_rejected_before_any_output(self, tmp_path, capsys, monkeypatch):
        src, dst = tmp_path / "x.fjlv", tmp_path / "y.fjlv"
        make_dataset(src, n=6, d=20)
        src.write_bytes(src.read_bytes()[:-8])
        opened = []
        monkeypatch.setattr(cli, "vector_writer", lambda *args: opened.append(args))
        assert self.run(src, dst, "1") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "row 6" in err[0]
        assert opened == [] and not dst.exists()

    def test_no_thread_outlives_the_command(self, tmp_path, monkeypatch):
        # 5 chunks over 2 workers: run 0 (chunks 0-1) on the calling thread, run 1 (chunks 2-4) on
        # a thread started for the call, which has returned when main does
        threads, read_rows = {}, instances.VectorReader.read_rows

        def logged(reader, first, out):
            threads[first // STEP] = threading.get_ident()
            return read_rows(reader, first, out)

        monkeypatch.setattr(instances.VectorReader, "read_rows", logged)
        write_vectors(tmp_path / "x.fjlv", np.random.default_rng(6).standard_normal((4 * STEP + 3, 1000)))
        assert self.run(tmp_path / "x.fjlv", tmp_path / "y.fjlv", "2") == 0
        here = threading.get_ident()
        assert [threads[c] == here for c in range(5)] == [True, True, False, False, False]
        assert len(set(threads.values())) == 2 and threading.active_count() == 1

    def test_traced_memory_does_not_grow_with_the_file(self, tmp_path):
        # tracemalloc sees numpy's buffers; the larger input holds 4x the rows
        for workers in ("1", "2"):
            peaks = []
            for rows in (1000, 4000):
                src = tmp_path / f"x{rows}.fjlv"
                X = np.random.default_rng(rows).standard_normal((rows, 1000))
                write_vectors(src, X)
                del X
                tracemalloc.start()
                try:
                    assert self.run(src, tmp_path / "y.fjlv", workers) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] < 2 << 20
            assert peaks[1] < src.stat().st_size / 4


class TestVerifyUpperCommand:
    def test_report_round_trip(self, tmp_path):
        report = tmp_path / "upper.jsonl"
        code = main(["verify-upper", "--d", "64", "--eps", "0.3", "--k", "32",
                     "--q", "0.5", "--trials", "2000", "--seed", "8",
                     "--report", str(report), "--workers", "2"])
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == 1
        (rec,) = records
        assert rec["experiment"] == "failure_rate"
        assert rec["successes"] / rec["trials"] == rec["p_hat"]
        assert rec["params"]["config"]["command"] == "verify-upper"
        assert 0.0 <= rec["wilson_lo"] <= rec["p_hat"] <= rec["wilson_hi"] <= 1.0

    @pytest.mark.parametrize("flags, flag", [
        (["--scheduler", "theorem1", "--n", "nan"], "--n"),   # ValueError traceback, exit 1
        (["--scheduler", "theorem1", "--n", "inf"], "--n"),   # OverflowError traceback, exit 1
        (["--scheduler", "theorem1", "--n", "64", "--c-q", "inf"], "--c-q"),  # ran with q clamped to 1
        (["--q", "0.5", "--n", "64", "--coord-c", "nan"], "--coord-c"),  # wrote threshold_c NaN
    ])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flags, flag):
        report = tmp_path / "upper.jsonl"
        code = main(["verify-upper", "--d", "64", "--eps", "0.3", "--trials", "10",
                     "--report", str(report), *flags])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and flag in err[0] and "finite" in err[0]
        assert not report.exists()

    @pytest.mark.parametrize("argv", [
        # OverflowError traceback in q_ailon_chazelle, exit 1
        ["verify-upper", "--eps", "0.5", "--n", "10", "--scheduler", "ac", "--trials", "10"],
        # OverflowError traceback in q_lower_threshold, exit 1
        ["verify-lower", "--eps", "0.25", "--delta", "0.05"],
    ])
    def test_huge_d_exits_2(self, tmp_path, capsys, argv):
        report = tmp_path / "r.jsonl"
        code = main([*argv, "--d", str(2**1100), "--report", str(report)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "d must be" in err[0]
        assert not report.exists()

    def test_pairwise_and_coord_records(self, tmp_path):
        src = tmp_path / "pts.fjlv"
        make_dataset(src, n=5, d=32)
        report = tmp_path / "upper.jsonl"
        code = main(["verify-upper", "--d", "32", "--eps", "0.9", "--k", "16",
                     "--q", "1.0", "--trials", "200", "--seed", "8", "--pairwise",
                     "--in", str(src), "--coord-c", "4.0", "--n", "100",
                     "--report", str(report)])
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["experiment"] for r in records] == ["pairwise_failure_rate", "coord_exceedance"]

    # records first written when the CLI still padded the points to 256 columns itself, with
    # the counts of blocks of 16 trials from a dense oracle (scipy's Hadamard matrix times the
    # densified P); the sha256 covers the whole record but wall_time_ms and the two echoed paths
    @pytest.mark.parametrize(
        "seed,successes,digest",
        [(11, 63, "fd137f05735333a0"), (12, 74, "50f771372a38ebc4"), (13, 78, "73e648c03a32c5b9")],
    )
    def test_pairwise_record_on_raw_200_columns_is_pinned(self, tmp_path, seed, successes, digest):
        src, report = tmp_path / "pts.fjlv", tmp_path / "upper.jsonl"
        write_vectors(src, np.random.default_rng(2024).standard_normal((40, 200)))
        for workers in (1, 2, 3):  # the same record, but for the echoed --workers
            assert main(["verify-upper", "--d", "256", "--eps", "0.7", "--k", "64", "--q", "0.1",
                         "--trials", "200", "--pairwise", "--in", str(src), "--report", str(report),
                         "--seed", str(seed), "--workers", str(workers)]) == 0
            (record,) = [json.loads(line) for line in report.read_text().splitlines()]
            del record["wall_time_ms"], record["params"]["config"]["in_path"], record["params"]["config"]["report"]
            assert record["params"]["config"]["workers"] == workers
            record["params"]["config"]["workers"] = 1
            assert record["successes"] == successes
            assert hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("d_raw,d", [(200, 128), (200, 512), (128, 256)])
    def test_pairwise_d_must_be_the_padded_width(self, tmp_path, capsys, d_raw, d):
        src, report = tmp_path / "pts.fjlv", tmp_path / "upper.jsonl"
        make_dataset(src, n=5, d=d_raw)
        assert main(["verify-upper", "--d", str(d), "--eps", "0.5", "--k", "16", "--q", "0.5",
                     "--pairwise", "--in", str(src), "--report", str(report)]) == 2
        padded = 1 << (d_raw - 1).bit_length()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"fastjl: error: --d {d} disagrees with padded input dimension {padded}"]
        assert not report.exists()


class TestVerifyLemmasCommand:
    def test_default_grid_reports_known_counterexamples(self, tmp_path):
        report = tmp_path / "lemmas.jsonl"
        # small trial count: the FAIL verdicts come from exact arithmetic
        code = main(["verify-lemmas", "--trials", "2000", "--seed", "1",
                     "--report", str(report), "--workers", "4"])
        records = [json.loads(line) for line in report.read_text().splitlines()]
        failing = [r for r in records if r.get("verdict") == "FAIL"]
        # the multiplicative reverse-Chernoff form is falsified at qr = 0.2
        assert code == 1
        assert {r["experiment"] for r in failing} == {"reverse_chernoff"}
        assert sorted((r["params"]["r"], r["params"]["q"], r["params"]["alpha"]) for r in failing) == [
            (4, 0.05, 0.0), (4, 0.05, 0.25), (4, 0.05, 0.5)
        ]
        # every simulated bound check passes or is vacuous
        lemma_records = [r for r in records if r["experiment"].startswith("lemma_bound:")]
        assert lemma_records and all(r["verdict"] in ("PASS", "VACUOUS") for r in lemma_records)
        mgf = [r for r in records if r["experiment"] == "subexponential_mgf_premise"]
        assert len(mgf) == 1 and mgf[0]["verdict"] == "PASS"

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_successes_are_pinned(self, tmp_path, workers):
        # sha256 of [(experiment, successes)] over the whole report: every Monte Carlo count
        # at this seed, which must not depend on --workers
        report = tmp_path / "lemmas.jsonl"
        assert main(["verify-lemmas", "--trials", "5000", "--seed", "11", "--workers", workers,
                     "--report", str(report)]) == 1
        pairs = [(r["experiment"], r.get("successes")) for r in map(json.loads, report.read_text().splitlines())]
        digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
        assert digest == "709c68b4a330bb601fd437eb9bdfb98fb7ebc0e9c386e7ace1ad0b81a634063d"

    def test_records_do_not_depend_on_workers(self, tmp_path):
        # grid points go over the pool, and every other Monte Carlo check splits its blocks
        report = tmp_path / "lemmas.jsonl"
        runs = []
        for workers in ("1", "2", "3"):
            assert main(["verify-lemmas", "--trials", "3000", "--seed", "5", "--workers", workers,
                         "--report", str(report)]) == 1
            records = [json.loads(line) for line in report.read_text().splitlines()]
            for r in records:
                r.pop("wall_time_ms", None)
                assert r["params"]["config"].pop("workers") == int(workers)
            runs.append(records)
        assert len(runs[0]) == 186 and runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("flag", ["--c3", "--C3"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_chi_square_constant_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, flag, value):
        def no_work(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli.lemmas, "run_bound_check", no_work)
        report = tmp_path / "lemmas.jsonl"
        code = main(["verify-lemmas", flag, value, "--report", str(report)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and flag in err[0]
        assert not report.exists()


class TestVerifyLowerCommand:
    def test_expected_failure_demonstration_exits_zero(self, tmp_path):
        report = tmp_path / "lower.jsonl"
        code = main(["verify-lower", "--eps", "0.25", "--delta", "0.05", "--d", "1024",
                     "--trials", "3000", "--seed", "2", "--report", str(report),
                     "--compare-threshold"])
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(records) == 2
        witness, reference = records
        assert witness["p_hat"] > reference["p_hat"]  # sparser q fails more
        assert witness["failure_gap_vs_threshold"] > 1.0
        assert witness["mechanism_fraction_dominant"] >= witness["mechanism_fraction_first"]

    def test_total_mass_record(self, tmp_path):
        report = tmp_path / "lower.jsonl"
        code = main(["verify-lower", "--eps", "0.25", "--delta", "0.001", "--d", "1024",
                     "--q", "0.01", "--trials", "3000", "--seed", "3",
                     "--report", str(report), "--total-mass"])
        assert code == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert records[-1]["experiment"] == "total_mass_deviation"

    @pytest.mark.parametrize("value", ["0", "-0.0", "-2"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_q_divisor_not_positive_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, source, value):
        # --q-divisor 0 raised ZeroDivisionError: a traceback and exit 1
        def no_work(*args, **kwargs):
            raise AssertionError("the witness ran")

        monkeypatch.setattr(cli.verify, "lower_bound_witness", no_work)
        conf, report = tmp_path / "run.conf", tmp_path / "lower.jsonl"
        conf.write_text(f"q-divisor={value}\n" if source == "config" else "")
        flag = ["--q-divisor", value] if source == "flag" else []
        code = main(["verify-lower", "--config", str(conf), "--eps", "0.25", "--delta", "0.05", "--d", "256",
                     *flag, "--report", str(report)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("fastjl: error: --q-divisor must be in (0, inf)")
        assert not report.exists()


class TestBenchCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--d", "256", "--k", "32", "--q", "0.05",
                     "--reps", "3", "--seed", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "method,d,k,q,nnz,reps,median_ns,setup_ns"
        assert len(lines) == 5  # echo + header + three methods

    def test_method_aliases(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--methods", "dense,new", "--d", "128", "--k", "16",
                     "--q", "0.1", "--reps", "3", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["Dense", "FastJL_New"]

    def test_unknown_method_exits_2(self, tmp_path):
        assert main(["bench", "--methods", "warp", "--d", "64", "--k", "8",
                     "--q", "0.1", "--out", str(tmp_path / "b.csv")]) == 2

    @pytest.mark.parametrize("d, q, message", [
        ("64", "0", "q must be in (0, 1]"),
        ("12", "0.1", "FastJL_AC needs d a power of two, got 12"),  # was numpy's matmul ValueError, exit 1
    ])
    def test_bad_q_or_d_exits_2(self, tmp_path, capsys, d, q, message):
        out = tmp_path / "b.csv"
        assert main(["bench", "--d", d, "--k", "8", "--q", q, "--reps", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and message in err[0]
        assert not out.exists()

    def test_parallel_apply_flag_is_gone(self, tmp_path, capsys):
        assert main(["bench", "--d", "64", "--k", "8", "--q", "0.1", "--parallel-apply", "2",
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "--parallel-apply" in capsys.readouterr().err

    def test_parallel_apply_config_key_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("parallel_apply=2\n")
        assert main(["bench", "--config", str(cfg), "--d", "64", "--k", "8", "--q", "0.1",
                     "--out", str(tmp_path / "b.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("fastjl: error:") and "parallel_apply" in err[0]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def _report_digest(path: Path) -> str:
    """sha256 of a report, or a bench CSV, in its own key order, without what differs between runs.

    Gone are ``wall_time_ms``, the echoed paths and bench's two time columns.
    """
    lines = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            lines.append(json.dumps(json.loads(line[2:]) | {"out_path": "<out>"}))
        elif line.startswith("{"):
            record = json.loads(line)
            record.pop("wall_time_ms", None)
            echo = record["params"]["config"]
            for key in ("in_path", "report"):
                if key in echo:
                    echo[key] = f"<{key}>"
            lines.append(json.dumps(record))
        else:
            lines.append(",".join(line.split(",")[:6]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestContract:
    """The flags each command takes and what a small fixed-seed run writes, as before the flag table."""

    OPTIONS = {
        "embed": "--c-k --c-q --config --delta --eps --help --in --k --n --out --q --scheduler --seed --workers -h",
        "verify-upper": "--c-k --c-q --config --coord-c --criterion --d --delta --eps --help --in --k --n "
                        "--pairwise --q --report --scheduler --seed --trials --workers -h",
        "verify-lemmas": "--C3 --c3 --config --help --report --seed --trials --workers -h",
        "verify-lower": "--c-q --compare-threshold --config --d --delta --eps --help --q --q-divisor --report "
                        "--seed --total-mass --trials --workers -h",
        "bench": "--config --d --eps --help --k --methods --n --out --q --reps --seed --workers -h",
    }

    def test_option_strings(self):
        got = {name: " ".join(sorted(o for a in p._actions for o in a.option_strings))
               for name, p in _subparsers().items()}
        assert got == self.OPTIONS

    # (argv, exit code, digest): sha256 of the .fjlv bytes, else _report_digest
    RUNS = {
        "embed": (["embed", "--in", "{csv}", "--out", "{out}.fjlv", "--eps", "0.25", "--n", "1000", "--scheduler",
                   "theorem1", "--c-q", "2", "--k", "8", "--seed", "3", "--workers", "2"], 0, "c53d486d8daf6049"),
        "verify-upper": (["verify-upper", "--d", "64", "--eps", "0.3", "--n", "100", "--scheduler", "ac", "--c-k",
                          "0.5", "--criterion", "norm", "--trials", "300", "--coord-c", "2.0", "--seed", "8",
                          "--workers", "2", "--report", "{out}.jsonl"], 0, "93e2a1871cd8401d"),
        "verify-upper-pairwise": (["verify-upper", "--d", "32", "--eps", "0.9", "--k", "16", "--q", "0.5",
                                   "--delta", "0.1", "--trials", "100", "--pairwise", "--in", "{fjlv}", "--seed",
                                   "8", "--workers", "2", "--report", "{out}.jsonl"], 0, "c9d780fbd282c39e"),
        "verify-lemmas": (["verify-lemmas", "--trials", "1000", "--c3", "0.2", "--C3", "3", "--seed", "1",
                           "--workers", "2", "--report", "{out}.jsonl"], 1, "ad74273547f374f0"),
        "verify-lower": (["verify-lower", "--eps", "0.25", "--delta", "0.001", "--d", "256", "--q-divisor", "8",
                          "--c-q", "1.5", "--trials", "500", "--compare-threshold", "--total-mass", "--seed", "2",
                          "--workers", "2", "--report", "{out}.jsonl"], 0, "92f6973a76c9fb30"),
        "bench": (["bench", "--methods", "dense,new", "--d", "64", "--k", "8", "--eps", "0.3", "--n", "100",
                   "--reps", "3", "--seed", "4", "--out", "{out}.csv"], 0, "a3bdf37cfe970e84"),
    }

    @pytest.mark.parametrize("name", RUNS)
    def test_output_is_pinned(self, tmp_path, name):
        argv, code, digest = self.RUNS[name]
        rng = np.random.default_rng(7)
        write_vectors(tmp_path / "x.csv", rng.standard_normal((5, 20)))
        write_vectors(tmp_path / "p.fjlv", rng.standard_normal((6, 30)))
        argv = [a.format(csv=tmp_path / "x.csv", fjlv=tmp_path / "p.fjlv", out=tmp_path / "out") for a in argv]
        assert main(argv) == code
        (out,) = tmp_path.glob("out.*")
        got = hashlib.sha256(out.read_bytes()).hexdigest()[:16] if out.suffix == ".fjlv" else _report_digest(out)
        assert got == digest


# One tiny valid run per command; the flag under test replaces its value here or is appended.
FLAG_SWEEP_BASE = {
    "embed": "--in {dir}/x.fjlv --out {dir}/y.fjlv --scheduler theorem1 --eps 0.5 --n 16",
    "verify-upper": "--d 32 --eps 0.5 --scheduler theorem1 --n 16 --trials 5 --coord-c 2 --report {dir}/r.jsonl",
    "verify-lemmas": "--trials 5 --report {dir}/r.jsonl",
    "verify-lower": "--eps 0.25 --delta 0.05 --d 64 --trials 5 --report {dir}/r.jsonl",
    "bench": "--d 16 --k 4 --eps 0.5 --n 16 --reps 3 --out {dir}/b.csv",
}
FLAG_TYPES = [(command, f.metadata["flag"], cli._type(f)) for command in cli._COMMANDS
              for f, _required in cli._own(command)]
INT_FLAGS = [(command, flag) for command, flag, typ in FLAG_TYPES if typ is int]
FLOAT_FLAGS = [(command, flag) for command, flag, typ in FLAG_TYPES if typ is float]

# Small runs with an explicit --k or --q, so that most float flags go unused (--eps in embed and
# bench, --n, --c-k, --coord-c, --q-divisor), and one value outside each float flag's interval.
UNUSED_FLAG_BASE = {
    "embed": "--in {dir}/x.fjlv --out {dir}/y.fjlv --k 4 --q 0.5",
    "verify-upper": "--d 32 --eps 0.5 --k 4 --q 0.5 --trials 5 --report {dir}/r.jsonl",
    "verify-lemmas": "--trials 5 --report {dir}/r.jsonl",
    "verify-lower": "--eps 0.25 --delta 0.05 --d 64 --q 0.01 --trials 5 --report {dir}/r.jsonl",
    "bench": "--d 16 --k 4 --q 0.5 --reps 3 --out {dir}/b.csv",
}
OUT_OF_DOMAIN = {"--eps": "5", "--delta": "1", "--n": "-1", "--q": "0", "--c-q": "0", "--c-k": "0",
                 "--coord-c": "-2", "--q-divisor": "0", "--c3": "0", "--C3": "-1"}

@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep")
    make_dataset(path / "x.fjlv", n=5, d=20)
    return path


def without_flag(argv: list[str], flag: str) -> list[str]:
    """``argv`` without ``flag`` and its value."""
    return argv[: argv.index(flag)] + argv[argv.index(flag) + 2 :] if flag in argv else argv


def check_flag_value(sweep_dir, command, flag, value):
    """Run ``command`` with ``flag value``: exit 0 or 1, or exit 2 with one ``fastjl: error:`` line."""
    argv = without_flag(f"{FLAG_SWEEP_BASE[command]} --seed 1 --workers 1".format(dir=sweep_dir).split(), flag)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, *argv, f"{flag}={value}"])  # "--q -1" would read -1 as an option
    lines = err.getvalue().splitlines()
    assert code in (0, 1) or (code == 2 and len(lines) == 1 and lines[0].startswith("fastjl: error:")), (
        command, flag, value, code, err.getvalue())


class TestNumericFlags:
    """The CLI half of the input contract: every int and float flag at edge values and drawn ones."""

    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @example(value="0")
    @example(value="-1")
    @example(value="nan")
    @example(value="inf")
    @example(value="-inf")
    @example(value="1e400")
    @example(value=str(2**70))
    @example(value="1e-300")
    @given(value=st.floats().map(repr))
    def test_float_flag(self, sweep_dir, command, flag, value):
        check_flag_value(sweep_dir, command, flag, value)

    @pytest.mark.parametrize("command, flag", INT_FLAGS)
    @settings(derandomize=True, max_examples=8, deadline=None)
    @example(value=0)
    @example(value=-1)
    @example(value=2**70)
    @given(value=st.integers(-3, 16))
    def test_int_flag(self, sweep_dir, command, flag, value):
        check_flag_value(sweep_dir, command, flag, str(value))

    def test_every_numeric_flag_is_swept(self):
        assert len(INT_FLAGS) == 20 and len(FLOAT_FLAGS) == 23

    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    def test_float_flag_outside_its_interval_exits_2_where_unused(self, tmp_path, capsys, command, flag):
        # every float flag is checked against its interval, also where the run would not use it
        make_dataset(tmp_path / "x.fjlv", n=5, d=20)
        argv = without_flag(UNUSED_FLAG_BASE[command].format(dir=tmp_path).split(), flag)
        code = main([command, *argv, f"{flag}={OUT_OF_DOMAIN[flag]}"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"fastjl: error: {flag} must be in"), err
        assert [p.name for p in tmp_path.iterdir()] == ["x.fjlv"]


class TestReplay:
    def _strip_timing(self, line: str) -> dict:
        record = json.loads(line)
        record.pop("wall_time_ms", None)
        return record

    def test_verify_lower_replay_is_bit_identical(self, tmp_path):
        argv = ["verify-lower", "--eps", "0.25", "--delta", "0.05", "--d", "512",
                "--trials", "2000", "--seed", "6", "--report", ""]
        r1, r2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a1 = argv.copy(); a1[-1] = str(r1)
        a2 = argv.copy(); a2[-1] = str(r2)
        assert main(a1) == 0 and main(a2) == 0
        lines1 = [self._strip_timing(l) for l in r1.read_text().splitlines()]
        lines2 = [self._strip_timing(l) for l in r2.read_text().splitlines()]
        # the embedded config echoes the respective report path; normalize it
        for recs, path in ((lines1, r1), (lines2, r2)):
            for rec in recs:
                assert rec["params"]["config"]["report"] == str(path)
                rec["params"]["config"]["report"] = "<report>"
        assert lines1 == lines2

    def test_replay_from_embedded_config(self, tmp_path):
        report = tmp_path / "a.jsonl"
        assert main(["verify-lower", "--eps", "0.25", "--delta", "0.05", "--d", "512",
                     "--trials", "1500", "--seed", "9", "--report", str(report)]) == 0
        echoed = json.loads(report.read_text().splitlines()[0])["params"]["config"]
        echoed["report"] = str(tmp_path / "b.jsonl")
        assert execute(RunConfig(**echoed)) == 0
        strip = lambda p: [self._strip_timing(l) for l in p.read_text().splitlines()]
        a, b = strip(report), strip(tmp_path / "b.jsonl")
        for recs in (a, b):
            for rec in recs:
                rec["params"]["config"].pop("report")
        assert a == b

    def test_bench_replay_identical_modulo_times(self, tmp_path):
        argv = ["bench", "--d", "128", "--k", "16", "--q", "0.2", "--reps", "3",
                "--seed", "5", "--out", ""]
        o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
        a1 = argv.copy(); a1[-1] = str(o1)
        a2 = argv.copy(); a2[-1] = str(o2)
        assert main(a1) == 0 and main(a2) == 0

        def rows_without_times(path):
            rows = []
            for line in path.read_text().strip().splitlines():
                if line.startswith("#"):
                    rows.append(json.loads(line[1:].strip()) | {"out_path": "<out>"})
                    continue
                cells = line.split(",")
                rows.append(cells[:6])  # drop median_ns, setup_ns
            return rows

        assert rows_without_times(o1) == rows_without_times(o2)


class TestWorkerProcesses:
    """The verify commands run their Monte Carlo blocks in processes made with ``os.fork``."""

    UPPER = ["verify-upper", "--d", "64", "--eps", "0.3", "--k", "16", "--q", "0.25", "--workers", "2"]

    def _argv(self, tmp_path, mode, blocks=2):
        """``blocks`` blocks of single-vector trials, or of pairwise trials over 16 points."""
        if mode == "single":
            return [*self.UPPER, "--trials", str(blocks * TRIAL_BLOCK)]
        write_vectors(tmp_path / "pts.fjlv", np.random.default_rng(3).standard_normal((16, 64)))
        return [*self.UPPER, "--trials", str(blocks * verify._PAIRWISE_BLOCK), "--pairwise",
                "--in", str(tmp_path / "pts.fjlv")]

    @pytest.mark.parametrize("mode", ["single", "pairwise"])
    @pytest.mark.parametrize("error, line", [(MemoryError("in a child"), "fastjl: error: out of memory: in a child"),
                                             (DomainError("in a child"), "fastjl: error: in a child")])
    def test_error_in_a_child_is_one_line_and_exit_2(self, tmp_path, capsys, monkeypatch, error, line, mode):
        parent, draw_signs = os.getpid(), verify._draw_signs

        def draw_signs_here_only(rng, shape):
            if os.getpid() != parent:
                raise error
            return draw_signs(rng, shape)

        monkeypatch.setattr(verify, "_draw_signs", draw_signs_here_only)
        report = tmp_path / "r.jsonl"
        assert main([*self._argv(tmp_path, mode), "--report", str(report)]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not report.exists()
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_pairwise_blocks_fork_and_start_no_thread(self, tmp_path, monkeypatch):
        # 64 trials are 4 blocks of 16: blocks 0-1 are judged here, on this thread, and blocks 2-3
        # in one child; no verdict goes to a thread, so none is started
        judged, judge = CallLog(tmp_path / "judged"), verify._pairwise_trial_fails

        def logged(*args, **kwargs):
            judged.add(os.getpid(), threading.get_ident())
            return judge(*args, **kwargs)

        monkeypatch.setattr(verify, "_pairwise_trial_fails", logged)
        assert main([*self._argv(tmp_path, "pairwise", blocks=4), "--report", str(tmp_path / "r.jsonl")]) == 0
        calls = judged.read()
        here = [tid for pid, tid in calls if pid == os.getpid()]
        assert len(calls) == 64 and len({pid for pid, _ in calls}) == 2
        assert len(here) == 32 and set(here) == {threading.get_ident()}
        assert threading.active_count() == 1

    # SIGINT to the command alone, or to its process group as Ctrl-C at a terminal sends it, once it
    # has forked its worker: the worker stops at once and is reaped (left alone, it would run for
    # about 30 s on a 2-core x86 box)
    @pytest.mark.parametrize("mode", ["single", "pairwise"])
    @pytest.mark.parametrize("to_group", [False, True], ids=["command", "group"])
    def test_sigint_leaves_no_child(self, tmp_path, to_group, mode):
        if not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
            pytest.skip("needs /proc/<pid>/task/<tid>/children to see the worker")
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["verify-upper", "--d", "1024", "--eps", "0.25", "--k", "256", "--q", "0.05",
                "--trials", str(128 * TRIAL_BLOCK), "--workers", "2", "--report", str(tmp_path / "r.jsonl")]
        if mode == "pairwise":  # 2^19 trials of 128 points at d = 256, some 1.8 ms each
            write_vectors(tmp_path / "pts.fjlv", np.random.default_rng(4).standard_normal((128, 200)))
            argv[1:3] = ["--d", "256"]
            argv += ["--pairwise", "--in", str(tmp_path / "pts.fjlv")]
        proc = subprocess.Popen([sys.executable, "-m", "fastjl.cli", *argv], env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        try:
            deadline, children = time.monotonic() + 60, []
            while not children:
                assert proc.poll() is None and time.monotonic() < deadline, "no worker was forked"
                time.sleep(0.02)
                children = [int(pid) for pid in listing.read_text().split()]
            (os.killpg if to_group else os.kill)(proc.pid, signal.SIGINT)
            proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode != 0
        for pid in children:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(ProcessLookupError):  # nothing is left in the command's process group
            os.killpg(proc.pid, 0)
        assert not (tmp_path / "r.jsonl").exists()


def test_no_fastjl_module_loads_scipy():
    # scipy's import tree is most of the CLI's start-up time; tests use it only as a reference
    code = (
        "import pkgutil, sys, fastjl, fastjl.cli\n"
        "for m in pkgutil.iter_modules(fastjl.__path__, 'fastjl.'): __import__(m.name)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_allocation_beyond_the_machine_exits_2(tmp_path):
    # one 512 GiB draw under a 3 GB address-space cap: a clean error line, not a traceback
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["verify-upper", "--d", "68719476736", "--eps", "0.25", "--n", "64", "--scheduler", "theorem1",
            "--trials", "1", "--report", str(tmp_path / "r.jsonl")]
    done = subprocess.run([sys.executable, "-m", "fastjl.cli", *argv], capture_output=True, text=True,
                          env=env, preexec_fn=cap, timeout=120)
    err = done.stderr.splitlines()
    assert done.returncode == 2, done.stderr
    assert len(err) == 1 and err[0].startswith("fastjl: error: out of memory") and "Traceback" not in done.stderr
    assert not (tmp_path / "r.jsonl").exists()


def test_only_rng_imports_concurrent_futures():
    # threads and processes start in rng alone, for the call that needs them: no other module
    # imports concurrent or names a thread class, a fork or multiprocessing
    starts = re.compile(r"^\s*(from|import) concurrent\b|ThreadPoolExecutor|\bThread\b|\bos\.fork\b|multiprocessing",
                        re.MULTILINE)
    starters = sorted(path.name for path in Path(cli.__file__).parent.glob("*.py") if starts.search(path.read_text()))
    assert starters == ["rng.py"]


def test_only_transform_keeps_a_thread_scratch():
    # the package's one chunk scratch is transform._scratch; every other module takes named buffers from it
    scratch = re.compile(r"_ThreadScratch\(|threading\.local\b")
    keepers = sorted(path.name for path in Path(cli.__file__).parent.glob("*.py") if scratch.search(path.read_text()))
    assert keepers == ["transform.py"]


def _imported_modules(nodes) -> set[str]:
    """The ``fastjl`` modules, and the names in them, that these import statements name."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("fastjl" if node.level else None, node.module)))
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return found


def test_harness_modules_import_at_module_level_and_lemmas_builds_on_verify():
    # an import inside main counts in the benchmark child's main_s: with verify imported
    # inside the verify runners, mc_pairwise items_per_s_2w read 800 -> 526
    src = Path(cli.__file__).parent
    top = _imported_modules(ast.parse((src / "cli.py").read_text()).body)
    assert {"fastjl.bench", "fastjl.lemmas", "fastjl.verify"} <= top
    everywhere = _imported_modules(ast.walk(ast.parse((src / "verify.py").read_text())))
    assert not [m for m in everywhere if m == "fastjl.lemmas" or m.startswith("fastjl.lemmas.")]


def test_every_exported_name_resolves():
    # a deletion must not leave a dangling name in a public __all__
    import importlib
    import pkgutil

    import fastjl

    modules = [fastjl] + [importlib.import_module(m.name)
                          for m in pkgutil.iter_modules(fastjl.__path__, "fastjl.")]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
