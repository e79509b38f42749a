import math
import warnings

import numpy as np
import pytest

from fastjl import ParameterError, sample_projection
from fastjl.bench import (
    BenchConfig,
    BenchRecord,
    CSV_HEADER,
    METHOD_DENSE,
    METHOD_FASTJL_AC,
    METHOD_FASTJL_NEW,
    records_to_csv,
    run_bench,
)


class TestNnz:
    def test_q_one_is_dense(self):
        assert sample_projection(3, 8, 1.0, seed=0).nnz == 24

    def test_matches_expectation_over_seeds(self):
        k, d, q = 32, 512, 0.05
        counts = [sample_projection(k, d, q, seed=s).nnz for s in range(60)]
        mean = k * d * q
        sigma = math.sqrt(k * d * q * (1 - q) / len(counts))
        assert abs(np.mean(counts) - mean) < 3 * sigma


class TestRunBench:
    def test_records_structure(self):
        configs = [
            BenchConfig(METHOD_DENSE, d=256, k=32),
            BenchConfig(METHOD_FASTJL_AC, d=256, k=32, n=1e4),
            BenchConfig(METHOD_FASTJL_NEW, d=256, k=32, n=1e4, eps=0.25),
        ]
        records = run_bench(configs, reps=5, seed=1)
        assert [r.method for r in records] == [METHOD_DENSE, METHOD_FASTJL_AC, METHOD_FASTJL_NEW]
        dense = records[0]
        assert dense.q == 1.0 and dense.nnz_observed == 256 * 32
        for r in records:
            assert r.median_embed_time_ns >= 0 and r.setup_time_ns >= 0 and r.reps == 5

    def test_explicit_q_zero_rejected(self):
        with pytest.raises(ParameterError):
            run_bench([BenchConfig(METHOD_FASTJL_NEW, d=64, k=8, q=0.0)], reps=3, seed=2)

    def test_sparse_nnz_tracks_binomial(self):
        configs = [BenchConfig(METHOD_FASTJL_NEW, d=1024, k=64, q=0.02)]
        observed = [run_bench(configs, reps=3, seed=s)[0].nnz_observed for s in range(30)]
        mean = 64 * 1024 * 0.02
        sigma = math.sqrt(64 * 1024 * 0.02 * 0.98 / len(observed))
        assert abs(np.mean(observed) - mean) < 4 * sigma

    def test_k_above_d_rejected(self):
        with pytest.raises(ParameterError):
            BenchConfig(METHOD_DENSE, d=16, k=32)

    @pytest.mark.parametrize("method", [METHOD_FASTJL_AC, METHOD_FASTJL_NEW])
    def test_fastjl_d_not_a_power_of_two_rejected(self, method):
        # the FWHT raised numpy's matmul ValueError mid-run
        with pytest.raises(ParameterError, match="power of two"):
            BenchConfig(method, d=12, k=4, q=0.5)
        assert run_bench([BenchConfig(METHOD_DENSE, d=12, k=4)], reps=3, seed=0)[0].d == 12

    def test_reps_minimum(self):
        with pytest.raises(ParameterError):
            run_bench([BenchConfig(METHOD_DENSE, d=16, k=4)], reps=2, seed=0)
        with pytest.raises(ParameterError):
            BenchRecord(METHOD_DENSE, 16, 4, 1.0, 64, 2, 10, 10)

    def test_missing_scheduler_inputs(self):
        with pytest.raises(ParameterError):
            BenchConfig(METHOD_FASTJL_AC, d=64, k=8).resolve_q()
        with pytest.raises(ParameterError):
            BenchConfig(METHOD_FASTJL_NEW, d=64, k=8, n=100.0).resolve_q()

    def test_dense_scaling_soft_check(self):
        # apply time should grow ~quadratically per doubling of d = k; on
        # memory-bound hosts the larger sizes can exceed the 4x model, so
        # this is reported as a warning rather than a hard failure
        sizes = (256, 512, 1024)
        medians = {}
        for d in sizes:
            (record,) = run_bench([BenchConfig(METHOD_DENSE, d=d, k=d)], reps=15, seed=3)
            medians[d] = record.median_embed_time_ns
        ratios = [medians[512] / medians[256], medians[1024] / medians[512]]
        if not all(3.0 <= r <= 5.0 for r in ratios):
            warnings.warn(f"dense doubling ratios outside [3, 5]: {ratios}")
        assert all(r > 1.5 for r in ratios)  # strictly superlinear in any case

    def test_method_ordering_soft_check(self):
        # FastJL_New <= FastJL_AC <= Dense at d=2^14, k=512 (machine-dependent)
        d, k, n, eps = 2**14, 512, 1e6, 0.1
        configs = [
            BenchConfig(METHOD_DENSE, d=d, k=k),
            BenchConfig(METHOD_FASTJL_AC, d=d, k=k, n=n),
            BenchConfig(METHOD_FASTJL_NEW, d=d, k=k, n=n, eps=eps),
        ]
        records = {r.method: r for r in run_bench(configs, reps=9, seed=4)}
        t_dense = records[METHOD_DENSE].median_embed_time_ns
        t_ac = records[METHOD_FASTJL_AC].median_embed_time_ns
        t_new = records[METHOD_FASTJL_NEW].median_embed_time_ns
        assert records[METHOD_FASTJL_NEW].nnz_observed < records[METHOD_FASTJL_AC].nnz_observed
        if not t_new <= t_ac <= t_dense:
            warnings.warn(
                f"soft timing ordering violated: new={t_new}ns ac={t_ac}ns dense={t_dense}ns "
                f"(ratios new/ac={t_new / t_ac:.2f}, ac/dense={t_ac / t_dense:.2f})"
            )


class TestCsv:
    def test_header_and_shape(self):
        records = [BenchRecord(METHOD_DENSE, 16, 4, 1.0, 64, 3, 100, 200)]
        text = records_to_csv(records, config_echo="seed=1")
        lines = text.strip().splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == CSV_HEADER
        assert lines[2] == "Dense,16,4,1.0,64,3,100,200"

    def test_no_echo_line_when_absent(self):
        text = records_to_csv([])
        assert text == CSV_HEADER + "\n"
