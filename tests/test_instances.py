import math
import sys
import threading

import numpy as np
import pytest

from fastjl import (
    DatasetFormatError,
    DimensionError,
    DimensionMismatchError,
    InstanceError,
    ParameterError,
    fwht_inplace,
    hard_vector,
    random_unit_vector,
    read_vectors,
    sample_signs,
    write_vectors,
)
from fastjl.instances import VectorReader, hard_level, vector_writer

from helpers import dense_hadamard


class TestHardVector:
    def test_delta_001_gives_level_one(self):
        # log2(log2(1/sqrt(0.02))) = 1.4966 -> l = 1
        inst = hard_vector(0.01, 16)
        assert inst.level == 1
        assert np.allclose(inst.x[:2], 2**-0.5, atol=1e-15)
        assert np.all(inst.x[2:] == 0.0)
        assert abs(np.linalg.norm(inst.x) - 1.0) < 1e-12

    def test_delta_1e6_gives_level_three(self):
        inst = hard_vector(1e-6, 64)
        assert inst.level == 3
        assert np.allclose(inst.x[:8], 8**-0.5, atol=1e-15)

    def test_d8_level1_support(self):
        # 0-indexed support {0, 2, 4, 6}: every index divisible by 2^l
        inst = hard_vector(0.01, 8)
        assert inst.predicted_support.tolist() == [0, 2, 4, 6]
        assert inst.predicted_magnitude == pytest.approx(0.5, abs=1e-15)
        H = dense_hadamard(8)
        u = H @ inst.x
        assert np.allclose(u[inst.predicted_support], 0.5, atol=1e-12)

    @pytest.mark.parametrize("d", [8, 32, 128, 512])
    @pytest.mark.parametrize("delta", [0.1, 0.01, 1e-4, 1e-6])
    def test_transform_structure_against_dense_oracle(self, d, delta):
        inst = hard_vector(delta, d)
        if 2**inst.level > d:
            pytest.skip("level exceeds dimension")
        H = dense_hadamard(d)
        u = H @ inst.x
        nz = np.flatnonzero(np.abs(u) > 1e-12)
        assert len(nz) == d // 2**inst.level == inst.m
        assert np.array_equal(nz, inst.predicted_support)
        assert np.abs(u[nz] - inst.predicted_magnitude).max() < 1e-12

    def test_large_d_uses_index_rule(self):
        inst = hard_vector(0.01, 2**13)
        assert np.array_equal(inst.predicted_support, np.arange(0, 2**13, 2))

    @pytest.mark.parametrize("d", [2**13, 2**16])
    @pytest.mark.parametrize("delta", [0.01, 1e-6])
    def test_index_rule_against_the_fast_transform(self, d, delta):
        # beyond the dense oracle's sizes the index rule is checked through the FWHT
        inst = hard_vector(delta, d)
        u = fwht_inplace(inst.x.copy())
        nz = np.flatnonzero(np.abs(u) > 1e-9 * inst.predicted_magnitude)
        assert len(nz) == d // 2**inst.level == inst.m
        assert np.array_equal(nz, inst.predicted_support)
        assert np.abs(u[nz] - inst.predicted_magnitude).max() < 1e-12

    def test_sign_fixing_probability(self):
        # P[Dx = x] = 2^(-2^l); empirical frequency within 4 sigma at l in {1, 2}
        trials = 20_000
        for delta, level in ((0.01, 1), (1e-4, 2)):
            inst = hard_vector(delta, 16)
            assert inst.level == level
            p = 2.0 ** -(2**level)
            hits = 0
            for seed in range(trials):
                diag = sample_signs(16, seed=seed)
                hits += np.array_equal(diag.signs * inst.x, inst.x)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(hits / trials - p) < 4 * sigma

    def test_delta_too_small_for_dimension(self):
        with pytest.raises(InstanceError):
            hard_vector(1e-6, 4)  # needs 8 leading coordinates

    def test_delta_range(self):
        with pytest.raises(ParameterError):
            hard_vector(0.5, 16)
        with pytest.raises(ParameterError):
            hard_vector(0.0, 16)

    def test_level_bracket(self):
        for delta in (0.1, 0.05, 0.01, 1e-3, 1e-6, 1e-9):
            level = hard_level(delta)
            bracket = math.log2(math.log2(1.0 / math.sqrt(2.0 * delta)))
            if bracket >= 0:
                assert level <= bracket <= level + 1
            else:
                assert level == 0  # degenerate large-delta regime

    def test_non_power_of_two_dimension(self):
        with pytest.raises(DimensionError):
            hard_vector(0.01, 12)


class TestRandomUnitVector:
    def test_unit_norm(self):
        for seed in range(10):
            v = random_unit_vector(37, seed)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(random_unit_vector(64, 3), random_unit_vector(64, 3))

    def test_coordinate_means_are_centered(self):
        d, n = 64, 10_000
        vs = np.stack([random_unit_vector(d, seed) for seed in range(n)])
        # each coordinate is symmetric with std ~ 1/sqrt(d)
        sigma = (1.0 / math.sqrt(d)) / math.sqrt(n)
        assert np.abs(vs.mean(axis=0)).max() < 4 * sigma


class TestVectorIo:
    @pytest.mark.parametrize("suffix", [".fjlv", ".csv"])
    def test_round_trip_bit_exact(self, tmp_path, suffix):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-8, 8, size=(3, 4))
        data[1] = [-0.0, 5e-324, 1e308, 1.0]  # signed zero, smallest subnormal, near the largest float
        path = tmp_path / f"x{suffix}"
        write_vectors(path, data)
        back = read_vectors(path)
        assert back.shape == (3, 4) and back.dtype == np.float64
        assert np.array_equal(back, data)
        assert np.array_equal(np.signbit(back), np.signbit(data))
        if suffix == ".csv":  # 17 significant digits, shortest exponent form
            assert path.read_text().splitlines()[1] == "-0,4.9406564584124654e-324,1e+308,1"

    def test_binary_header_layout(self, tmp_path):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == b"FJLV"
        assert int.from_bytes(raw[4:6], "little") == 1          # version u16
        assert int.from_bytes(raw[6:10], "little") == 3         # d u32
        assert int.from_bytes(raw[10:18], "little") == 2        # count u64
        assert len(raw) == 18 + 2 * 3 * 8

    def test_truncated_binary_payload_names_row(self, tmp_path):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.ones((2, 4)))
        path.write_bytes(path.read_bytes()[:-8])  # drop one value
        with pytest.raises(DimensionMismatchError, match="row 2"):
            read_vectors(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.ones((1, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="magic"):
            read_vectors(path)

    @pytest.mark.parametrize("suffix", [".fjlv", ".csv"])
    def test_empty_file_is_an_error(self, tmp_path, suffix):
        path = tmp_path / f"x{suffix}"
        path.write_bytes(b"")
        with pytest.raises(DatasetFormatError, match="empty"):
            read_vectors(path)

    def test_csv_row_dimension_mismatch_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0,3.0,4.0\n1.0,2.0,3.0\n")
        with pytest.raises(DimensionMismatchError, match="row 2"):
            read_vectors(path)

    def test_csv_unparsable_token_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n1.0,zap\n")
        with pytest.raises(DatasetFormatError, match="row 2"):
            read_vectors(path)

    def test_csv_non_finite_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0,3.0\nnan,1,inf\n")
        with pytest.raises(DatasetFormatError, match="row 2 has a non-finite value"):
            read_vectors(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_binary_non_finite_names_row(self, tmp_path, bad):
        data = np.ones((5, 3))
        data[2, 1] = bad
        path = tmp_path / "x.fjlv"
        write_vectors(path, data)
        with pytest.raises(DatasetFormatError, match="row 3 has a non-finite value"):
            read_vectors(path)

    def test_binary_read_is_a_view_of_the_file_bytes(self, tmp_path):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.ones((3, 4)))
        vectors = read_vectors(path)
        assert not vectors.flags.owndata and not vectors.flags.writeable

    def test_unknown_suffix(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            write_vectors(tmp_path / "x.dat", np.zeros((1, 1)))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_vectors(tmp_path / "missing.fjlv")

    def test_write_rejects_a_non_matrix(self, tmp_path):
        for shape in [(), (4,), (2, 2, 2)]:
            with pytest.raises(DimensionError):
                write_vectors(tmp_path / "x.fjlv", np.zeros(shape))
        assert list(tmp_path.iterdir()) == []


class TestBlockIo:
    @pytest.mark.parametrize("suffix", [".fjlv", ".csv"])
    @pytest.mark.parametrize("rows", [1, 4, 5, 9])
    def test_blocks_match_read_vectors(self, tmp_path, suffix, rows):
        path = tmp_path / f"x{suffix}"
        write_vectors(path, np.random.default_rng(rows).standard_normal((rows, 3)))
        got = np.full((rows, 3), np.nan)
        with VectorReader(path) as reader:
            assert (reader.d, reader.count) == (3, rows)
            for lo in reversed(range(0, rows, 4)):  # by position, in any order
                reader.read_rows(lo, got[lo : lo + 4])
        assert np.array_equal(got, read_vectors(path))

    def test_read_rows_fill_the_callers_buffer(self, tmp_path):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.arange(12.0).reshape(6, 2))
        out = np.empty((3, 2))
        with VectorReader(path) as reader:
            assert reader.read_rows(2, out) is out
        assert np.array_equal(out, np.arange(4.0, 10.0).reshape(3, 2))

    @pytest.mark.parametrize("first, rows", [(-1, 2), (5, 2), (0, 7)])
    def test_read_rows_outside_the_file_rejected(self, tmp_path, first, rows):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.ones((6, 2)))
        with VectorReader(path) as reader:
            with pytest.raises(DimensionError, match="of 6$"):
                reader.read_rows(first, np.empty((rows, 2)))
            with pytest.raises(DimensionError, match="C-contiguous"):
                reader.read_rows(0, np.empty((2, 4))[:, :2])

    def test_no_rows(self, tmp_path):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.zeros((0, 5)))
        with VectorReader(path) as reader:
            assert (reader.d, reader.count) == (5, 0)
            assert reader.read_rows(0, np.empty((0, 5))).shape == (0, 5)

    def test_non_finite_row_in_a_later_block_is_named(self, tmp_path):
        data = np.ones((10, 3))
        data[8, 2] = np.inf
        path = tmp_path / "x.fjlv"
        write_vectors(path, data)
        with VectorReader(path) as reader:
            reader.read_rows(0, np.empty((8, 3)))
            with pytest.raises(DatasetFormatError, match="row 9 has a non-finite value"):
                reader.read_rows(7, np.empty((3, 3)))

    def test_truncated_payload_is_rejected_on_opening(self, tmp_path):
        path = tmp_path / "x.fjlv"
        write_vectors(path, np.ones((2, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DimensionMismatchError, match="row 2"):
            VectorReader(path)

    @pytest.mark.parametrize("suffix", [".fjlv", ".csv"])
    def test_writer_blocks_match_write_vectors(self, tmp_path, suffix):
        data = np.random.default_rng(0).standard_normal((7, 3))
        data[2] = [-0.0, 5e-324, 1e308]
        whole, blocks = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
        write_vectors(whole, data)
        with vector_writer(blocks, 3, 7) as write:
            for lo in range(0, 7, 3):
                write(lo, data[lo : lo + 3])
        assert blocks.read_bytes() == whole.read_bytes()

    def test_binary_writer_takes_blocks_in_any_order(self, tmp_path):
        data = np.random.default_rng(1).standard_normal((7, 3))
        whole, blocks = tmp_path / "a.fjlv", tmp_path / "b.fjlv"
        write_vectors(whole, data)
        with vector_writer(blocks, 3, 7) as write:
            for lo in (6, 0, 3):
                write(lo, data[lo : lo + 3])
        assert blocks.read_bytes() == whole.read_bytes()

    def test_binary_writer_takes_blocks_from_many_threads(self, tmp_path):
        # 8 threads on a 2-core box, switching every microsecond: a lost block
        # record would fail the writer's row count, a misplaced block the bytes
        data = np.random.default_rng(2).standard_normal((400, 3))
        whole, blocks = tmp_path / "a.fjlv", tmp_path / "b.fjlv"
        write_vectors(whole, data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with vector_writer(blocks, 3, 400) as write:
                def writer(t):
                    for lo in range(2 * t, 400, 16):
                        write(lo, data[lo : lo + 2])

                threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert blocks.read_bytes() == whole.read_bytes()

    def test_csv_writer_rejects_a_block_out_of_order(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"earlier")
        with pytest.raises(DimensionMismatchError, match="row order, got row 4"):
            with vector_writer(path, 3, 6) as write:
                write(3, np.ones((3, 3)))
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    @pytest.mark.parametrize("written", [1, 3])
    def test_writer_row_count_mismatch_leaves_path_unchanged(self, tmp_path, written):
        path = tmp_path / "x.fjlv"
        path.write_bytes(b"earlier")
        with pytest.raises(DimensionMismatchError, match="2 declared"):
            with vector_writer(path, 3, 2) as write:
                write(0, np.ones((written, 3)))
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["x.fjlv"]

    @pytest.mark.parametrize("starts, count", [((0, 0), 4), ((1, 3), 5), ((0, 3), 5)])
    def test_writer_gap_or_overlap_leaves_path_unchanged(self, tmp_path, starts, count):
        # two blocks of 2 rows that overlap, or leave row 1 or row 3 unwritten
        path = tmp_path / "x.fjlv"
        path.write_bytes(b"earlier")
        with pytest.raises(DimensionMismatchError, match=f"4 rows written, {count} declared"):
            with vector_writer(path, 3, count) as write:
                for lo in starts:
                    write(lo, np.ones((2, 3)))
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["x.fjlv"]
