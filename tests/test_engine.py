"""Tests for the columnar execution engine (paper §5.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ENCODINGS,
    EncodedColumn,
    IOModel,
    ParquetLikeFile,
    block_compress,
    block_decompress,
    run_bitmap_aggregation,
    run_filter_groupby_query,
    run_hash_probe,
    zipf_cluster_bitmap,
)

int_columns = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                       max_size=300).map(
                           lambda v: np.array(v, dtype=np.int64))


class TestEncodedColumn:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @given(values=int_columns)
    @settings(max_examples=10, deadline=None)
    def test_decode_roundtrip(self, encoding, values):
        col = EncodedColumn(values, encoding, partition_size=32)
        assert np.array_equal(col.decode_all(), values)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_take_matches_reference(self, encoding):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.integers(0, 50, 3000)).astype(np.int64)
        col = EncodedColumn(values, encoding, partition_size=256)
        positions = rng.integers(0, 3000, 200)
        assert np.array_equal(col.take(positions), values[positions])

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_filter_matches_reference(self, encoding):
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.integers(0, 50, 3000)).astype(np.int64)
        col = EncodedColumn(values, encoding, partition_size=256)
        lo, hi = int(values[500]), int(values[800])
        expected = (values >= lo) & (values < hi)
        assert np.array_equal(col.filter_range(lo, hi), expected)

    def test_dict_falls_back_to_plain_for_unique_values(self):
        values = np.arange(1000, dtype=np.int64)
        col = EncodedColumn(values, "dict")
        assert col.encoding == "plain"
        # the fallback is no longer silent: both sides are recorded
        assert col.requested_encoding == "dict"
        assert col.effective_encoding == "plain"

    def test_requested_vs_effective_without_fallback(self):
        values = np.zeros(1000, dtype=np.int64)
        col = EncodedColumn(values, "dict")
        assert col.requested_encoding == "dict"
        assert col.effective_encoding == "dict"

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_payload_is_self_describing(self, encoding):
        """Any column chunk revives via the envelope, scheme unseen."""
        from repro import codecs

        rng = np.random.default_rng(5)
        values = np.cumsum(rng.integers(0, 9, 2000)).astype(np.int64)
        col = EncodedColumn(values, encoding, partition_size=256)
        revived = codecs.from_bytes(col.payload_bytes())
        assert np.array_equal(revived.decode_all(), values)

    def test_dict_is_small_on_low_cardinality(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 16, 10_000).astype(np.int64)
        dict_col = EncodedColumn(values, "dict")
        plain_col = EncodedColumn(values, "plain")
        assert dict_col.size_bytes() < plain_col.size_bytes() / 5

    def test_unknown_encoding(self):
        with pytest.raises(ValueError):
            EncodedColumn(np.arange(5), "nope")

    def test_leco_pruning_skips_partitions(self):
        """A range far below all values must touch no deltas."""
        values = (10 ** 6 + 7 * np.arange(10_000)).astype(np.int64)
        col = EncodedColumn(values, "leco", partition_size=500)
        bitmap = col.filter_range(0, 10)
        assert not bitmap.any()


class TestBlockCompression:
    @given(st.binary(max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        assert block_decompress(block_compress(data)) == data

    def test_compresses_redundant_payloads(self):
        data = b"abcd" * 10_000
        assert len(block_compress(data)) < len(data) / 10


class TestParquetFile:
    def _table(self, n=5000, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "ts": np.cumsum(rng.integers(1, 10, n)).astype(np.int64),
            "id": rng.integers(0, 50, n).astype(np.int64),
            "val": rng.integers(0, 1 << 20, n).astype(np.int64),
        }

    def test_rejects_ragged_tables(self):
        with pytest.raises(ValueError):
            ParquetLikeFile.write({"a": np.arange(5), "b": np.arange(6)},
                                  "plain")

    def test_row_group_layout(self):
        file = ParquetLikeFile.write(self._table(5000), "plain",
                                     row_group_size=2000)
        assert [g.n_rows for g in file.row_groups] == [2000, 2000, 1000]
        assert file.n_rows == 5000

    def test_scan_charges_io(self):
        file = ParquetLikeFile.write(self._table(), "leco",
                                     row_group_size=2500)
        io = IOModel()
        file.scan_column(file.row_groups[0], "ts", io)
        assert io.bytes_read == file.row_groups[0].chunks["ts"].stored_bytes()
        assert io.seconds > 0

    def test_block_compression_shrinks_file(self):
        table = self._table()
        plain = ParquetLikeFile.write(table, "plain")
        squeezed = ParquetLikeFile.write(table, "plain",
                                         block_compression=True)
        assert squeezed.file_size_bytes() < plain.file_size_bytes()

    @pytest.mark.parametrize("encoding", ["dict", "for", "delta", "leco"])
    def test_lightweight_encodings_beat_plain(self, encoding):
        table = self._table()
        plain = ParquetLikeFile.write(table, "plain").file_size_bytes()
        encoded = ParquetLikeFile.write(
            table, encoding, partition_size=1000).file_size_bytes()
        assert encoded < plain


class TestQueries:
    def _file(self, encoding, n=8000):
        rng = np.random.default_rng(3)
        table = {
            "ts": np.cumsum(rng.integers(1, 10, n)).astype(np.int64),
            "id": rng.integers(0, 100, n).astype(np.int64),
            "val": rng.integers(0, 10 ** 9, n).astype(np.int64),
        }
        return table, ParquetLikeFile.write(table, encoding,
                                            row_group_size=4000,
                                            partition_size=500)

    @pytest.mark.parametrize("encoding", ["dict", "for", "delta", "leco"])
    def test_filter_groupby_matches_reference(self, encoding):
        table, file = self._file(encoding)
        ts = table["ts"]
        lo, hi = int(ts[1000]), int(ts[2500])
        result = run_filter_groupby_query(file, lo, hi)
        mask = (ts >= lo) & (ts < hi)
        assert result.rows_selected == int(mask.sum())
        # reference answer
        expected = {}
        for key in np.unique(table["id"][mask]):
            sel = mask & (table["id"] == key)
            expected[int(key)] = float(table["val"][sel].mean())
        assert set(result.answer) == set(expected)
        for key in expected:
            assert result.answer[key] == pytest.approx(expected[key],
                                                       rel=1e-9)

    def test_all_encodings_agree(self):
        answers = []
        for encoding in ("dict", "for", "delta", "leco"):
            table, file = self._file(encoding)
            ts = table["ts"]
            result = run_filter_groupby_query(file, int(ts[100]),
                                              int(ts[400]))
            answers.append(result.answer)
        assert all(a == answers[0] for a in answers)

    def test_empty_selection(self):
        _, file = self._file("leco")
        result = run_filter_groupby_query(file, -100, -50)
        assert result.rows_selected == 0
        assert result.answer == {}

    def test_avg_merges_exactly_across_row_groups(self):
        # group 7 straddles the row-group boundary unevenly (3 rows, then
        # 1): merging per-group averages as a mean-of-means would report
        # (30 + 110) / 2 = 70, the exact answer is 200 / 4 = 50
        table = {
            "ts": np.arange(8, dtype=np.int64),
            "id": np.array([7, 7, 7, 1, 7, 1, 1, 1], dtype=np.int64),
            "val": np.array([10, 20, 60, 5, 110, 7, 9, 11],
                            dtype=np.int64),
        }
        file = ParquetLikeFile.write(table, "plain", row_group_size=4)
        result = run_filter_groupby_query(file, 0, 8)
        assert result.answer[7] == pytest.approx(50.0)
        assert result.answer[1] == pytest.approx(8.0)

    def test_filter_groupby_leaves_callers_io_model_untouched(self):
        table, file = self._file("leco")
        ts = table["ts"]
        io = IOModel()
        io.charge(12_345)  # the caller's running totals must survive
        result = run_filter_groupby_query(file, int(ts[1000]),
                                          int(ts[2500]), io)
        assert result.bytes_read > 0
        assert io.bytes_read == 12_345 + result.bytes_read
        assert io.reads == 1 + result.reads
        # io_s reflects only this query's deltas, not the prior charge
        expected = (result.bytes_read / io.bandwidth_bytes_per_s
                    + result.reads * io.latency_s)
        assert result.io_s == pytest.approx(expected)

    def test_hash_probe_accumulates_io_deltas(self):
        rng = np.random.default_rng(6)
        probe = rng.integers(0, 5000, 20_000).astype(np.int64)
        io = IOModel()
        io.charge(777)  # survives: run_hash_probe no longer resets
        result = run_hash_probe(probe, "raw", memory_budget_bytes=1 << 12,
                                hash_table_bytes=1 << 11, io=io)
        assert result.miss_fraction > 0
        assert io.bytes_read > 777
        assert io.reads >= 1

    def test_bitmap_aggregation_accumulates_io_deltas(self):
        table, file = self._file("leco")
        bitmap = zipf_cluster_bitmap(len(table["ts"]), 0.02, seed=4)
        io = IOModel()
        first = run_bitmap_aggregation(file, "val", bitmap, io)
        second = run_bitmap_aggregation(file, "val", bitmap, io)
        assert first.bytes_read == second.bytes_read > 0
        assert io.bytes_read == first.bytes_read + second.bytes_read
        assert first.io_s == pytest.approx(second.io_s)

    @pytest.mark.parametrize("encoding", ["dict", "delta", "leco"])
    def test_bitmap_aggregation_matches_reference(self, encoding):
        table, file = self._file(encoding)
        bitmap = zipf_cluster_bitmap(len(table["ts"]), 0.02, seed=4)
        result = run_bitmap_aggregation(file, "val", bitmap)
        assert result.answer == int(table["val"][bitmap].sum())

    def test_bitmap_aggregation_skips_row_groups(self):
        table, file = self._file("leco")
        bitmap = np.zeros(len(table["ts"]), dtype=bool)
        bitmap[:100] = True  # only the first row group is touched
        io = IOModel()
        run_bitmap_aggregation(file, "val", bitmap, io)
        first = file.row_groups[0].chunks["val"].stored_bytes()
        assert io.bytes_read == first


class TestOps:
    def test_zipf_bitmap_selectivity(self):
        bitmap = zipf_cluster_bitmap(100_000, 0.01)
        assert 0.004 <= bitmap.mean() <= 0.03


class TestHashProbe:
    def test_leco_dictionary_is_smallest(self):
        from repro.datasets import load

        probe = load("medicare", n=30_000).values
        sizes = {}
        for method in ("raw", "for", "leco"):
            result = run_hash_probe(probe, method,
                                    memory_budget_bytes=1 << 30,
                                    hash_table_bytes=1 << 20)
            sizes[method] = result.dictionary_bytes
        assert sizes["leco"] < sizes["for"] < sizes["raw"]

    def test_tight_budget_penalises_big_dictionaries(self):
        from repro.datasets import load

        probe = load("medicare", n=30_000).values
        # leave ~4KB for the dictionary: the raw dict (~24KB) spills,
        # the LeCo dict (~2KB) stays resident
        budget = 1 << 20
        table_bytes = budget - 4096
        raw_tight = run_hash_probe(probe, "raw",
                                   memory_budget_bytes=budget,
                                   hash_table_bytes=table_bytes)
        leco_tight = run_hash_probe(probe, "leco",
                                    memory_budget_bytes=budget,
                                    hash_table_bytes=table_bytes)
        assert raw_tight.miss_fraction > 0.5
        assert leco_tight.miss_fraction == 0.0
        assert leco_tight.throughput_gbps > raw_tight.throughput_gbps


class TestIOModel:
    def test_accounting(self):
        io = IOModel(bandwidth_bytes_per_s=1e6, latency_s=0.001)
        io.charge(5000)
        io.charge(5000)
        assert io.bytes_read == 10_000
        assert io.seconds == pytest.approx(0.01 + 0.002)
        io.reset()
        assert io.seconds == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            IOModel().charge(-1)
