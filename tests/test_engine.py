"""Tests for the host engine the paper's §5.1 figures run on.

Figs. 18–21 write their columns through :func:`repro.bench.cold_table` —
a store table under one figure encoding, opened with no chunk cache — and
run their plans through the executor on a :class:`StoreSource`.  These
tests hold that path to numpy: every encoding the figures use stores,
filters, gathers and aggregates losslessly, and the reads a query counts
are the chunks it loaded.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codecs
from repro.bench import cold_table, figure_codec
from repro.datasets.synthetic import zipf_cluster_bitmap
from repro.exec import Bitmap, Plan, col, execute
from repro.store import StoreSource

#: the encodings the §5.1 figures write ("dict" is Parquet's Default)
ENCODINGS = ("plain", "dict", "for", "delta", "leco")

int_columns = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                       max_size=300).map(
                           lambda v: np.array(v, dtype=np.int64))


def groupby_avg(lo, hi):
    return (Plan.scan(["id", "val"])
            .where(col("ts").between(lo, hi))
            .aggregate({"avg": ("avg", "val")}, group_by="id"))


def bitmap_sum(bitmap):
    return (Plan.scan(["val"]).where(Bitmap(bitmap))
            .aggregate({"total": ("sum", "val")}))


class TestEncodedColumn:
    """One column stored under one figure encoding."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @given(values=int_columns)
    @settings(max_examples=10, deadline=None)
    def test_decode_roundtrip(self, encoding, values):
        with cold_table({"v": values}, encoding, chunk_rows=64) as table:
            assert np.array_equal(table.read_column("v"),
                                  values)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_take_matches_reference(self, encoding):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.integers(0, 50, 3000)).astype(np.int64)
        selected = np.zeros(3000, dtype=bool)
        selected[rng.integers(0, 3000, 200)] = True
        with cold_table({"v": values}, encoding, chunk_rows=256) as table:
            res = execute(Plan.scan(["v"]).where(Bitmap(selected)),
                          StoreSource(table))
        assert np.array_equal(res.row_ids, np.flatnonzero(selected))
        assert np.array_equal(res.columns["v"], values[selected])

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_filter_matches_reference(self, encoding):
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.integers(0, 50, 3000)).astype(np.int64)
        lo, hi = int(values[500]), int(values[800])
        expected = (values >= lo) & (values < hi)
        with cold_table({"v": values}, encoding, chunk_rows=256) as table:
            res = table.scan(columns=["v"], where=("v", lo, hi))
        assert np.array_equal(res.row_ids, np.flatnonzero(expected))

    def test_dict_falls_back_to_plain_for_unique_values(self):
        values = np.arange(1000, dtype=np.int64)
        assert figure_codec(values, "dict") == "plain"
        with cold_table({"v": values}, "dict", chunk_rows=256) as table:
            assert table.info()["chunk_codec_mix"] == {"plain": 4}

    def test_requested_vs_effective_without_fallback(self):
        values = np.zeros(1000, dtype=np.int64)
        assert figure_codec(values, "dict") == "dict"
        with cold_table({"v": values}, "dict", chunk_rows=256) as table:
            assert table.info()["chunk_codec_mix"] == {"dict": 4}

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_payload_is_self_describing(self, encoding):
        """Any stored chunk revives via the envelope, scheme unseen."""
        rng = np.random.default_rng(5)
        values = np.cumsum(rng.integers(0, 9, 2000)).astype(np.int64)
        with cold_table({"v": values}, encoding, chunk_rows=256) as table:
            for meta in table.shards[0].by_column["v"]:
                revived = codecs.from_bytes(table.chunk_bytes(0, meta))
                assert np.array_equal(
                    revived.decode_all(),
                    values[meta.row_start: meta.row_start + meta.n_rows])

    def test_dict_is_small_on_low_cardinality(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 16, 10_000).astype(np.int64)
        sizes = {}
        for encoding in ("dict", "plain"):
            with cold_table({"v": values}, encoding,
                            chunk_rows=10_000) as table:
                sizes[encoding] = table.stored_bytes()
        assert sizes["dict"] < sizes["plain"] / 5

    def test_unknown_encoding(self):
        with pytest.raises(ValueError, match="unknown codec"):
            with cold_table({"v": np.arange(5)}, "nope", chunk_rows=4):
                pass

    def test_leco_pruning_skips_partitions(self):
        """A range far below all values must load no chunk at all."""
        values = (10 ** 6 + 7 * np.arange(10_000)).astype(np.int64)
        with cold_table({"v": values}, "leco", chunk_rows=500) as table:
            res = table.scan(columns=["v"], where=("v", 0, 10))
        assert res.n_rows == 0
        assert res.stats.granules_pruned == res.stats.granules_total == 20
        assert res.stats.chunks_scanned == res.stats.bytes_read == 0


class TestParquetFile:
    """A cold table as the figures' Parquet file: chunks are its row
    groups, and every load is a counted read."""

    def _table(self, n=5000, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "ts": np.cumsum(rng.integers(1, 10, n)).astype(np.int64),
            "id": rng.integers(0, 50, n).astype(np.int64),
            "val": rng.integers(0, 1 << 20, n).astype(np.int64),
        }

    def test_rejects_ragged_tables(self):
        with pytest.raises(ValueError, match="length mismatch"):
            with cold_table({"a": np.arange(5), "b": np.arange(6)},
                            "plain", chunk_rows=4):
                pass

    def test_row_group_layout(self):
        with cold_table(self._table(5000), "plain",
                        chunk_rows=2000) as table:
            granules = StoreSource(table).granules()
            assert [g.n_rows for g in granules] == [2000, 2000, 1000]
            assert table.n_rows == 5000

    def test_scan_charges_io(self):
        with cold_table(self._table(), "leco", chunk_rows=2500) as table:
            res = table.scan(columns=["ts"], where=("ts", 0, 1))
            first = table.shards[0].by_column["ts"][0]
        # only the first chunk's zone map admits ts < 1
        assert (res.stats.reads, res.stats.bytes_read) == (1, first.nbytes)

    def test_block_compression_shrinks_file(self):
        with cold_table(self._table(), "plain", chunk_rows=5000) as table:
            squeezed = sum(len(zlib.compress(table.chunk_bytes(i, meta)))
                           for i, shard in enumerate(table.shards)
                           for meta in shard.footer.chunks)
            assert squeezed < table.stored_bytes()

    @pytest.mark.parametrize("encoding", ["dict", "for", "delta", "leco"])
    def test_lightweight_encodings_beat_plain(self, encoding):
        sizes = {}
        for enc in ("plain", encoding):
            with cold_table(self._table(), enc, chunk_rows=5000) as table:
                sizes[enc] = table.stored_bytes()
        assert sizes[encoding] < sizes["plain"]


class TestQueries:
    def _columns(self, n=8000):
        rng = np.random.default_rng(3)
        return {
            "ts": np.cumsum(rng.integers(1, 10, n)).astype(np.int64),
            "id": rng.integers(0, 100, n).astype(np.int64),
            "val": rng.integers(0, 10 ** 9, n).astype(np.int64),
        }

    def _run(self, columns, encoding, plan, chunk_rows=4000):
        with cold_table(columns, encoding, chunk_rows=chunk_rows) as table:
            return execute(plan, StoreSource(table))

    @pytest.mark.parametrize("encoding", ["dict", "for", "delta", "leco"])
    def test_filter_groupby_matches_reference(self, encoding):
        columns = self._columns()
        ts = columns["ts"]
        lo, hi = int(ts[1000]), int(ts[2500])
        res = self._run(columns, encoding, groupby_avg(lo, hi))
        mask = (ts >= lo) & (ts < hi)
        assert res.stats.rows_scanned == int(mask.sum())
        expected = {int(key): float(columns["val"][
            mask & (columns["id"] == key)].mean())
            for key in np.unique(columns["id"][mask])}
        assert set(res.groups) == set(expected)
        for key, avg in expected.items():
            assert res.groups[key]["avg"] == pytest.approx(avg, rel=1e-9)

    def test_all_encodings_agree(self):
        columns = self._columns()
        ts = columns["ts"]
        plan = groupby_avg(int(ts[100]), int(ts[400]))
        answers = [self._run(columns, encoding, plan).groups
                   for encoding in ("dict", "for", "delta", "leco")]
        assert all(a == answers[0] for a in answers)

    def test_empty_selection(self):
        res = self._run(self._columns(), "leco", groupby_avg(-100, -50))
        assert res.stats.rows_scanned == 0
        assert res.groups == {}

    def test_avg_merges_exactly_across_row_groups(self):
        # group 7 straddles the chunk boundary unevenly (3 rows, then 1):
        # merging per-group averages as a mean-of-means would report
        # (30 + 110) / 2 = 70, the exact answer is 200 / 4 = 50
        columns = {
            "ts": np.arange(8, dtype=np.int64),
            "id": np.array([7, 7, 7, 1, 7, 1, 1, 1], dtype=np.int64),
            "val": np.array([10, 20, 60, 5, 110, 7, 9, 11],
                            dtype=np.int64),
        }
        res = self._run(columns, "plain", groupby_avg(0, 8), chunk_rows=4)
        assert res.groups[7]["avg"] == pytest.approx(50.0)
        assert res.groups[1]["avg"] == pytest.approx(8.0)

    @pytest.mark.parametrize("encoding", ["dict", "delta", "leco"])
    def test_bitmap_aggregation_matches_reference(self, encoding):
        columns = self._columns()
        bitmap = zipf_cluster_bitmap(len(columns["ts"]), 0.02, seed=4)
        res = self._run(columns, encoding, bitmap_sum(bitmap))
        assert res.groups[None]["total"] == int(columns["val"][bitmap].sum())

    def test_bitmap_aggregation_skips_row_groups(self):
        columns = self._columns()
        bitmap = np.zeros(len(columns["ts"]), dtype=bool)
        bitmap[:100] = True  # only the first chunk is touched
        with cold_table(columns, "leco", chunk_rows=4000) as table:
            res = execute(bitmap_sum(bitmap), StoreSource(table))
            first = table.shards[0].by_column["val"][0]
        assert (res.stats.reads, res.stats.bytes_read) == (1, first.nbytes)


class TestOps:
    def test_zipf_bitmap_selectivity(self):
        bitmap = zipf_cluster_bitmap(100_000, 0.01)
        assert 0.004 <= bitmap.mean() <= 0.03
