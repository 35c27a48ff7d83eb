"""Tests for the persistent sharded columnar store (``repro.store``)."""

import json
import os

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False

from repro import codecs
from repro.exec import MorselScheduler
from repro.obs import metrics as obs_metrics
from repro.store import (
    ChunkCache,
    Table,
    TableWriter,
    write_table,
)
from repro.store import format as store_format
from repro.store.cli import main as cli_main

INT_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_integers]


def make_values(codec: str, n: int, seed: int = 7) -> np.ndarray:
    """Integer data honouring the codec's input capabilities."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([
        np.cumsum(rng.integers(0, 50, n // 2)),
        rng.integers(-(1 << 33), 1 << 33, n - n // 2),
    ]).astype(np.int64)
    if codecs.info(codec).requires_sorted:
        values = np.sort(np.abs(values))
    return values


def sensor_table(tmp_path, n=6000, shard_rows=1500, chunk_rows=250,
                 codec="auto", seed=3):
    from repro.datasets import sensor_fixture

    columns = sensor_fixture(n, seed=seed)
    path = str(tmp_path / "table")
    write_table(path, columns, codec=codec, shard_rows=shard_rows,
                chunk_rows=chunk_rows)
    return path, columns


class TestFormat:
    def _footer(self):
        chunks = (
            store_format.ChunkMeta("ts", 0, 100, 5, 42, "leco",
                                   -7, 10 ** 13, "model"),
            store_format.ChunkMeta("ts", 100, 60, 47, 30, "plain",
                                   0, 5, "computed"),
        )
        return store_format.ShardFooter(row_start=400, n_rows=160,
                                        chunks=chunks)

    def test_footer_roundtrip(self):
        footer = self._footer()
        blob = (store_format.SHARD_MAGIC + bytes([store_format.VERSION])
                + b"\x00" * 77 + store_format.pack_footer(footer))
        assert store_format.unpack_footer(blob) == footer

    def test_footer_json_is_the_dataclass_dict(self):
        """The catalog entries are built field by field, not through
        ``dataclasses.asdict``'s recursive copy: same bytes."""
        import dataclasses
        import zlib

        footer = self._footer()
        body = json.dumps({
            "version": store_format.VERSION, "row_start": footer.row_start,
            "n_rows": footer.n_rows,
            "chunks": [dataclasses.asdict(c) for c in footer.chunks],
        }, separators=(",", ":")).encode()
        assert store_format.pack_footer(footer) == (
            body + zlib.crc32(body).to_bytes(4, "little")
            + len(body).to_bytes(8, "little") + store_format.FOOTER_MAGIC)

    def test_foreign_magic_rejected(self):
        with pytest.raises(ValueError, match="not a repro store shard"):
            store_format.unpack_footer(b"PAR1" + b"\x00" * 64)

    def test_truncated_trailer_rejected(self):
        footer = self._footer()
        blob = (store_format.SHARD_MAGIC + bytes([store_format.VERSION])
                + store_format.pack_footer(footer))
        with pytest.raises(ValueError):
            store_format.unpack_footer(blob[:-3])

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a store table"):
            Table.open(str(tmp_path))


class TestModelBounds:
    def test_leco_bounds_cover_values(self):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.integers(-30, 60, 5000)).astype(np.int64)
        seq = codecs.get("leco", partitioner=256).encode(values)
        lo, hi = seq.model_bounds()
        assert lo <= int(values.min())
        assert hi >= int(values.max())

    def test_base_sequences_have_no_bounds(self):
        values = np.arange(100, dtype=np.int64)
        assert codecs.get("rans").encode(values).model_bounds() is None
        assert codecs.get("plain").encode(values).model_bounds() is None

    def test_capability_flag_matches_behaviour(self):
        """`supports_model_bounds` is the explicit contract the writer
        and the exec planner read: flagged codecs deliver bounds, and
        bounds are never consulted for unflagged ones."""
        values = np.cumsum(np.ones(500, dtype=np.int64))
        for name in INT_CODECS:
            info = codecs.info(name)
            seq = codecs.get(name).encode(values)
            if info.supports_model_bounds:
                lo, hi = seq.model_bounds()
                assert lo <= 1 and hi >= 500, name

    def test_non_monotone_models_never_prune_stored_values(self, tmp_path):
        """A poly2 partition has no cheap sound band.  Its bound must be
        the whole int64 range (the old +-2**62 sentinel excluded stored
        values beyond it) and the chunk's zone map the exact min/max."""
        from repro.codecs import CodecSpec
        from repro.exec import Plan, col
        from repro.store.executor import StoreSource

        values = np.iinfo(np.int64).min + 3 * np.arange(8192, dtype=np.int64)
        lo, hi = int(values[100]), int(values[200])
        seq = codecs.get("leco", regressor="poly2").encode(values)
        assert seq.model_bounds() is None
        assert int(seq.filter_range(lo, hi).sum()) == 100
        path = str(tmp_path / "t")
        write_table(path, {"a": values},
                    codec=CodecSpec(codec="leco", regressor="poly2"))
        plan = Plan.scan(["a"]).where(col("a").between(lo, hi))
        with Table.open(path) as table:
            assert {c.bounds for c in table.shards[0].footer.chunks} == \
                {"computed"}
            pruned = plan.execute(StoreSource(table))
            unpruned = plan.execute(StoreSource(table), prune=False)
        assert np.array_equal(pruned.columns["a"], values[100:200])
        assert np.array_equal(pruned.row_ids, unpruned.row_ids)
        assert pruned.stats.granules_pruned == 1  # a real zone map now

    def test_store_zone_map_sources(self, tmp_path):
        path = str(tmp_path / "t")
        values = np.cumsum(np.ones(1000, dtype=np.int64))
        write_table(path, {"a": values, "b": values},
                    codec={"a": "leco", "b": "rans"}, chunk_rows=200)
        with Table.open(path) as table:
            chunks = table.shards[0].footer.chunks
            sources = {c.column: c.bounds for c in chunks}
            assert sources == {"a": "model", "b": "computed"}
            for c in chunks:
                seg = values[c.row_start: c.row_start + c.n_rows]
                assert c.zmin <= int(seg.min())
                assert c.zmax >= int(seg.max())

    def test_source_zone_maps_are_the_footer_metas(self, tmp_path):
        """``StoreSource.zone_maps`` is the footer catalog as arrays: one
        entry per granule, in granule order across shards, read-only
        and built once per column."""
        from repro.store.executor import StoreSource

        path = str(tmp_path / "t")
        rng = np.random.default_rng(4)
        values = np.cumsum(rng.integers(-20, 50, 1000)).astype(np.int64)
        write_table(path, {"a": values, "b": values % 97},
                    codec={"a": "leco", "b": "rans"}, shard_rows=300,
                    chunk_rows=128)
        with Table.open(path) as table:
            source = StoreSource(table)
            granules = source.granules()
            starts, counts = source.granule_extents()
            assert starts.tolist() == [g.row_start for g in granules]
            assert counts.tolist() == [g.n_rows for g in granules]
            for column in table.column_names:
                # each footer meta keyed by its global first row
                metas = {shard.row_start + c.row_start: (c.zmin, c.zmax)
                         for shard in table.shards
                         for c in shard.footer.chunks if c.column == column}
                zmin, zmax = source.zone_maps(column)
                assert list(zip(zmin.tolist(), zmax.tolist())) == [
                    metas[g.row_start] for g in granules]
                assert zmin.dtype == zmax.dtype == np.int64
                assert not zmin.flags.writeable
                assert source.zone_maps(column)[0] is zmin


class TestWriter:
    def test_streaming_append_equals_one_shot(self, tmp_path):
        rng = np.random.default_rng(5)
        cols = {"a": rng.integers(0, 1000, 3000).astype(np.int64),
                "b": np.cumsum(rng.integers(0, 9, 3000)).astype(np.int64)}
        one = str(tmp_path / "one")
        write_table(one, cols, shard_rows=700, chunk_rows=128)
        streamed = str(tmp_path / "streamed")
        with TableWriter(streamed, shard_rows=700,
                         chunk_rows=128) as writer:
            for start in range(0, 3000, 450):
                writer.append({k: v[start: start + 450]
                               for k, v in cols.items()})
        with Table.open(one) as t1, Table.open(streamed) as t2:
            for name in cols:
                assert np.array_equal(t1.read_column(name),
                                      t2.read_column(name))
            assert len(t1.shards) == len(t2.shards)

    def test_schema_and_dtype_validation(self, tmp_path):
        writer = TableWriter(str(tmp_path / "t"))
        writer.append({"a": np.arange(10)})
        with pytest.raises(ValueError, match="do not match the schema"):
            writer.append({"b": np.arange(10)})
        with pytest.raises(TypeError, match="integer input required"):
            writer.append({"a": np.linspace(0, 1, 10)})
        with pytest.raises(ValueError, match="length mismatch"):
            TableWriter(str(tmp_path / "u")).append(
                {"a": np.arange(10), "b": np.arange(9)})

    def test_overwrite_protection_and_cleanup(self, tmp_path):
        path = str(tmp_path / "t")
        write_table(path, {"a": np.arange(5000)}, shard_rows=1000)
        assert Table.versions(path) == [0]  # on a chain from the start
        with pytest.raises(ValueError, match="already holds"):
            TableWriter(path)
        write_table(path, {"a": np.arange(800)}, shard_rows=1000,
                    overwrite=True)
        # the next generation, never generation 0 again — and nothing
        # of the superseded one (shards, manifest) is left behind
        assert Table.versions(path) == [1]
        shard_files = [f for f in os.listdir(path) if f.endswith(".rps")]
        assert len(shard_files) == 1
        assert sorted(set(os.listdir(path)) - set(shard_files)) == \
            ["CURRENT", store_format.manifest_file_name(1)]
        with Table.open(path) as table:
            assert table.n_rows == 800 and table.generation == 1
        with pytest.raises(ValueError, match=r"no manifest for version 0 "
                                             r".*\(published: 1\)"):
            Table.open(path, version=0)

    def test_rejected_batch_leaves_writer_untouched(self, tmp_path):
        writer = TableWriter(str(tmp_path / "t"))
        writer.append({"a": np.arange(10), "b": np.arange(100, 110)})
        with pytest.raises(ValueError, match="length mismatch"):
            writer.append({"a": np.arange(10), "b": np.arange(9)})
        writer.append({"a": np.arange(10, 20), "b": np.arange(200, 210)})
        writer.close()
        with Table.open(str(tmp_path / "t")) as table:
            assert np.array_equal(table.read_column("a"), np.arange(20))
            assert np.array_equal(
                table.read_column("b"),
                np.concatenate([np.arange(100, 110), np.arange(200, 210)]))

    def test_failed_overwrite_leaves_old_table_intact(self, tmp_path):
        path = str(tmp_path / "t")
        write_table(path, {"a": np.arange(2000)}, shard_rows=500)
        with pytest.raises(RuntimeError):
            with TableWriter(path, overwrite=True, shard_rows=500) as w:
                w.append({"a": np.arange(700)})  # flushes one shard
                raise RuntimeError("ingest source died")
        # the previous table (manifest + shards) still opens and serves
        with Table.open(path) as table:
            assert table.n_rows == 2000
            assert np.array_equal(table.read_column("a"), np.arange(2000))

    def test_uint64_beyond_int64_rejected(self, tmp_path):
        big = np.array([2 ** 63 + 5, 1, 2], dtype=np.uint64)
        with pytest.raises(ValueError, match="exceeds the int64 range"):
            write_table(str(tmp_path / "t"), {"a": big}, codec="plain")
        small = np.array([1, 2, 3], dtype=np.uint32)
        write_table(str(tmp_path / "u"), {"a": small}, codec="plain")
        with Table.open(str(tmp_path / "u")) as table:
            assert np.array_equal(table.read_column("a"), [1, 2, 3])

    def test_full_range_hashes_ingest_under_every_codec(self, tmp_path):
        """64-bit hashes span more than 2**63: the default ``"auto"`` (and
        every named codec) must publish and scan back equal."""
        hashes = np.random.default_rng(5).integers(
            -2 ** 63, 2 ** 63 - 1, 8192)
        for codec in ["auto"] + [n for n in INT_CODECS
                                 if not codecs.info(n).requires_sorted]:
            path = str(tmp_path / codec)
            write_table(path, {"h": hashes}, codec=codec)
            with Table.open(path) as table:
                assert np.array_equal(table.read_column("h"), hashes), codec
                got = table.scan(["h"], where=(
                    "h", int(hashes[7]), int(hashes[7]) + 1))
                assert list(got.row_ids) == [7], codec

    def test_spec_fields_reach_every_partitioned_codec(self, tmp_path):
        """A CodecSpec means exactly the spec, for delta as for leco."""
        from repro.codecs import CodecSpec

        values = np.cumsum(np.arange(4096) % 5).astype(np.int64)
        for name in ("delta", "for", "leco"):
            path = str(tmp_path / name)
            with TableWriter(path, codec=CodecSpec(
                    codec=name, max_partition_size=64),
                    chunk_rows=2048) as writer:
                writer.append({"a": values})
            with Table.open(path) as table:
                assert np.array_equal(table.read_column("a"), values)
                chunk = table.shards[0].footer.chunks[0]
                seq = table.revive_chunk(0, chunk)
            lengths = seq.lengths if name != "delta" else [
                p.length for p in seq.partitions]
            assert sum(lengths) == 2048 and max(lengths) <= 64, name

    def test_per_column_codec_specs_stay_distinct(self, tmp_path):
        from repro.codecs import CodecSpec

        values = np.cumsum(np.ones(1000, dtype=np.int64))
        writer = TableWriter(str(tmp_path / "t"), codec={
            "a": CodecSpec(codec="leco", mode="fix"),
            "b": CodecSpec(codec="leco", mode="var"),
        }, chunk_rows=250)
        writer.append({"a": values, "b": values})
        writer.close()
        # both specs were constructed (not the first one reused for both)
        spec_keys = [k for k in writer._codec_cache if
                     isinstance(k, CodecSpec)]
        assert {k.mode for k in spec_keys} == {"fix", "var"}

    def test_schema_validated_at_construction(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate column name"):
            TableWriter(str(tmp_path / "a"), schema=["x", "y", "x"])
        with pytest.raises(ValueError, match="zero-column schema"):
            TableWriter(str(tmp_path / "b"), schema=[])
        with pytest.raises(ValueError, match="no codec configured"):
            TableWriter(str(tmp_path / "c"), schema=["x", "y"],
                        codec={"x": "leco"})
        # a valid declared schema is enforced against the first batch
        writer = TableWriter(str(tmp_path / "d"), schema=["x", "y"])
        with pytest.raises(ValueError, match="do not match the schema"):
            writer.append({"x": np.arange(5)})
        writer.append({"x": np.arange(5), "y": np.arange(5)})
        writer.close()
        with Table.open(str(tmp_path / "d")) as table:
            assert table.column_names == ("x", "y")

    def test_close_without_rows_rejected(self, tmp_path):
        writer = TableWriter(str(tmp_path / "t"), schema=["x"])
        with pytest.raises(ValueError, match="ingested no rows"):
            writer.close()

    def test_unknown_scan_columns_raise_keyerror(self, tmp_path):
        path, _ = sensor_table(tmp_path, n=1000, shard_rows=500)
        with Table.open(path) as table:
            with pytest.raises(KeyError, match="available: ts, sensor_id"):
                table.scan(columns=["nope"])
            with pytest.raises(KeyError, match="unknown predicate column"):
                table.scan(where=("bogus", 0, 1))

    def test_shard_and_chunk_geometry(self, tmp_path):
        path = str(tmp_path / "t")
        write_table(path, {"a": np.arange(2500)}, shard_rows=1000,
                    chunk_rows=300)
        with Table.open(path) as table:
            assert [s.footer.n_rows for s in table.shards] == \
                [1000, 1000, 500]
            assert [s.footer.row_start for s in table.shards] == \
                [0, 1000, 2000]
            tail = table.shards[-1].by_column["a"]
            assert [c.n_rows for c in tail] == [300, 200]


class TestScanCorrectness:
    """``Table.scan`` — the store's one-range wrapper over the
    executor — returns what numpy selects, for every codec."""

    @pytest.mark.parametrize("codec", INT_CODECS)
    def test_pruned_scan_matches_naive(self, codec, tmp_path):
        values = make_values(codec, 1200)
        rid = np.arange(len(values), dtype=np.int64)
        path = str(tmp_path / "t")
        write_table(path, {"v": values, "rid": rid}, codec=codec,
                    shard_rows=400, chunk_rows=100)
        with Table.open(path) as table:
            assert np.array_equal(table.read_column("v"), values)
            span = int(values.max() - values.min())
            for lo_q, hi_q in [(0.3, 0.35), (0.0, 1.0), (0.9, 0.91)]:
                lo = int(values.min()) + int(span * lo_q)
                hi = int(values.min()) + int(span * hi_q)
                res = table.scan(columns=["rid", "v"], where=("v", lo, hi))
                mask = (values >= lo) & (values < hi)
                assert np.array_equal(res.row_ids, np.flatnonzero(mask))
                assert np.array_equal(res.columns["v"], values[mask])
                assert np.array_equal(res.columns["rid"], rid[mask])

    def test_empty_result_and_all_chunks_pruned(self, tmp_path):
        values = np.arange(1000, 2000, dtype=np.int64)
        path = str(tmp_path / "t")
        write_table(path, {"v": values}, codec="plain", shard_rows=250,
                    chunk_rows=50)
        with Table.open(path) as table:
            res = table.scan(where=("v", 10, 20))  # below the domain
            assert res.n_rows == 0
            assert res.columns["v"].size == 0
            stats = res.stats
            # plain zone maps are exact: every chunk pruned, zero bytes
            assert stats.granules_pruned == stats.granules_total == 20
            assert stats.bytes_read == 0
            # empty range inside the domain
            res = table.scan(where=("v", 1500, 1500))
            assert res.n_rows == 0

    def test_projected_predicate_column_loads_chunks_once(self, tmp_path):
        values = np.arange(1000, dtype=np.int64)
        path = str(tmp_path / "t")
        write_table(path, {"v": values}, codec="plain", shard_rows=500,
                    chunk_rows=100)
        with Table.open(path, cache_bytes=0) as table:
            res = table.scan(columns=["v"], where=("v", 150, 350))
            assert np.array_equal(res.columns["v"], np.arange(150, 350))
            surviving = [
                c for s in table.shards for c in s.by_column["v"]
                if not (c.zmax < 150 or c.zmin >= 350)]
            # filter + gather reuse one load per surviving chunk
            assert res.stats.chunks_scanned == len(surviving)
            assert res.stats.bytes_read == sum(c.nbytes for c in surviving)

    def test_unpruned_scan_same_answer_more_bytes(self, tmp_path):
        path, columns = sensor_table(tmp_path)
        ts = columns["ts"]
        lo, hi = int(ts[2000]), int(ts[2080])
        with Table.open(path, cache_bytes=0) as table:
            pruned = table.scan(columns=["reading"], where=("ts", lo, hi))
            unpruned = table.scan(columns=["reading"], where=("ts", lo, hi),
                                  prune=False)
            assert np.array_equal(pruned.columns["reading"],
                                  unpruned.columns["reading"])
            assert pruned.stats.granules_pruned > 0
            assert unpruned.stats.granules_pruned == 0
            assert pruned.stats.bytes_read < unpruned.stats.bytes_read


if HAVE_HYPOTHESIS:
    class TestScanProperty:
        @pytest.mark.parametrize("codec", INT_CODECS)
        @given(data=st.data())
        @settings(max_examples=8, deadline=None)
        def test_pruned_scan_matches_naive_property(self, codec,
                                                    tmp_path_factory, data):
            raw = data.draw(st.lists(
                st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=300))
            values = np.array(raw, dtype=np.int64)
            if codecs.info(codec).requires_sorted:
                values = np.sort(np.abs(values))
            path = str(tmp_path_factory.mktemp("prop") / "t")
            write_table(path, {"v": values}, codec=codec, shard_rows=64,
                        chunk_rows=16)
            lo = data.draw(st.integers(-(1 << 41), 1 << 41))
            hi = data.draw(st.integers(-(1 << 41), 1 << 41))
            if lo > hi:
                lo, hi = hi, lo
            with Table.open(path) as table:
                res = table.scan(where=("v", lo, hi))
                mask = (values >= lo) & (values < hi)
                assert np.array_equal(res.row_ids, np.flatnonzero(mask))
                assert np.array_equal(res.columns["v"], values[mask])


class TestReopen:
    def test_reopen_round_trips_bytes_identically(self, tmp_path):
        path, columns = sensor_table(tmp_path)
        first = Table.open(path)
        chunk_images = [
            first.chunk_bytes(i, meta)
            for i, shard in enumerate(first.shards)
            for meta in shard.footer.chunks
        ]
        answer = first.scan(where=("ts", 100, 5000))
        first.close()

        second = Table.open(path)  # a brand-new process-state instance
        reread = [
            second.chunk_bytes(i, meta)
            for i, shard in enumerate(second.shards)
            for meta in shard.footer.chunks
        ]
        assert chunk_images == reread
        for blob in reread:  # every chunk revives through the envelope
            assert blob[:4] == codecs.MAGIC
        res = second.scan(where=("ts", 100, 5000))
        assert np.array_equal(res.row_ids, answer.row_ids)
        for name in res.columns:
            assert np.array_equal(res.columns[name], answer.columns[name])
        for name, col in columns.items():
            assert np.array_equal(second.read_column(name), col)
        second.close()


class TestParallelAndCache:
    def test_thread_counts_agree(self, tmp_path):
        path, columns = sensor_table(tmp_path, n=8000, shard_rows=1000)
        ts = columns["ts"]
        lo, hi = int(ts[1000]), int(ts[4000])
        with Table.open(path) as table:
            results = [table.scan(where=("ts", lo, hi))]
            for workers in (1, 2, 4):
                with MorselScheduler(workers=workers) as pool:
                    results.append(table.scan(where=("ts", lo, hi),
                                              scheduler=pool))
            for res in results[1:]:
                assert np.array_equal(res.row_ids, results[0].row_ids)
                for name in res.columns:
                    assert np.array_equal(res.columns[name],
                                          results[0].columns[name])

    def test_warm_scan_reads_zero_bytes(self, tmp_path):
        path, _ = sensor_table(tmp_path)
        with Table.open(path) as table:
            cold = table.scan()
            assert cold.stats.bytes_read == cold.stats.bytes_scanned > 0
            warm = table.scan()
            assert warm.stats.bytes_read == 0
            assert warm.stats.cache_hits == warm.stats.chunks_scanned > 0
            for name in cold.columns:
                assert np.array_equal(warm.columns[name],
                                      cold.columns[name])

    def test_tiny_cache_still_correct_and_bounded(self, tmp_path):
        path, columns = sensor_table(tmp_path)
        with Table.open(path, cache_bytes=4096) as table:
            res = table.scan()
            for name, col in columns.items():
                assert np.array_equal(res.columns[name], col)
            assert table.cache.used_bytes <= 4096 + max(
                c.nbytes for s in table.shards for c in s.footer.chunks)

    def test_cache_disabled(self, tmp_path):
        path, _ = sensor_table(tmp_path)
        with Table.open(path, cache_bytes=0) as table:
            assert table.cache is None
            first = table.scan()
            second = table.scan()
            assert first.stats.bytes_read == second.stats.bytes_read > 0

    def test_lru_eviction_order(self):
        evictions = obs_metrics.default_registry().get(
            "repro_cache_evictions_total")
        before = evictions.value
        cache = ChunkCache(capacity_bytes=100)
        cache.get_or_load("a", lambda: 1, 40)
        cache.get_or_load("b", lambda: 2, 40)
        cache.get_or_load("a", lambda: None, 40)    # refresh a
        _, _, evicted = cache.get_or_load("c", lambda: 3, 40)  # evicts b
        assert evicted == 1
        value, hit, _ = cache.get_or_load("b", lambda: 9, 40)
        assert (value, hit) == (9, False)
        assert cache.get_or_load("a", lambda: None, 40)[1] in (True, False)
        assert evictions.value - before >= 1
        assert cache.stats() == {"entries": len(cache),
                                 "used_bytes": cache.used_bytes,
                                 "capacity_bytes": 100}


class TestCLI:
    def test_ingest_info_scan(self, tmp_path, capsys):
        out = str(tmp_path / "cli_table")
        assert cli_main(["ingest", "--out", out, "--fixture", "sensors",
                         "--rows", "4000", "--shard-rows", "1000",
                         "--chunk-rows", "200"]) == 0
        assert "ingested 4000 rows" in capsys.readouterr().out
        assert cli_main(["info", out, "--chunks"]) == 0
        text = capsys.readouterr().out
        assert '"n_rows": 4000' in text and "zone [" in text
        assert cli_main(["scan", out, "--columns", "sensor_id,reading",
                         "--where", "ts:1000:2000", "--limit", "2"]) == 0
        text = capsys.readouterr().out
        assert "rows in" in text and "pruned" in text

    def test_scan_rejects_bad_where(self):
        with pytest.raises(SystemExit):
            cli_main(["scan", "x", "--where", "notarange"])

    def test_scan_unknown_column_one_line_error(self, tmp_path, capsys):
        out = str(tmp_path / "cli_err")
        cli_main(["ingest", "--out", out, "--rows", "1000",
                  "--shard-rows", "500", "--chunk-rows", "100"])
        capsys.readouterr()
        assert cli_main(["scan", out, "--columns", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one clean line, no traceback
        assert "unknown column" in err and "available: ts" in err
        assert cli_main(["scan", out, "--where", "bogus:0:9"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "available: ts" in err

    def test_scan_explain_flag(self, tmp_path, capsys):
        out = str(tmp_path / "cli_explain")
        cli_main(["ingest", "--out", out, "--rows", "4000",
                  "--shard-rows", "1000", "--chunk-rows", "200"])
        capsys.readouterr()
        assert cli_main(["scan", out, "--columns", "reading",
                         "--where", "ts:100:900", "--explain"]) == 0
        text = capsys.readouterr().out
        assert "Filter[pushed:" in text and "Scan[store:" in text
        assert "granules:" in text


class TestEndToEnd:
    """The acceptance path: ingest -> reopen -> pruned selective scan."""

    def test_ingest_reopen_selective_scan(self, tmp_path):
        from repro.datasets import sensor_fixture

        columns = sensor_fixture(20_000, seed=11)
        path = str(tmp_path / "e2e")
        with TableWriter(path, codec="auto", shard_rows=4096,
                         chunk_rows=512) as writer:
            for start in range(0, 20_000, 3000):  # streaming ingest
                writer.append({k: v[start: start + 3000]
                               for k, v in columns.items()})

        # a brand-new Table instance from the same directory
        with Table.open(path) as table:
            ts = columns["ts"]
            lo, hi = int(ts[9000]), int(ts[9100])  # ~0.5% selectivity
            res = table.scan(columns=["sensor_id", "reading"],
                             where=("ts", lo, hi))
            mask = (ts >= lo) & (ts < hi)
            assert np.array_equal(res.row_ids, np.flatnonzero(mask))
            assert np.array_equal(res.columns["sensor_id"],
                                  columns["sensor_id"][mask])
            assert np.array_equal(res.columns["reading"],
                                  columns["reading"][mask])
            # the selective scan must touch strictly fewer stored bytes
            # than a full scan of the same projection
            table.cache.clear()
            full = table.scan(columns=["sensor_id", "reading"])
            assert 0 < res.stats.bytes_read < full.stats.bytes_read


#: sha256 over the ``.rps`` files (name, then bytes, in name order) of the
#: table below, computed at the commit before the encoder went matrix-
#: shaped (PR 23's parent).  A change that moves one moved stored bytes.
GOLDEN_TABLE_DIGESTS = {
    1: "c77039e841dd42cd6a845e43bc302f348443c35098c4dcbded0e922936b4f393",
    5: "b132f97f296f78b6c99b3dfbd4010e01c93ac5d115469981d4e0f453799beead",
}


class TestGoldenTable:
    """The store's bytes, end to end: an ``"auto"`` ingest (ragged last
    chunk and shard), then an append + flush and a compaction through the
    same encode site."""

    @pytest.mark.parametrize("seed", sorted(GOLDEN_TABLE_DIGESTS))
    def test_shard_bytes_are_pinned(self, tmp_path, seed):
        import hashlib

        from repro.datasets import sensor_fixture
        from repro.exec import col
        from repro.mutate import MutableTable

        path = str(tmp_path / "t")
        columns = sensor_fixture(100_000, seed=seed)
        with TableWriter(path, codec="auto", shard_rows=25_000,
                         chunk_rows=2048) as writer:
            writer.append(columns)
        with MutableTable.open(path) as table:
            extra = sensor_fixture(5_000, seed=seed + 100)
            extra["ts"] = extra["ts"] + int(columns["ts"].max()) + 1
            table.append(extra)
            table.flush()
            table.delete(col("ts") < int(columns["ts"][15_000]))
            assert table.compact() is not None
        names = sorted(n for n in os.listdir(path) if n.endswith(".rps"))
        assert len(names) == 6      # 4 ingested, 1 flushed, 1 compacted
        digest = hashlib.sha256()
        for name in names:
            digest.update(name.encode())
            with open(os.path.join(path, name), "rb") as fh:
                digest.update(fh.read())
        assert digest.hexdigest() == GOLDEN_TABLE_DIGESTS[seed]


class TestForwardCompat:
    """Readers must reject newer format versions with a clear error
    naming both versions, never misparse (satellite, PR 5)."""

    def test_newer_shard_version_named_in_error(self):
        blob = bytearray(store_format.SHARD_MAGIC)
        blob.append(store_format.VERSION + 1)
        blob += b"\x00" * 64
        blob += store_format.pack_footer(store_format.ShardFooter(0, 0, ()))
        with pytest.raises(ValueError, match=(
                rf"version {store_format.VERSION + 1} is newer than the "
                rf"supported version {store_format.VERSION}")):
            store_format.unpack_footer(bytes(blob))

    def test_newer_manifest_version_named_in_error(self, tmp_path):
        path = str(tmp_path / "t")
        write_table(path, {"a": np.arange(10)})
        manifest_path = os.path.join(
            path, store_format.manifest_file_name(0))
        with open(manifest_path) as fh:
            doc = json.load(fh)
        doc["version"] = store_format.VERSION + 1
        with open(manifest_path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match=(
                rf"version {store_format.VERSION + 1} is newer than the "
                rf"supported version {store_format.VERSION}")):
            Table.open(path)

    def test_newer_deletion_vector_version_named_in_error(self):
        blob = bytearray(store_format.pack_deletion_vector(
            np.zeros(8, dtype=bool)))
        blob[4] = store_format.DV_VERSION + 1
        with pytest.raises(ValueError, match=(
                rf"version {store_format.DV_VERSION + 1} is newer than "
                rf"the supported version {store_format.DV_VERSION}")):
            store_format.unpack_deletion_vector(bytes(blob))

    def test_deletion_vector_roundtrip_and_corruption(self):
        mask = np.zeros(100, dtype=bool)
        mask[[0, 17, 99]] = True
        blob = store_format.pack_deletion_vector(mask)
        assert np.array_equal(store_format.unpack_deletion_vector(blob),
                              mask)
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF
        with pytest.raises(ValueError, match="checksum mismatch"):
            store_format.unpack_deletion_vector(bytes(corrupt))
        with pytest.raises(ValueError, match="not a deletion-vector"):
            store_format.unpack_deletion_vector(b"XXXX" + blob[4:])


class TestCacheStatsExplain:
    """Cache hits/misses flow through ExecStats into explain()
    (satellite, PR 5)."""

    def test_explain_reports_hits_and_misses(self, tmp_path):
        from repro.exec import Plan
        from repro.store.executor import StoreSource

        path, _ = sensor_table(tmp_path, n=4000, shard_rows=1000,
                               chunk_rows=250)
        with Table.open(path) as table:
            source = StoreSource(table)
            plan = Plan.scan(["reading"])
            cold = plan.execute(source)
            assert cold.stats.cache_misses > 0
            assert cold.stats.cache_hits == 0
            assert (f"cache: 0 hits, {cold.stats.cache_misses} misses"
                    in cold.explain())
            warm = plan.execute(source)
            assert warm.stats.cache_misses == 0
            assert warm.stats.cache_hits == cold.stats.cache_misses
            assert (f"cache: {warm.stats.cache_hits} hits, 0 misses"
                    in warm.explain())
            assert warm.stats.bytes_read == 0
            # Table.scan returns the same ExecStats
            scanned = table.scan(columns=["reading"])
            assert scanned.stats.cache_hits > 0
            assert scanned.stats.cache_misses == 0

    def test_uncached_table_counts_no_cache_traffic(self, tmp_path):
        from repro.exec import Plan
        from repro.store.executor import StoreSource

        path, _ = sensor_table(tmp_path, n=2000, shard_rows=1000)
        with Table.open(path, cache_bytes=0) as table:
            res = Plan.scan(["reading"]).execute(StoreSource(table))
            assert res.stats.cache_hits == 0
            assert res.stats.cache_misses == 0
            assert res.stats.bytes_read > 0


class TestRepublishRace:
    """A reader racing TableWriter's atomic republish sees the old or
    the new table in full, never a mix (satellite, PR 5)."""

    def test_concurrent_readers_never_see_a_torn_table(self, tmp_path):
        import threading

        path = str(tmp_path / "t")
        old = {"a": np.arange(4000), "b": np.arange(4000) * 2}
        new = {"a": np.arange(5000) + 10, "b": np.arange(5000) * 3}
        write_table(path, old, shard_rows=500)

        stop = threading.Event()
        outcomes: list[str] = []
        errors: list[Exception] = []

        def reader():
            while not stop.is_set():
                try:
                    with Table.open(path, cache_bytes=0) as table:
                        a = table.read_column("a")
                        b = table.read_column("b")
                except (ValueError, OSError):
                    continue  # mid-swap transient; try again
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return
                if np.array_equal(a, old["a"]) and \
                        np.array_equal(b, old["b"]):
                    outcomes.append("old")
                elif np.array_equal(a, new["a"]) and \
                        np.array_equal(b, new["b"]):
                    outcomes.append("new")
                else:
                    errors.append(AssertionError(
                        f"torn table: {len(a)} rows, "
                        f"a[:3]={a[:3]}, b[:3]={b[:3]}"))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(10):  # republish repeatedly under the readers
                write_table(path, old, shard_rows=500, overwrite=True)
                write_table(path, new, shard_rows=500, overwrite=True)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors, errors[0]
        assert "new" in outcomes  # the readers really did observe data
