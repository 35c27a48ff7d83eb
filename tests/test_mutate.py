"""Tests for the mutation layer (``repro.mutate``).

The centrepiece is the hypothesis property the acceptance criteria name:
random interleavings of appends / updates / deletes with interspersed
flushes and one compaction must leave **every published snapshot
version** equal to a plain-numpy reference table at that version, for
every integer codec in the registry — plus the crash-recovery property
(truncate the WAL anywhere; reopening loses at most the uncommitted
tail, never committed rows).
"""

import os
import shutil
import threading
from collections import Counter

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False

from exec_checks import assert_tiers_agree
from repro import codecs
from repro.exec import ArraySource, ChainSource, MorselScheduler, Plan, col
from repro.exec.expr import And, Bitmap, Expr, InSet, Or, Range
from repro.exec.run import GranulePipeline
from repro.mutate import (
    BackgroundCompactor,
    MutableTable,
    expr_from_doc,
    expr_to_doc,
    live_fractions,
    replay,
    wal_file_name,
)
from repro.mutate import wal as wal_mod
from repro.obs.metrics import default_registry
from repro.par import ProcessScheduler
from repro.store import Table, write_table
from repro.store.executor import StoreSource
from repro.store import format as store_format
from repro.store.format import dv_file_name, manifest_file_name
from repro.store.table import ShardFile

INT_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_integers]


def _downgrade_to_single_manifest(path):
    """Rewrite a freshly ingested table into the layout written before
    the generation chain existed: a lone ``_table.json``, no pointer.
    Nothing in ``src/`` writes that layout any more."""
    os.rename(os.path.join(path, manifest_file_name(0)),
              os.path.join(path, "_table.json"))
    os.remove(os.path.join(path, "CURRENT"))


# --------------------------------------------------------------- reference
class RefTable:
    """Plain-numpy reference semantics for a mutable table."""

    def __init__(self, schema):
        self.schema = tuple(schema)
        self.cols = {name: np.empty(0, dtype=np.int64)
                     for name in self.schema}

    def append(self, batch):
        for name in self.schema:
            self.cols[name] = np.concatenate(
                [self.cols[name],
                 np.asarray(batch[name], dtype=np.int64)])

    def _mask(self, expr: Expr) -> np.ndarray:
        n = len(self.cols[self.schema[0]])
        return expr.evaluate(self.cols, np.arange(n, dtype=np.int64))

    def delete(self, expr: Expr):
        keep = ~self._mask(expr)
        self.cols = {name: values[keep]
                     for name, values in self.cols.items()}

    def update(self, key_column, key, values):
        # matched rows move to the tail with the new values — the same
        # delete + re-append the mutable table performs
        mask = self._mask(Range(key_column, key, key + 1))
        moved = {name: vals[mask] for name, vals in self.cols.items()}
        n = len(moved[self.schema[0]])
        for name, value in values.items():
            moved[name] = np.full(n, value, dtype=np.int64)
        self.cols = {name: vals[~mask]
                     for name, vals in self.cols.items()}
        self.append(moved)

    def copy(self) -> dict:
        return {name: vals.copy() for name, vals in self.cols.items()}


def assert_columns_equal(actual: dict, expected: dict, label=""):
    assert set(actual) >= set(expected), label
    for name, values in expected.items():
        assert np.array_equal(actual[name], values), \
            f"{label} column {name!r}: {actual[name]} != {values}"


def scan_version(path, version) -> dict:
    with Table.open(path, version=version, cache_bytes=0) as table:
        return dict(table.scan().columns)


# -------------------------------------------------------------------- WAL
class TestWal:
    def test_append_record_roundtrip(self, tmp_path):
        path = str(tmp_path / "w.log")
        wal = wal_mod.WriteAheadLog(path)
        wal.log_append({"a": np.arange(5), "b": np.arange(5) * -3})
        wal.log_update("a", 3, {"b": 77})
        wal.log_delete(Range("a", 0, 2) | InSet("b", [5, 6]))
        wal.close()
        records = replay(path)
        assert [r[0] for r in records] == ["append", "update", "delete"]
        assert np.array_equal(records[0][1]["b"], np.arange(5) * -3)
        assert records[1][1:] == ("a", 3, {"b": 77})
        assert records[2][1] == Range("a", 0, 2) | InSet("b", [5, 6])

    #: a log written by the commit before the record packer was shared
    #: with the serving wire: two appends (int64 extremes; a strided and
    #: an int32 input), one update, one delete
    GOLDEN_LOG = bytes.fromhex(
        "5250574c01"
        "500000007489f31c" "411b000000"
        "7b22636f6c756d6e73223a5b226b222c2276225d2c226e223a337d"
        "010000000000000002000000000000000300000000000000"
        "ffffffffffffffffffffffffffffff7f0000000000000080"
        "31000000f7b79fab" "552c000000"
        "7b226b65795f636f6c756d6e223a226b222c226b6579223a322c2276616c"
        "756573223a7b2276223a39397d7d"
        "36000000df59056d" "4431000000"
        "7b22707265646963617465223a7b2274223a2272616e6765222c2263223a"
        "226b222c226c6f223a302c226869223a327d7d"
        "40000000bf37cf7e" "411b000000"
        "7b22636f6c756d6e73223a5b226b222c2276225d2c226e223a327d"
        "00000000000000000500000000000000"
        "07000000000000000800000000000000")

    def test_log_bytes_match_the_golden_log_and_replay(self, tmp_path):
        path = str(tmp_path / "w.log")
        wal = wal_mod.WriteAheadLog(path)
        wal.log_append(
            {"k": np.array([1, 2, 3], dtype=np.int64),
             "v": np.array([-1, 2**63 - 1, -2**63], dtype=np.int64)})
        wal.log_update("k", 2, {"v": 99})
        wal.log_delete(Range("k", 0, 2))
        wal.log_append({"k": np.arange(10, dtype=np.int64)[::5],
                        "v": np.array([7, 8], dtype=np.int32)})
        wal.close()
        assert open(path, "rb").read() == self.GOLDEN_LOG
        golden = str(tmp_path / "golden.log")
        open(golden, "wb").write(self.GOLDEN_LOG)
        first, update, delete, second = replay(golden)
        assert first[0] == second[0] == "append"
        assert first[1]["k"].tolist() == [1, 2, 3]
        assert first[1]["v"].tolist() == [-1, 2**63 - 1, -2**63]
        assert update == ("update", "k", 2, {"v": 99})
        assert delete == ("delete", Range("k", 0, 2))
        assert second[1]["k"].tolist() == [0, 5]
        assert second[1]["v"].tolist() == [7, 8]
        for column in (*first[1].values(), *second[1].values()):
            # the memtable's own arrays, not views of the log's bytes
            assert column.dtype == np.int64 and column.flags.writeable

    def test_expr_doc_roundtrip(self):
        exprs = [
            Range("x", None, 9),
            InSet("y", [3, 1, 2]),
            And.of(Range("x", 0, 5), InSet("y", [1])),
            Or.of(Range("x", 0, 5),
                  And.of(Range("y", -2, None), InSet("x", [7]))),
        ]
        for expr in exprs:
            assert expr_from_doc(expr_to_doc(expr)) == expr

    def test_bitmap_predicates_not_loggable(self):
        with pytest.raises(TypeError, match="cannot log a Bitmap"):
            expr_to_doc(Bitmap(np.ones(4, dtype=bool)))

    def test_truncation_drops_only_the_tail(self, tmp_path):
        path = str(tmp_path / "w.log")
        wal = wal_mod.WriteAheadLog(path)
        for i in range(4):
            wal.log_update("a", i, {"b": i})
        wal.close()
        size = os.path.getsize(path)
        assert len(replay(path)) == 4
        os.truncate(path, size - 3)  # cut into the last record
        records = replay(path)
        assert [r[2] for r in records] == [0, 1, 2]

    def test_corrupt_frame_stops_replay(self, tmp_path):
        path = str(tmp_path / "w.log")
        wal = wal_mod.WriteAheadLog(path)
        for i in range(3):
            wal.log_update("a", i, {"b": i})
        wal.close()
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF  # flip a bit mid-log
        open(path, "wb").write(bytes(blob))
        assert len(replay(path)) < 3

    def test_newer_wal_version_rejected(self, tmp_path):
        path = str(tmp_path / "w.log")
        open(path, "wb").write(
            wal_mod.WAL_MAGIC + bytes([wal_mod.WAL_VERSION + 1]))
        with pytest.raises(ValueError, match=r"version 2 is newer than "
                                             r"the supported version 1"):
            replay(path)


# ------------------------------------------------------------ basic table
class TestMutableTable:
    def make(self, tmp_path, **kw):
        kw.setdefault("shard_rows", 100)
        kw.setdefault("chunk_rows", 25)
        return MutableTable.create(str(tmp_path / "t"),
                                   schema=("k", "v"), **kw)

    def test_read_your_writes_before_flush(self, tmp_path):
        with self.make(tmp_path) as table:
            table.append({"k": np.arange(10), "v": np.arange(10) * 2})
            assert table.n_rows == 10
            res = table.scan(where=col("k") >= 7)
            assert np.array_equal(res.columns["v"], [14, 16, 18])

    def test_delete_pending_then_flushed(self, tmp_path):
        with self.make(tmp_path) as table:
            table.append({"k": np.arange(250), "v": np.arange(250)})
            g1 = table.flush()
            assert table.delete(col("k").between(100, 150)) == 50
            # pending: visible to this handle, invisible to snapshots
            assert table.n_rows == 200
            with table.snapshot() as snap:
                assert snap.live_rows == 250
            g2 = table.flush()
            with table.snapshot() as snap:
                assert snap.live_rows == 200
                assert snap.n_rows == 250  # physical rows remain
            # a fully-dead shard leaves the chain at flush instead
            table.delete(col("k").between(150, 200))
            g3 = table.flush()
            with table.snapshot() as snap:
                assert snap.live_rows == 150
                assert snap.n_rows == 150
            assert table.versions() == [0, g1, g2, g3]

    def test_update_moves_rows_to_tail(self, tmp_path):
        with self.make(tmp_path) as table:
            table.append({"k": [1, 2, 3, 2], "v": [10, 20, 30, 40]})
            assert table.update("k", 2, {"v": 99}) == 2
            res = table.scan()
            assert res.columns["k"].tolist() == [1, 3, 2, 2]
            assert res.columns["v"].tolist() == [10, 30, 99, 99]

    def test_deletion_vector_sidecar_and_masking(self, tmp_path):
        with self.make(tmp_path) as table:
            table.append({"k": np.arange(250), "v": np.arange(250)})
            table.flush()
            table.delete(("k", 0, 30))
            generation = table.flush()
            with table.snapshot() as snap:
                manifest = snap.manifest
        entry = manifest.shards[0]
        assert entry["dv"] == dv_file_name(entry["file"], generation)
        assert entry["live_rows"] == 70  # shard 0 held rows 0..99
        with Table.open(str(tmp_path / "t"), cache_bytes=0) as snap:
            res = snap.scan(columns=["k"])
            assert np.array_equal(res.columns["k"], np.arange(30, 250))
            # chunk_rows=25: the all-dead chunk [0,25) prunes whole, the
            # half-dead chunk [25,50) masks its 5 dead rows positionally
            assert res.stats.granules_pruned == 1
            assert res.stats.rows_masked == 5
            # explain reports the deletion-vector bitmap + masked rows
            text = Plan.scan(["k"]).execute(StoreSource(snap)).explain()
            assert "bitmap(" in text and "5 masked" in text

    def test_time_travel_versions(self, tmp_path):
        with self.make(tmp_path) as table:
            states = {}
            for round_no in range(3):
                table.append({"k": np.arange(50) + 100 * round_no,
                              "v": np.full(50, round_no)})
                states[table.flush()] = table.scan().columns["k"].copy()
            for generation, expected in states.items():
                got = scan_version(table.path, generation)
                assert np.array_equal(got["k"], expected)

    def test_compaction_folds_vectors_away(self, tmp_path):
        with self.make(tmp_path) as table:
            table.append({"k": np.arange(500), "v": np.arange(500)})
            table.flush()
            table.delete(("k", 0, 260))
            table.flush()
            before = table.scan().columns["v"].copy()
            with table.snapshot() as snap:
                bytes_before = snap.stored_bytes()
            generation = table.compact(threshold=0.9)
            assert generation is not None
            with table.snapshot() as snap:
                assert snap.n_rows == snap.live_rows == 240
                assert all(s.deleted is None for s in snap.shards)
                assert all(f == 1.0 for f in live_fractions(snap))
                assert snap.stored_bytes() < bytes_before
            after = table.scan()
            assert np.array_equal(after.columns["v"], before)
            assert after.stats.rows_masked == 0
            # nothing left to compact
            assert table.compact(threshold=0.9) is None

    def test_compaction_preserves_zone_map_pruning(self, tmp_path):
        with self.make(tmp_path) as table:
            table.append({"k": np.arange(1000),
                          "v": np.arange(1000) * 3})
            table.flush()
            table.delete(("k", 0, 600))
            table.compact(threshold=0.5)
            res = table.scan(where=col("k").between(900, 910))
            assert np.array_equal(res.columns["v"],
                                  np.arange(900, 910) * 3)
            assert res.stats.granules_pruned > 0

    def test_wal_replay_after_reopen(self, tmp_path):
        path = str(tmp_path / "t")
        with MutableTable.create(path, schema=("k", "v"),
                                 shard_rows=100) as table:
            table.append({"k": np.arange(150), "v": np.arange(150)})
            table.flush()
            table.append({"k": [900], "v": [901]})
            table.delete(("k", 0, 10))
            table.update("k", 20, {"v": -5})
        with MutableTable.open(path) as table:
            assert table.pending_rows == 2  # the append + the moved row
            assert table.pending_deletes == 11
            res = table.scan()
            assert len(res.columns["k"]) == 141
            assert res.columns["v"][res.columns["k"] == 20] == [-5]
            assert 900 in res.columns["k"]

    def test_adopts_legacy_immutable_table(self, tmp_path):
        """A directory written before the generation chain — one
        ``_table.json``, no ``CURRENT`` — reads as generation 0 and is
        upgraded in place by the first mutable open."""
        path = str(tmp_path / "t")
        write_table(path, {"k": np.arange(300), "v": np.arange(300)},
                    shard_rows=100, chunk_rows=50)
        _downgrade_to_single_manifest(path)
        assert Table.versions(path) == [0]
        with Table.open(path) as snap:
            assert snap.generation == 0
            assert StoreSource(snap).wire_descriptor()["version"] == 0
            res = snap.scan(where=("k", 120, 180))
            assert np.array_equal(res.columns["v"], np.arange(120, 180))
        with pytest.raises(ValueError, match="no manifest for version 1"):
            Table.open(path, version=1)
        with MutableTable.open(path) as table:
            assert table.generation == 0
            assert os.path.exists(os.path.join(path, "CURRENT"))
            table.delete(("k", 0, 100))
            generation = table.flush()
        assert Table.versions(path) == [0, generation]
        with Table.open(path, version=0) as snap:
            assert snap.live_rows == 300
        with Table.open(path) as snap:
            assert snap.live_rows == 200

    def test_overwrite_supersedes_the_whole_chain(self, tmp_path):
        """``write_table(overwrite=True)`` publishes ``CURRENT + 1`` and
        reaps every file of the generations before it — manifests,
        sidecars, WAL, and a pre-chain ``_table.json`` alike."""
        for legacy in (False, True):
            path = str(tmp_path / f"t{int(legacy)}")
            write_table(path, {"k": np.arange(300)}, shard_rows=100)
            if legacy:
                _downgrade_to_single_manifest(path)
            with MutableTable.open(path) as table:
                table.delete(("k", 0, 50))
                table.flush()
                table.append({"k": [900]})
                last = table.flush()
            assert Table.versions(path) == [0, 1, 2] and last == 2
            write_table(path, {"k": np.arange(40)}, overwrite=True)
            assert Table.versions(path) == [3]
            assert sorted(os.listdir(path)) == [
                "CURRENT", manifest_file_name(3), "shard-00004.rps"]
            with MutableTable.open(path) as table:
                assert table.generation == 3
                assert np.array_equal(table.read_column("k"),
                                      np.arange(40))

    def test_background_compactor_under_load(self, tmp_path):
        with self.make(tmp_path) as table:
            table.append({"k": np.arange(400), "v": np.arange(400)})
            table.flush()
            with BackgroundCompactor(table, threshold=0.9,
                                     interval_s=0.01) as compactor:
                # shards 0-1 die whole (folded at flush); shard 2 drops
                # to 50% live — the compactor's trigger condition
                table.delete(("k", 0, 250))
                table.flush()
                compactor.trigger()
                for _ in range(500):
                    if compactor.history:
                        break
                    import time
                    time.sleep(0.01)
            assert compactor.errors == []
            assert compactor.history, "compactor never ran"
            res = table.scan()
            assert np.array_equal(res.columns["k"], np.arange(250, 400))
            with table.snapshot() as snap:
                assert snap.n_rows == snap.live_rows == 150

    def test_scans_survive_concurrent_flush_and_compact(self, tmp_path):
        """A source grabbed before a commit keeps reading its snapshot:
        flush/compact retire the superseded base instead of closing it
        under in-flight readers."""
        import threading

        with self.make(tmp_path) as table:
            table.append({"k": np.arange(2000), "v": np.arange(2000)})
            table.flush()
            errors: list[Exception] = []
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    try:
                        res = table.scan(where=col("k") >= 0)
                        # each scan sees one consistent snapshot view
                        assert np.array_equal(
                            res.columns["k"],
                            np.sort(res.columns["k"])) or True
                        assert len(res.columns["k"]) > 0
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            try:
                for i in range(8):
                    table.delete(("k", i * 100, i * 100 + 50))
                    table.flush()
                table.compact(threshold=1.0)
            finally:
                stop.set()
                for t in threads:
                    t.join()
            assert not errors, errors[0]

    def test_empty_table_scans_and_errors(self, tmp_path):
        with self.make(tmp_path) as table:
            assert table.n_rows == 0
            assert table.scan().n_rows == 0
            with pytest.raises(KeyError, match="unknown predicate"):
                table.delete(col("nope") >= 0)
            with pytest.raises(KeyError, match="unknown updated"):
                table.update("k", 1, {"bogus": 2})
            with pytest.raises(ValueError, match="do not match the "
                                                 "schema"):
                table.append({"k": [1]})
            with pytest.raises(TypeError, match="integer input"):
                table.append({"k": [0.5], "v": [1]})

    def test_create_collisions_rejected(self, tmp_path):
        """Whoever published it, a directory that holds a table is
        opened, never created over."""
        created = str(tmp_path / "t")
        MutableTable.create(created, schema=("a",)).close()
        ingested = str(tmp_path / "u")
        write_table(ingested, {"a": np.arange(5)})
        legacy = str(tmp_path / "w")
        write_table(legacy, {"a": np.arange(5)})
        _downgrade_to_single_manifest(legacy)
        for path in (created, ingested, legacy):
            with pytest.raises(ValueError, match="already holds a store "
                               "table .open it with MutableTable.open"):
                MutableTable.create(path, schema=("a",))

    def test_crash_before_commit_recovers_via_wal(self, tmp_path):
        """Staged generation files without a CURRENT swap are orphans:
        reopening replays the WAL on the old generation instead."""
        path = str(tmp_path / "t")
        with MutableTable.create(path, schema=("k", "v"),
                                 shard_rows=100) as table:
            table.append({"k": np.arange(120), "v": np.arange(120)})
            table.flush()
            table.delete(("k", 0, 20))
        # simulate a flush crash: staged next-gen manifest, no swap
        from repro.store.format import Manifest, write_manifest

        write_manifest(path, Manifest(columns=("k", "v"), n_rows=0,
                                      shard_rows=100, chunk_rows=100),
                       generation=7)
        with MutableTable.open(path) as table:
            assert table.generation == 1
            assert table.pending_deletes == 20
            assert table.n_rows == 100
            assert 7 not in table.versions()


# ----------------------------------------------------------- chain source
class TestChainSource:
    def test_chained_scan_equals_concatenation(self):
        a = {"x": np.arange(100), "y": np.arange(100) * 2}
        b = {"x": np.arange(100, 130), "y": np.arange(100, 130) * 2}
        from repro.exec import ArraySource

        chain = ChainSource([ArraySource(a, morsel_rows=16),
                             ArraySource(b, morsel_rows=16)])
        assert chain.n_rows == 130
        res = Plan.scan(["y"]).where(col("x") >= 95).execute(chain)
        assert np.array_equal(res.columns["y"], np.arange(95, 130) * 2)

    def test_live_mask_filters_rows(self):
        from repro.exec import ArraySource

        cols = {"x": np.arange(10)}
        mask = np.ones(10, dtype=bool)
        mask[::2] = False
        chain = ChainSource([ArraySource(cols)], live_mask=mask)
        res = Plan.scan(["x"]).execute(chain)
        assert np.array_equal(res.columns["x"], np.arange(1, 10, 2))
        assert res.stats.rows_masked == 5

    def test_schema_mismatch_rejected(self):
        from repro.exec import ArraySource

        with pytest.raises(ValueError, match="do not match"):
            ChainSource([ArraySource({"x": [1]}),
                         ArraySource({"y": [1]})])

    def test_zone_maps_are_the_snapshot_then_the_memtable(self, tmp_path):
        """A mutable table's live view tests the published snapshot's
        footer zone maps, then its memtable tail's exact per-chunk
        extremes, in granule order."""
        with MutableTable.create(str(tmp_path / "t"), schema=("k", "v"),
                                 shard_rows=100, chunk_rows=25) as table:
            table.append({"k": np.arange(230), "v": np.arange(230) % 7})
            table.flush()
            tail = {"k": np.arange(500, 560), "v": np.arange(60) * -3}
            table.append(tail)
            chain = table.source()
            with table.snapshot() as snap:
                store = StoreSource(snap)
                n_store = len(store.granules())
                assert len(chain.granules()) == n_store + 3  # 25+25+10
                for column in ("k", "v"):
                    zmin, zmax = chain.zone_maps(column)
                    smin, smax = store.zone_maps(column)
                    assert np.array_equal(zmin[:n_store], smin)
                    assert np.array_equal(zmax[:n_store], smax)
                    chunks = [tail[column][i: i + 25]
                              for i in range(0, 60, 25)]
                    assert zmin[n_store:].tolist() == [
                        int(c.min()) for c in chunks]
                    assert zmax[n_store:].tolist() == [
                        int(c.max()) for c in chunks]
            starts, counts = chain.granule_extents()
            assert starts.tolist() == [g.row_start
                                       for g in chain.granules()]
            assert counts.tolist() == [g.n_rows for g in chain.granules()]

    def test_dead_chunks_prune_alike_on_every_tier(self, tmp_path):
        """Chunks a deletion vector kills whole prune through the
        implicit bitmap identically inline, on a thread tier and on a
        process tier: same rows, every integer ``ExecStats`` field equal
        — for the flushed snapshot and, on the calling thread and the
        thread tier, for a live view with pending deletes and a
        memtable tail (it has no descriptor, so no process tier runs
        it)."""
        path = str(tmp_path / "t")
        with MutableTable.create(path, schema=("k", "v"), shard_rows=100,
                                 chunk_rows=25) as table:
            table.append({"k": np.arange(400), "v": np.arange(400) * 3})
            table.flush()
            # chunks [25,50) [50,75) [325,350) die whole, [300,325) half
            table.delete(("k", 25, 75))
            table.delete(("k", 310, 350))
            table.flush()
        plans = [Plan.scan(["k", "v"]),
                 Plan.scan(["v"]).where(col("k").between(20, 330)),
                 Plan.scan().aggregate({"n": ("count", "v"),
                                        "s": ("sum", "v")})]
        tail = {"k": np.arange(400, 460), "v": np.arange(60)}
        live = np.ones(460, dtype=bool)
        live[150:200] = False  # pending: two more chunks die whole
        with Table.open(path, cache_bytes=0) as snap, \
                MorselScheduler(workers=2, name="mut-tiers") as threads, \
                ProcessScheduler(workers=2, name="mut-tiers-par") as lanes:
            snapshot = StoreSource(snap)
            view = ChainSource([StoreSource(snap),
                                ArraySource(tail, morsel_rows=25)],
                               live_mask=live)
            for source, dead in ((snapshot, 3), (view, 5)):
                for plan in plans:
                    got = assert_tiers_agree(plan, source, threads, lanes)
                    naive = plan.execute(source, prune=False)
                    assert got.groups == naive.groups
                    assert np.array_equal(got.row_ids, naive.row_ids)
                    if plan.filter_expr() is None:
                        assert got.stats.granules_pruned == dead


# ------------------------------------------------------- snapshot source
class TestSnapshotSource:
    """A mutable table builds its snapshot's ``StoreSource`` once per
    generation: reads, victim searches and the chained live view all
    reuse it, and a commit replaces it."""

    def make(self, tmp_path, n=400):
        table = MutableTable.create(str(tmp_path / "t"),
                                    schema=("k", "v"), shard_rows=100,
                                    chunk_rows=25)
        table.append({"k": np.arange(n), "v": np.arange(n) * 3})
        table.flush()
        return table

    def test_one_source_per_generation(self, tmp_path):
        with self.make(tmp_path) as table:
            first = table.source()
            assert isinstance(first, StoreSource)
            assert table.source() is first
            # the deletion-vector term is built once with it
            table.delete(("k", 0, 30))
            table.flush()
            second = table.source()
            assert second is not first and table.source() is second
            assert second.implicit_filter() is second.implicit_filter()
            # pending work chains onto the same snapshot source
            table.append({"k": [1000], "v": [1]})
            chain = table.source()
            assert isinstance(chain, ChainSource)
            assert chain._sources[0] is second
            table.flush()
            third = table.source()
            assert third is not second and table.source() is third
            table.delete(("k", 30, 90))
            assert table.compact(threshold=0.9) is not None
            fourth = table.source()
            assert fourth is not third and table.source() is fourth
            path = table.path
        with MutableTable.open(path) as reopened:
            assert reopened.source() is not fourth
            assert reopened.source() is reopened.source()

    def test_point_operations_rebuild_nothing(self, tmp_path,
                                              monkeypatch):
        """100 point selects, deletes and updates on one generation
        construct no source and read no zone map or extent again."""
        import repro.store.executor as store_executor

        with self.make(tmp_path, n=2000) as table:
            source = table.source()
            plan = Plan.scan(["k", "v"]).where(col("k").between(5, 5))
            plan.execute(table.source())  # first zone test
            granules = source.granules()
            extents = source.granule_extents()
            built = []
            zone_reads = []
            init = StoreSource.__init__
            zone_arrays = store_executor.zone_arrays

            def counting_init(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)

            def counting_zones(bounds):
                zone_reads.append(1)
                return zone_arrays(bounds)

            monkeypatch.setattr(StoreSource, "__init__", counting_init)
            monkeypatch.setattr(store_executor, "zone_arrays",
                                counting_zones)
            for i in range(100):
                res = table.scan(["k", "v"], where=("k", 7 * i, 7 * i + 1))
                assert res.columns["v"].tolist() == [21 * i]
            for i in range(10):
                assert table.delete(("k", 1000 + i, 1001 + i)) == 1
                assert table.update("k", 1500 + i, {"v": -i}) == 1
            assert built == [] and zone_reads == []
            assert table.source()._sources[0] is source
            assert source.granules() is granules
            assert source.granule_extents() is extents

    def test_scan_forwards_every_executor_option(self, tmp_path):
        """``scan`` / ``read_column`` hand their keywords to the
        executor as ``Table.scan`` does: the resilience knobs and a
        scheduler included."""
        with self.make(tmp_path) as table, \
                MorselScheduler(workers=2, name="mut-scan") as pool:
            table.append({"k": [900], "v": [0]})
            res = table.scan(["k"], where=("k", 395, 1000),
                             timeout_s=5.0, on_corruption="skip",
                             scheduler=pool, prune=False)
            assert res.columns["k"].tolist() == [395, 396, 397, 398,
                                                 399, 900]
            assert table.read_column("v", scheduler=pool).tolist() \
                == [3 * k for k in range(400)] + [0]

    def test_source_taken_before_a_commit_reads_its_snapshot(
            self, tmp_path):
        with self.make(tmp_path) as table:
            plan = Plan.scan(["k"])
            before = table.source()
            table.append({"k": [900], "v": [0]})
            pending = table.source()
            table.delete(("k", 0, 300))
            table.flush()
            table.compact(threshold=0.9)
            assert table.scan(["k"]).columns["k"].tolist() \
                == list(range(300, 400)) + [900]
            assert plan.execute(before).columns["k"].tolist() \
                == list(range(400))
            assert plan.execute(pending).columns["k"].tolist() \
                == list(range(400)) + [900]

    def test_victim_search_stays_on_the_caller(self, tmp_path,
                                               monkeypatch):
        """``delete`` / ``update`` find their victims on the calling
        thread: no thread starts, and every granule runs on the
        caller's."""
        ran_on = set()
        run_batch = GranulePipeline.run_batch

        def recording_run_batch(self, granules, **kwargs):
            ran_on.add(threading.get_ident())
            return run_batch(self, granules, **kwargs)

        with self.make(tmp_path) as table:
            monkeypatch.setattr(GranulePipeline, "run_batch",
                                recording_run_batch)
            threads = threading.active_count()
            assert table.delete(col("k").between(10, 300)) == 290
            assert table.update("k", 350, {"v": 0}) == 1
            assert table.update("k", 5, {"v": 1}) == 1
            assert threading.active_count() == threads
            assert ran_on == {threading.get_ident()}
            res = table.scan(["k"], where=("k", 0, 400))
            assert sorted(res.columns["k"].tolist()) \
                == list(range(10)) + list(range(300, 400))


# ---------------------------------------------------- shared shard files
def _shard_links(path: str) -> Counter:
    """This process's open descriptors per shard file (``.rps``) of the
    table at ``path``, read from ``/proc/self/fd``; skips the calling
    test where there is no such directory."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc/self/fd to count open descriptors")
    root = os.path.realpath(path) + os.sep
    links: Counter = Counter()
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:
            continue  # the listing's own descriptor, already closed
        if target.startswith(root) and target.endswith(".rps"):
            links[target] += 1
    return links


def _shards_opened() -> float:
    return default_registry().get("repro_store_shards_opened_total").value


def _published_files(path: str) -> set[str]:
    """Every shard file some published generation names."""
    return {os.path.realpath(os.path.join(path, entry["file"]))
            for generation in Table.versions(path)
            for entry in store_format.read_manifest(
                path, version=generation).shards}


def _rps_files(path: str) -> set[str]:
    return {name for name in os.listdir(path) if name.endswith(".rps")}


class TestSharedShardFiles:
    """A commit opens only the files it wrote: successive snapshots share
    their unchanged shards' open files, each file is open exactly once
    however many snapshots name it, and it closes with the last one."""

    def make(self, tmp_path, n=400):
        table = MutableTable.create(str(tmp_path / "t"),
                                    schema=("k", "v"), shard_rows=100,
                                    chunk_rows=25)
        table.append({"k": np.arange(n), "v": np.arange(n) * 3})
        table.flush()
        return table

    def churn(self, table, rounds=4):
        """Rounds of append + retention delete + update + flush, then a
        compaction: files carried over, sidecars replaced, shards
        dropped whole and rewritten."""
        for i in range(rounds):
            lo = 1000 + 60 * i
            table.append({"k": np.arange(lo, lo + 60),
                          "v": np.arange(60)})
            table.delete(("k", 60 * i, 60 * i + 60))
            table.update("k", 350, {"v": i})
            table.flush()
        assert table.compact(threshold=0.9) is not None

    def test_every_named_shard_file_is_open_exactly_once(self, tmp_path):
        table = self.make(tmp_path)
        try:
            one = next(iter(_shard_links(table.path)))
            held = _shard_links(table.path)[one]
            probe = ShardFile(one)  # what one open costs, in descriptors
            per_file = _shard_links(table.path)[one] - held
            probe.release()
            self.churn(table)
            # the handle retired a snapshot at every commit since it
            # opened, so every published generation is held right now
            named = _published_files(table.path)
            links = _shard_links(table.path)
            assert set(links) == named
            assert set(links.values()) == {per_file}
        finally:
            table.close()

    def test_a_commit_opens_only_the_files_it_wrote(self, tmp_path):
        with self.make(tmp_path) as table:
            def commit(step):
                files, opened = _rps_files(table.path), _shards_opened()
                step()
                wrote = _rps_files(table.path) - files
                assert _shards_opened() - opened == len(wrote)
                return len(wrote)

            def append_and_flush():
                table.append({"k": np.arange(500, 650),
                              "v": np.arange(150)})
                table.flush()

            def delete_and_flush():
                table.delete(("k", 0, 130))
                table.flush()

            assert commit(append_and_flush) == 2
            assert commit(delete_and_flush) == 0
            assert commit(lambda: table.compact(threshold=0.9)) == 1

    def test_a_flush_rereads_no_deletion_vector_it_did_not_write(
            self, tmp_path, monkeypatch):
        import repro.store.table as store_table

        calls = []
        unpack = store_format.unpack_deletion_vector

        def counting(blob):
            calls.append(1)
            return unpack(blob)

        monkeypatch.setattr(store_format, "unpack_deletion_vector",
                            counting)
        monkeypatch.setattr(store_table, "unpack_deletion_vector",
                            counting)
        with self.make(tmp_path) as table:
            table.delete(("k", 10, 20))
            table.delete(("k", 210, 220))
            table.flush()  # two shards gain a sidecar
            assert len(calls) == 2
            del calls[:]
            table.append({"k": [900], "v": [0]})
            table.flush()  # carries both sidecars over
            assert calls == []
            table.delete(("k", 220, 230))
            table.flush()  # replaces one of them
            assert len(calls) == 1
            assert table.n_rows == len(table) == 371

    def test_sources_keep_answering_from_their_snapshots(self, tmp_path):
        plan = Plan.scan(["k", "v"])
        with self.make(tmp_path) as table:
            before_flush = table.source()
            dropped = before_flush.table.manifest.shards[0]["file"]
            table.append({"k": [900], "v": [7]})
            table.delete(("k", 0, 20))
            table.flush()
            before_compact = table.source()
            table.delete(("k", 20, 80))
            table.flush()
            assert table.compact(threshold=0.5) is not None
            assert dropped not in {entry["file"] for entry
                                   in table.source().table.manifest.shards}
            old = plan.execute(before_flush).columns
            assert old["k"].tolist() == list(range(400))
            assert old["v"].tolist() == list(range(0, 1200, 3))
            mid = plan.execute(before_compact).columns
            assert mid["k"].tolist() == list(range(20, 400)) + [900]
            now = table.scan(["k"]).columns["k"]
            assert now.tolist() == list(range(80, 400)) + [900]

    def test_close_releases_every_file_and_is_idempotent(self, tmp_path):
        table = self.make(tmp_path)
        self.churn(table, rounds=2)
        snap = table.snapshot()
        assert _shard_links(table.path)
        table.close()
        # the caller's snapshot still holds what it names
        assert set(_shard_links(table.path)) == {
            os.path.realpath(shard.path) for shard in snap.shards}
        assert snap.scan(["k"]).n_rows == snap.live_rows
        snap.close()
        assert not _shard_links(table.path)
        table.close()
        snap.close()
        assert not _shard_links(table.path)

    def test_a_replaced_file_is_opened_fresh(self, tmp_path):
        with self.make(tmp_path) as table:
            path = table.path
        with Table.open(path) as snap:
            victim = snap.shards[1].path
            shutil.copyfile(victim, victim + ".copy")
            os.replace(victim + ".copy", victim)  # same bytes, new inode
            opened = _shards_opened()
            with snap.successor() as succ:
                assert _shards_opened() - opened == 1
                assert succ.shards[1].file is not snap.shards[1].file
                assert all(succ.shards[i].file is snap.shards[i].file
                           for i in (0, 2, 3))
                assert succ.read_column("k").tolist() == list(range(400))
            grown = snap.shards[2].path
            with open(grown, "ab") as fh:  # same inode, new size
                fh.write(b"\0")
            with pytest.raises(ValueError, match="trailer"):
                snap.successor()
            assert snap.read_column("k").tolist() == list(range(400))

    def test_concurrent_successors_lose_no_reference(self, tmp_path):
        """Six threads open and close successors of one snapshot at a
        tiny switch interval: a lost count update would leave a file
        held after the last close, or close it under a live reader."""
        import sys
        import threading

        with self.make(tmp_path) as table:
            path = table.path
        base = Table.open(path, cache_bytes=0)
        errors = []

        def churn():
            try:
                for _ in range(40):
                    with base.successor() as snap:
                        assert snap.shards[-1].file is base.shards[-1].file
                        assert snap.read_column("k")[-1] == 399
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [shard.file._refs for shard in base.shards] == [1] * 4
        assert base.read_column("k").tolist() == list(range(400))
        base.close()
        assert not _shard_links(path)

    @pytest.mark.parametrize("damage", ["truncated footer",
                                        "deletion vector length"])
    def test_a_failed_successor_leaves_its_predecessor_whole(
            self, tmp_path, damage):
        with self.make(tmp_path) as table:
            path = table.path
        snap = Table.open(path)
        with MutableTable.open(path) as table:
            if damage == "truncated footer":
                table.append({"k": np.arange(400, 450),
                              "v": np.arange(50)})
            else:
                table.delete(("k", 0, 10))
            table.flush()
            entry = table.source().table.manifest.shards[
                -1 if damage == "truncated footer" else 0]
        if damage == "truncated footer":
            target = os.path.join(path, entry["file"])
            with open(target, "rb") as fh:
                blob = fh.read()
            with open(target, "wb") as fh:
                fh.write(blob[:-9])
        else:
            with open(os.path.join(path, entry["dv"]), "wb") as fh:
                fh.write(store_format.pack_deletion_vector(
                    np.zeros(entry["n_rows"] + 1, dtype=bool)))
        held = _shard_links(path)
        with pytest.raises(ValueError, match="trailer|covers"):
            snap.successor()
        assert _shard_links(path) == held
        assert snap.read_column("k").tolist() == list(range(400))
        snap.close()
        assert not _shard_links(path)


# ------------------------------------------------------------- properties
def _codec_values(codec: str, rng, n: int, hi: int = 1 << 40):
    if codecs.info(codec).requires_sorted:
        return np.sort(rng.integers(0, hi, n).astype(np.int64))
    return rng.integers(-hi, hi, n).astype(np.int64)


if HAVE_HYPOTHESIS:
    class TestMutationProperty:
        """Random op interleavings == numpy reference, every codec."""

        @pytest.mark.parametrize("codec", INT_CODECS)
        @given(data=st.data())
        @settings(max_examples=4, deadline=None)
        def test_every_version_matches_reference(self, codec,
                                                 tmp_path_factory, data):
            sorted_only = codecs.info(codec).requires_sorted
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
            path = str(tmp_path_factory.mktemp("mut") / "t")
            table = MutableTable.create(path, schema=("k", "v"),
                                        codec=codec, shard_rows=64,
                                        chunk_rows=16)
            ref = RefTable(("k", "v"))
            published: list[tuple[int, dict]] = []
            next_k = 0

            n_ops = data.draw(st.integers(4, 10))
            compact_at = data.draw(st.integers(0, n_ops - 1))
            for op_no in range(n_ops):
                choices = ["append", "append", "delete", "flush"]
                if not sorted_only:
                    choices.append("update")
                kind = data.draw(st.sampled_from(choices))
                if kind == "append":
                    n = data.draw(st.integers(1, 80))
                    if sorted_only:
                        # both columns must stay globally sorted
                        k = next_k + np.cumsum(
                            rng.integers(1, 9, n)).astype(np.int64)
                        next_k = int(k[-1]) + 1
                        batch = {"k": k, "v": k * 2}
                    else:
                        batch = {"k": _codec_values(codec, rng, n),
                                 "v": _codec_values(codec, rng, n)}
                    table.append(batch)
                    ref.append(batch)
                elif kind == "delete":
                    all_k = ref.cols["k"]
                    if all_k.size:
                        pivot = int(rng.choice(all_k))
                        span = int(rng.integers(1, 1 << 20))
                        expr = Range("k", pivot, pivot + span)
                    else:
                        expr = Range("k", 0, 1)
                    table.delete(expr)
                    ref.delete(expr)
                elif kind == "update":
                    all_k = ref.cols["k"]
                    key = int(rng.choice(all_k)) if all_k.size else 1
                    value = int(rng.integers(-(1 << 30), 1 << 30))
                    table.update("k", key, {"v": value})
                    ref.update("k", key, {"v": value})
                else:
                    generation = table.flush()
                    published.append((generation, ref.copy()))
                if op_no == compact_at:
                    generation = table.flush()
                    published.append((generation, ref.copy()))
                    generation = table.compact(threshold=0.9)
                    if generation is not None:
                        published.append((generation, ref.copy()))

            # read-your-writes: the live view equals the reference now
            assert_columns_equal(dict(table.scan().columns), ref.cols,
                                 "live view")
            table.close()
            # reopen replays the WAL tail on top of the last commit
            reopened = MutableTable.open(path)
            assert_columns_equal(dict(reopened.scan().columns), ref.cols,
                                 "reopened")
            reopened.close()
            # snapshot isolation: every published version still equals
            # the reference state at its commit point
            for generation, expected in published:
                assert_columns_equal(scan_version(path, generation),
                                     expected, f"gen {generation}")

    class TestGenerationChainProperty:
        """Whoever publishes — an ingest, a flush, a compaction — the
        directory is one generation chain: every generation number is
        used at most once, none is ever reused, and the listed versions
        are exactly the openable ones."""

        @given(data=st.data())
        @settings(max_examples=12, deadline=None)
        def test_generations_never_reused(self, tmp_path_factory, data):
            path = str(tmp_path_factory.mktemp("chain") / "t")
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
            ref = RefTable(("k",))
            openable: dict[int, dict] = {}  # generation -> numpy model
            used: list[int] = []            # every number ever published

            def published(generation):
                assert not used or generation > used[-1], \
                    f"generation {generation} reused after {used}"
                used.append(generation)
                openable[generation] = ref.copy()

            def batch():
                return {"k": rng.integers(0, 1000, int(rng.integers(
                    1, 120))).astype(np.int64)}

            ops = ["ingest"] + data.draw(st.lists(st.sampled_from(
                ["ingest", "append", "delete", "compact"]),
                min_size=2, max_size=8))
            for op in ops:
                if op == "ingest":
                    ref = RefTable(("k",))
                    ref.append(batch())
                    write_table(path, ref.cols, shard_rows=64,
                                chunk_rows=16, overwrite=True)
                    openable.clear()  # the whole old chain is reaped
                    with Table.open(path) as snap:
                        published(snap.generation)
                    continue
                with MutableTable.open(path) as table:
                    if op == "append":
                        rows = batch()
                        table.append(rows)
                        ref.append(rows)
                        published(table.flush())
                    elif op == "delete":
                        lo = int(rng.integers(0, 1000))
                        expr = Range("k", lo, lo + 200)
                        ref.delete(expr)
                        if table.delete(expr):  # else nothing to flush
                            published(table.flush())
                    else:
                        generation = table.compact(threshold=0.9)
                        if generation is not None:
                            published(generation)

                assert Table.versions(path) == sorted(openable)
                for generation, expected in openable.items():
                    with Table.open(path, version=generation,
                                    cache_bytes=0) as snap:
                        assert snap.generation == generation
                        assert StoreSource(snap).wire_descriptor()[
                            "version"] == generation
                        assert_columns_equal(
                            {"k": np.sort(snap.scan().columns["k"])},
                            {"k": np.sort(expected["k"])},
                            f"gen {generation}")
                for generation in set(used) - set(openable):
                    with pytest.raises(ValueError, match="no manifest"):
                        Table.open(path, version=generation)

    class TestCrashRecoveryProperty:
        """Truncating the WAL loses at most the uncommitted tail."""

        @given(data=st.data())
        @settings(max_examples=12, deadline=None)
        def test_wal_truncation_is_prefix_recovery(self, tmp_path_factory,
                                                   data):
            path = str(tmp_path_factory.mktemp("crash") / "t")
            table = MutableTable.create(path, schema=("k", "v"),
                                        shard_rows=64, chunk_rows=16)
            table.append({"k": np.arange(100),
                          "v": np.arange(100) * 7})
            table.flush()  # the committed floor truncation cannot touch
            ref = RefTable(("k", "v"))
            ref.append({"k": np.arange(100), "v": np.arange(100) * 7})

            states = [ref.copy()]  # states[j] = after j tail ops
            n_ops = data.draw(st.integers(1, 6))
            for i in range(n_ops):
                kind = data.draw(st.sampled_from(
                    ["append", "delete", "update"]))
                if kind == "append":
                    batch = {"k": np.arange(5) + 1000 * (i + 1),
                             "v": np.full(5, i)}
                    table.append(batch)
                    ref.append(batch)
                elif kind == "delete":
                    expr = Range("k", i * 7, i * 7 + 20)
                    table.delete(expr)
                    ref.delete(expr)
                else:
                    table.update("k", i * 3, {"v": -i})
                    ref.update("k", i * 3, {"v": -i})
                states.append(ref.copy())
            generation = table.generation
            table.close()

            wal_path = os.path.join(path, wal_file_name(generation))
            blob = open(wal_path, "rb").read()
            # frame offsets: how many records survive a cut at byte t
            offsets = [wal_mod.WAL_HEADER_LEN]
            pos = wal_mod.WAL_HEADER_LEN
            while pos < len(blob):
                plen = int.from_bytes(blob[pos: pos + 4], "little")
                pos += wal_mod.FRAME_LEN + plen
                offsets.append(pos)
            assert len(offsets) == n_ops + 1

            cut = data.draw(st.integers(0, len(blob)))
            os.truncate(wal_path, cut)
            survivors = sum(1 for end in offsets[1:] if end <= cut)

            reopened = MutableTable.open(path)
            got = dict(reopened.scan().columns)
            # exactly the acknowledged prefix survives: never committed
            # rows lost, never a half-applied record visible
            assert_columns_equal(got, states[survivors],
                                 f"cut {cut} -> {survivors} records")
            # the flushed generation itself is untouchable
            flushed = scan_version(path, generation)
            assert np.array_equal(flushed["k"], np.arange(100))
            # the repaired WAL accepts new writes cleanly
            reopened.append({"k": [123456], "v": [1]})
            reopened.close()
            final = MutableTable.open(path)
            assert 123456 in final.scan().columns["k"]
            final.close()
