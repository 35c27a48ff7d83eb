"""Tests for ``repro.faults`` and the hardening it drives (PR 6).

Four suites:

* the injector itself (rule arming, counters, determinism, lifecycle);
* the **crash matrix** — a simulated crash at every hook point of the
  flush commit protocol (shard write → DV write → manifest publish →
  CURRENT swap → WAL rotate), of compaction, and of a ``TableWriter``'s
  own publish (fresh directory and overwrite), asserting that reopening
  yields exactly the pre- or post-commit snapshot with every
  acknowledged operation intact;
* **corruption detection** — envelope/footer crc32, the
  ``on_corruption`` scan policy, the v1 compatibility path, the scrub
  walker, and the hypothesis single-bit-flip property (flip any bit in
  a shard file: a scan either raises/skips-and-reports or returns
  provably correct rows — never silently wrong ones);
* **executor resilience** — ``timeout_s``/``ExecTimeout``, bounded EIO
  retry, ``GranuleError`` context wrapping, and writer cleanup under
  injected ENOSPC.
"""

import errno
import itertools
import json
import os
import shutil
import threading
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False

from repro import faults
from repro.exec import (CorruptChunkError, ExecTimeout, GranuleError,
                        MorselScheduler)
from repro.exec.run import ExecStats
from repro.faults import FaultInjector, SimulatedCrash
from repro.mutate import MutableTable, recover_with_report
from repro.mutate.wal import WriteAheadLog, wal_file_name
from repro.par import ProcessScheduler
from repro.store import Table, TableWriter, scrub_table, write_table
from repro.store import cli as store_cli
from repro.store import format as store_format
from repro.store.format import (
    FOOTER_CRC_LEN,
    FOOTER_MAGIC,
    HEADER_LEN,
    TRAILER_LEN,
    ShardFooter,
    pack_footer,
    unpack_footer,
)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test starts and ends with no injector installed."""
    faults.uninstall()
    yield
    faults.uninstall()


def _sorted_by(columns: dict, key: str) -> dict:
    order = np.argsort(columns[key], kind="stable")
    return {name: np.asarray(values)[order]
            for name, values in columns.items()}


def _tmp_files(directory: str) -> list:
    return [n for n in os.listdir(directory) if n.endswith(".tmp")]


# ---------------------------------------------------------------- injector
class TestInjector:
    def test_rule_fires_at_nth_matching_invocation(self):
        inj = FaultInjector().fail_at("x.write", at=3)
        with inj:
            faults.fire("x.write")
            faults.fire("y.write")  # different point: does not advance
            faults.fire("x.write")
            with pytest.raises(OSError):
                faults.fire("x.write")
        assert inj.fired("x.write") == 1

    def test_glob_pattern_matches_many_points(self):
        inj = FaultInjector().fail_at("*.fsync", times=None)
        with inj:
            for point in ("manifest.fsync", "current.fsync", "dv.fsync"):
                with pytest.raises(OSError):
                    faults.fire(point)
            faults.fire("manifest.rename")  # not an fsync
        assert inj.fired() == 3

    def test_times_window_bounds_the_firing(self):
        inj = FaultInjector().fail_at("p", at=2, times=2)
        with inj:
            faults.fire("p")                      # 1st: before window
            for _ in range(2):                    # 2nd, 3rd: firing
                with pytest.raises(OSError):
                    faults.fire("p")
            faults.fire("p")                      # 4th: window closed
        assert inj.fired("p") == 2

    def test_crash_raises_simulated_crash_not_oserror(self):
        inj = FaultInjector().crash_at("q")
        with inj, pytest.raises(SimulatedCrash):
            faults.fire("q")
        assert not issubclass(SimulatedCrash, OSError)

    def test_torn_write_length_is_seed_deterministic(self, tmp_path):
        def torn_size(seed):
            path = tmp_path / f"torn-{seed}-{torn_size.n}"
            torn_size.n += 1
            inj = FaultInjector(seed=seed).torn_write_at("w")
            with inj, pytest.raises(SimulatedCrash), \
                    open(path, "wb") as fh:
                faults.write_through("w", fh, bytes(1000))
            return path.stat().st_size

        torn_size.n = 0
        assert torn_size(7) == torn_size(7)
        assert torn_size(7) != torn_size(8)  # 1/1000 collision odds

    def test_error_write_lands_partial_prefix(self, tmp_path):
        path = tmp_path / "part"
        inj = FaultInjector().fail_at("w", error=errno.ENOSPC,
                                      partial=100)
        with inj, pytest.raises(OSError) as info, open(path, "wb") as fh:
            faults.write_through("w", fh, bytes(1000))
        assert info.value.errno == errno.ENOSPC
        assert path.stat().st_size == 100

    def test_flip_bit_corrupts_exactly_one_bit(self, tmp_path):
        path = tmp_path / "flip"
        data = bytes(range(256))
        inj = FaultInjector().flip_bit_at("w", bit=42)
        with inj, open(path, "wb") as fh:
            faults.write_through("w", fh, data)
        written = path.read_bytes()
        assert written != data
        diff = np.frombuffer(written, np.uint8) ^ \
            np.frombuffer(data, np.uint8)
        assert int(np.unpackbits(diff).sum()) == 1

    def test_injectors_do_not_nest(self):
        with FaultInjector():
            with pytest.raises(ValueError, match="already installed"):
                faults.install(FaultInjector())
        assert faults.active() is None

    def test_no_injector_hooks_are_noops(self, tmp_path):
        faults.fire("anything.at.all")
        path = tmp_path / "plain"
        with open(path, "wb") as fh:
            faults.write_through("anything", fh, b"payload")
        assert path.read_bytes() == b"payload"

    def test_rule_arg_validation(self):
        with pytest.raises(ValueError, match="at must be"):
            FaultInjector().crash_at("p", at=0)
        with pytest.raises(ValueError, match="times must be"):
            FaultInjector().fail_at("p", times=0)


# ------------------------------------------------------------ crash matrix
#: every hook point the flush commit protocol crosses, in order
FLUSH_CRASH_POINTS = [
    "shard.write", "shard.publish",
    "dv.write", "dv.fsync", "dv.rename",
    "manifest.write", "manifest.fsync", "manifest.rename",
    "current.write", "current.fsync", "current.rename",
    "wal.rotate.write", "wal.rotate.fsync", "wal.rotate.rename",
]

#: the two-step publish a ``TableWriter`` shares with every commit
PUBLISH_CRASH_POINTS = [
    "manifest.write", "manifest.fsync", "manifest.rename",
    "current.write", "current.fsync", "current.rename",
]

COMPACT_CRASH_POINTS = [
    "compact.rewrite", "shard.write", "shard.publish", "compact.commit",
    "manifest.rename", "current.write", "current.rename",
    "wal.rotate.rename",
]


class TestCrashMatrix:
    """Kill the commit protocol between any two steps; recovery must land
    on exactly the pre- or post-commit snapshot, and the reopened mutable
    table must replay every acknowledged operation."""

    def _build(self, directory):
        """Base table (gen 1) + acknowledged-but-unflushed tail/deletes."""
        table = MutableTable.create(directory, schema=("k", "v"),
                                    shard_rows=2048, chunk_rows=256)
        k0 = np.arange(4000, dtype=np.int64)
        table.append({"k": k0, "v": k0 * 3})
        table.flush()
        k1 = np.arange(4000, 6000, dtype=np.int64)
        table.append({"k": k1, "v": k1 * 3})
        table.delete(("k", 100, 600))
        keep = np.concatenate([k0, k1])
        keep = keep[(keep < 100) | (keep >= 600)]
        reference = {"k": keep, "v": keep * 3}   # all acked ops applied
        pre = {"k": k0, "v": k0 * 3}             # the gen-1 snapshot
        return table, pre, reference

    @pytest.mark.parametrize("point", FLUSH_CRASH_POINTS)
    def test_flush_crash_point(self, tmp_path, point):
        directory = str(tmp_path / "t")
        table, pre, reference = self._build(directory)
        inj = FaultInjector(seed=11).crash_at(point)
        with inj, pytest.raises(SimulatedCrash):
            table.flush()
        assert inj.fired(point) == 1, f"{point} never fired"
        del table  # the process "died": no close, no cleanup

        # the published snapshot is exactly pre- or post-commit
        with Table.open(directory) as snap:
            got = _sorted_by(snap.scan().columns, "k")
            matches_pre = np.array_equal(got["k"], pre["k"]) and \
                np.array_equal(got["v"], pre["v"])
            matches_post = np.array_equal(got["k"], reference["k"]) and \
                np.array_equal(got["v"], reference["v"])
            assert matches_pre or matches_post, \
                f"crash at {point}: snapshot is neither pre nor post"

        # the reopened table replays every acknowledged operation
        reopened = MutableTable.open(directory)
        got = _sorted_by(reopened.scan().columns, "k")
        np.testing.assert_array_equal(got["k"], reference["k"])
        np.testing.assert_array_equal(got["v"], reference["v"])
        assert _tmp_files(directory) == []  # staging debris reaped

        # and the next commit completes normally
        reopened.flush()
        reopened.close()
        with Table.open(directory) as snap:
            got = _sorted_by(snap.scan().columns, "k")
            np.testing.assert_array_equal(got["k"], reference["k"])
        assert scrub_table(directory).ok

    @pytest.mark.parametrize("point", COMPACT_CRASH_POINTS)
    def test_compact_crash_point(self, tmp_path, point):
        directory = str(tmp_path / "t")
        table, _, reference = self._build(directory)
        table.flush()  # gen 2: deletes live as DV sidecars
        inj = FaultInjector(seed=13).crash_at(point)
        with inj, pytest.raises(SimulatedCrash):
            table.compact(threshold=1.0)
        assert inj.fired(point) == 1, f"{point} never fired"
        del table

        # compaction only reorganises: pre and post agree on content
        reopened = MutableTable.open(directory)
        got = _sorted_by(reopened.scan().columns, "k")
        np.testing.assert_array_equal(got["k"], reference["k"])
        np.testing.assert_array_equal(got["v"], reference["v"])
        assert _tmp_files(directory) == []
        # pre-commit crash: retrying compacts; post-commit: a no-op —
        # either way the content survives another full cycle
        reopened.compact(threshold=1.0)
        got = _sorted_by(reopened.scan().columns, "k")
        np.testing.assert_array_equal(got["k"], reference["k"])
        reopened.close()
        assert scrub_table(directory).ok

    @pytest.mark.parametrize("overwrite", [False, True],
                             ids=["fresh", "overwrite"])
    @pytest.mark.parametrize("point", PUBLISH_CRASH_POINTS)
    def test_writer_publish_crash_point(self, tmp_path, point, overwrite):
        """An ingest dies inside its publish, before the pointer moves:
        the directory still holds exactly what it held — no table, or
        the old one — and the next write lands and reaps the debris."""
        directory = str(tmp_path / "t")
        old = np.arange(3000, dtype=np.int64)
        new = np.arange(5000, dtype=np.int64) * 2
        if overwrite:
            write_table(directory, {"k": old}, shard_rows=1024)
        inj = FaultInjector(seed=19).crash_at(point)
        with inj, pytest.raises(SimulatedCrash):
            write_table(directory, {"k": new}, shard_rows=1024,
                        overwrite=overwrite)
        assert inj.fired(point) == 1, f"{point} never fired"

        if overwrite:
            assert Table.versions(directory) == [0]
            with Table.open(directory) as snap:
                np.testing.assert_array_equal(snap.read_column("k"), old)
            assert scrub_table(directory).ok
        else:
            assert Table.versions(directory) == []
            with pytest.raises(ValueError, match="not a store table"):
                Table.open(directory)

        write_table(directory, {"k": new}, shard_rows=1024,
                    overwrite=overwrite)
        generation = int(overwrite)  # the crashed number was never used
        assert Table.versions(directory) == [generation]
        with Table.open(directory) as snap:
            np.testing.assert_array_equal(snap.read_column("k"), new)
            live = [os.path.basename(s.path) for s in snap.shards]
        assert sorted(os.listdir(directory)) == sorted(
            live + ["CURRENT", store_format.manifest_file_name(generation)])
        assert scrub_table(directory).ok

    def test_background_compactor_crash_with_concurrent_readers(
            self, tmp_path):
        """Seeded crash at ``compact.commit`` fired from the
        BackgroundCompactor thread while serve-path reads are in
        flight: every reader sees exactly the old or the new
        generation (content always equals the reference, never a mix),
        the compactor records the crash instead of swallowing it, and
        reopening repairs."""
        from repro.exec import MorselScheduler, Plan
        from repro.mutate.compact import BackgroundCompactor
        from repro.store import StoreSource

        directory = str(tmp_path / "t")
        table, _, reference = self._build(directory)
        table.flush()  # deletes now live as DV sidecars
        pre_gen = table.generation

        sched = MorselScheduler(workers=2, name="test-serve-readers")
        stop = threading.Event()
        failures: list[str] = []
        generations: set[int] = set()
        reads = [0]

        def reader():
            while not stop.is_set():
                try:
                    with Table.open(directory) as snap:
                        generations.add(snap.generation)
                        res = Plan.scan(["k", "v"]).execute(
                            StoreSource(snap), scheduler=sched)
                        got = _sorted_by(res.columns, "k")
                        if not (np.array_equal(got["k"], reference["k"])
                                and np.array_equal(got["v"],
                                                   reference["v"])):
                            failures.append(
                                f"gen {snap.generation}: content is "
                                f"neither pre nor post")
                            return
                        reads[0] += 1
                except Exception as exc:
                    failures.append(repr(exc))
                    return

        inj = FaultInjector(seed=23).crash_at("compact.commit")
        readers = [threading.Thread(target=reader) for _ in range(2)]
        compactor = BackgroundCompactor(table, threshold=1.0,
                                        interval_s=0.01)
        with inj:
            for thread in readers:
                thread.start()
            compactor.start()
            compactor.trigger()
            for _ in range(1000):  # the injected crash kills the thread
                if compactor.crashed is not None:
                    break
                time.sleep(0.01)
            stop.set()
            for thread in readers:
                thread.join()
        compactor.stop()

        assert isinstance(compactor.crashed, SimulatedCrash)
        assert inj.fired("compact.commit") == 1
        assert compactor.history == []          # nothing was committed
        assert compactor.errors == []           # crash not swallowed
        assert failures == []
        assert reads[0] > 0                     # readers really ran
        assert generations == {pre_gen}         # commit never published
        sched.close()
        del table, compactor  # the "process" died: no cleanup

        # reopen repairs, the next compaction lands, content survives
        reopened = MutableTable.open(directory)
        got = _sorted_by(reopened.scan().columns, "k")
        np.testing.assert_array_equal(got["k"], reference["k"])
        np.testing.assert_array_equal(got["v"], reference["v"])
        assert _tmp_files(directory) == []
        reopened.compact(threshold=1.0)
        got = _sorted_by(reopened.scan().columns, "k")
        np.testing.assert_array_equal(got["k"], reference["k"])
        reopened.close()
        assert scrub_table(directory).ok

    def test_torn_manifest_write_recovers(self, tmp_path):
        """Not just clean crashes: a manifest torn mid-write must also
        leave the pre-commit snapshot intact."""
        directory = str(tmp_path / "t")
        table, pre, reference = self._build(directory)
        inj = FaultInjector(seed=17).torn_write_at("manifest.write")
        with inj, pytest.raises(SimulatedCrash):
            table.flush()
        del table
        with Table.open(directory) as snap:
            got = _sorted_by(snap.scan().columns, "k")
            np.testing.assert_array_equal(got["k"], pre["k"])
        reopened = MutableTable.open(directory)
        got = _sorted_by(reopened.scan().columns, "k")
        np.testing.assert_array_equal(got["k"], reference["k"])
        reopened.close()


# ------------------------------------------------------------ WAL forensics
class TestWalForensics:
    def _write_wal(self, path, n_records=3):
        wal = WriteAheadLog(str(path))
        for i in range(n_records):
            wal.log_append({"k": np.arange(5, dtype=np.int64) + i})
        wal.close()

    def test_clean_log_reports_no_sidecar(self, tmp_path):
        path = tmp_path / wal_file_name(0)
        self._write_wal(path)
        records, report = recover_with_report(str(path))
        assert len(records) == 3
        assert report == {"records": 3, "bytes_dropped": 0,
                          "records_dropped": 0, "sidecar": None}
        assert not os.path.exists(str(path) + ".corrupt")

    def test_torn_tail_preserved_as_forensics_sidecar(self, tmp_path):
        path = tmp_path / wal_file_name(0)
        self._write_wal(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])  # tear the last record mid-frame
        records, report = recover_with_report(str(path))
        assert len(records) == 2
        assert report["records"] == 2
        assert report["records_dropped"] == 1
        assert report["bytes_dropped"] > 0
        sidecar = str(path) + ".corrupt"
        assert report["sidecar"] == sidecar
        # the sidecar is the dropped tail, byte for byte
        with open(sidecar, "rb") as fh:
            tail = fh.read()
        assert blob[:-20].endswith(tail)
        assert len(tail) == report["bytes_dropped"]
        # the live log was repaired: appending works, nothing re-drops
        records2, report2 = recover_with_report(str(path))
        assert len(records2) == 2 and report2["sidecar"] is None

    def test_reopen_after_torn_append_reports_and_recovers(self, tmp_path):
        directory = str(tmp_path / "t")
        table = MutableTable.create(directory, schema=("k",))
        table.append({"k": np.arange(100, dtype=np.int64)})
        # the injector counts only while installed: this is invocation 1
        inj = FaultInjector(seed=2).torn_write_at("wal.append")
        with inj, pytest.raises(SimulatedCrash):
            table.append({"k": np.arange(100, 200, dtype=np.int64)})
        del table
        reopened = MutableTable.open(directory)
        assert reopened.n_rows == 100  # only the acked append survives
        assert reopened.last_recovery["bytes_dropped"] > 0
        assert reopened.last_recovery["sidecar"].endswith(".log.corrupt")
        # the sidecar survives until the next commit rotates past it
        assert os.path.exists(reopened.last_recovery["sidecar"])
        reopened.append({"k": np.arange(200, 250, dtype=np.int64)})
        reopened.flush()
        assert not any(n.endswith(".corrupt")
                       for n in os.listdir(directory))
        reopened.close()


# ------------------------------------------------------- corruption detect
def _flip_bit(path: str, byte: int, bit: int) -> None:
    with open(path, "r+b") as fh:
        fh.seek(byte)
        value = fh.read(1)[0]
        fh.seek(byte)
        fh.write(bytes([value ^ (1 << bit)]))


def _shard_files(directory: str) -> list:
    return sorted(n for n in os.listdir(directory) if n.endswith(".rps"))


def _rewrite_footer(path: str, mutate_chunk) -> None:
    """Re-pack a shard's footer with mutated chunk metas (valid crc)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    footer = unpack_footer(blob)
    body_len = int.from_bytes(blob[-TRAILER_LEN:-4], "little")
    chunks_end = len(blob) - TRAILER_LEN - FOOTER_CRC_LEN - body_len
    new = blob[:chunks_end] + pack_footer(ShardFooter(
        row_start=footer.row_start, n_rows=footer.n_rows,
        chunks=tuple(mutate_chunk(c) for c in footer.chunks)))
    with open(path, "wb") as fh:
        fh.write(new)


def _downgrade_shard_to_v1(path: str) -> None:
    """Rewrite a v2 shard in the pre-checksum v1 layout (no chunk crc,
    no footer crc) — the compatibility shape old files still have."""
    with open(path, "rb") as fh:
        blob = fh.read()
    footer = unpack_footer(blob)
    body_len = int.from_bytes(blob[-TRAILER_LEN:-4], "little")
    chunks_end = len(blob) - TRAILER_LEN - FOOTER_CRC_LEN - body_len
    doc = {"version": 1, "row_start": footer.row_start,
           "n_rows": footer.n_rows,
           "chunks": [{k: v for k, v in asdict(c).items() if k != "crc"}
                      for c in footer.chunks]}
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    new = (blob[:4] + bytes([1]) + blob[HEADER_LEN:chunks_end]
           + body + len(body).to_bytes(8, "little") + FOOTER_MAGIC)
    with open(path, "wb") as fh:
        fh.write(new)


@pytest.fixture()
def small_table(tmp_path):
    directory = str(tmp_path / "t")
    rng = np.random.default_rng(5)
    columns = {"ts": np.arange(12000, dtype=np.int64),
               "val": rng.integers(0, 500, 12000).astype(np.int64)}
    write_table(directory, columns, shard_rows=4096, chunk_rows=512)
    return directory, columns


class TestCorruptionDetection:
    def test_chunk_crc_verified_on_revive(self, small_table):
        directory, columns = small_table
        shard = os.path.join(directory, _shard_files(directory)[0])
        with open(shard, "rb") as fh:
            blob = fh.read()
        footer = unpack_footer(blob)
        meta = footer.column_chunks("val")[2]
        _flip_bit(shard, meta.offset + meta.nbytes // 2, 3)
        with Table.open(directory) as table:
            with pytest.raises(CorruptChunkError) as info:
                table.scan()
            message = str(info.value)
            assert "shard-00000" in message
            assert "'val'" in message
            assert f"[{meta.row_start}, " in message

    def test_skip_policy_quarantines_and_reports(self, small_table):
        directory, columns = small_table
        shard = os.path.join(directory, _shard_files(directory)[0])
        with open(shard, "rb") as fh:
            footer = unpack_footer(fh.read())
        meta = footer.column_chunks("val")[0]
        _flip_bit(shard, meta.offset + 4, 0)
        with Table.open(directory) as table:
            res = table.scan(where=("ts", 0, 12000), on_corruption="skip")
            assert res.stats.chunks_corrupt == 1
            # exactly the quarantined granule's rows are missing
            assert res.n_rows == 12000 - meta.n_rows
            assert not np.isin(np.arange(meta.n_rows), res.row_ids).any()
        # unified exec layer surfaces the bucket in explain()
        from repro.exec import Plan
        from repro.store import StoreSource

        with Table.open(directory) as table:
            result = Plan.scan(["ts", "val"]).execute(
                StoreSource(table), on_corruption="skip")
            assert result.stats.chunks_corrupt == 1
            assert "corrupt: 1 quarantined" in result.explain()

    def test_footer_checksum_guards_the_catalog(self, small_table):
        directory, _ = small_table
        shard = os.path.join(directory, _shard_files(directory)[0])
        size = os.path.getsize(shard)
        # flip inside the footer JSON body (zone maps live there)
        _flip_bit(shard, size - TRAILER_LEN - FOOTER_CRC_LEN - 20, 1)
        with pytest.raises(ValueError, match="footer checksum"):
            Table.open(directory)

    def test_v1_files_still_readable_without_checksums(self, small_table):
        directory, columns = small_table
        for name in _shard_files(directory):
            _downgrade_shard_to_v1(os.path.join(directory, name))
        with Table.open(directory) as table:
            res = table.scan(where=("ts", 1000, 3000))
            np.testing.assert_array_equal(res.columns["ts"],
                                          np.arange(1000, 3000))
        report = scrub_table(directory)
        assert report.ok  # everything except the absent crc scrubs
        assert all(s.chunks_crc_verified == 0 for s in report.shards)

    def test_mixed_v1_v2_table(self, small_table):
        directory, columns = small_table
        _downgrade_shard_to_v1(
            os.path.join(directory, _shard_files(directory)[0]))
        with Table.open(directory) as table:
            res = table.scan()
            np.testing.assert_array_equal(
                np.sort(res.columns["ts"]), columns["ts"])


class TestScrub:
    def test_clean_table_scrubs_clean(self, small_table):
        directory, _ = small_table
        report = scrub_table(directory)
        assert report.ok
        assert len(report.shards) == 3
        assert all(s.chunks_checked > 0 and
                   s.chunks_crc_verified == s.chunks_checked
                   for s in report.shards)
        assert "CLEAN" in report.summary()

    def test_scrub_reports_every_broken_shard(self, small_table):
        directory, _ = small_table
        names = _shard_files(directory)
        _flip_bit(os.path.join(directory, names[0]), 100, 0)
        _flip_bit(os.path.join(directory, names[2]), 200, 5)
        report = scrub_table(directory)
        assert not report.ok
        broken = [s.file for s in report.shards if not s.ok]
        assert broken == [names[0], names[2]]  # kept walking past #0
        assert "crc32 mismatch" in report.shards[0].errors[0]

    def test_scrub_catches_zone_map_violations(self, small_table):
        directory, _ = small_table
        shard = os.path.join(directory, _shard_files(directory)[0])

        def shrink_first_val_zone(meta):
            if meta.column == "val" and meta.row_start == 0:
                return replace(meta, zmax=meta.zmin)
            return meta

        _rewrite_footer(shard, shrink_first_val_zone)
        report = scrub_table(directory)
        assert not report.ok
        assert any("escape the zone map" in err
                   for err in report.shards[0].errors)

    def test_scrub_checks_deletion_vectors(self, tmp_path):
        directory = str(tmp_path / "t")
        table = MutableTable.create(directory, schema=("k",),
                                    shard_rows=1024, chunk_rows=256)
        table.append({"k": np.arange(3000, dtype=np.int64)})
        table.flush()
        table.delete(("k", 0, 10))
        table.flush()
        table.close()
        assert scrub_table(directory).ok
        dv = [n for n in os.listdir(directory) if n.endswith(".dv")][0]
        _flip_bit(os.path.join(directory, dv), 20, 2)
        report = scrub_table(directory)
        assert not report.ok
        assert any("deletion vector" in err for err in report.errors)

    def test_scrub_cli_exit_codes(self, small_table, capsys):
        directory, _ = small_table
        assert store_cli.main(["scrub", directory]) == 0
        assert "CLEAN" in capsys.readouterr().out
        _flip_bit(os.path.join(directory,
                               _shard_files(directory)[1]), 64, 7)
        assert store_cli.main(["scrub", directory]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert store_cli.main(["scrub", directory, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["shards"]

    def test_scrub_cli_rejects_non_table(self, tmp_path, capsys):
        assert store_cli.main(["scrub", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


# -------------------------------------------------- bit-flip property suite
_FLIP_DIRS = itertools.count()  # hypothesis may redraw the same (byte, bit)

if HAVE_HYPOTHESIS:

    @pytest.fixture(scope="module")
    def flip_fixture(tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("flip") / "t")
        rng = np.random.default_rng(9)
        columns = {"ts": np.arange(4096, dtype=np.int64),
                   "val": rng.integers(-1000, 1000, 4096
                                       ).astype(np.int64)}
        write_table(directory, columns, shard_rows=2048, chunk_rows=512)
        shard = os.path.join(directory, _shard_files(directory)[0])
        return directory, columns, shard, os.path.getsize(shard)

    class TestBitFlipProperty:
        """Flip any single bit anywhere in a shard file: the scan either
        raises (``CorruptChunkError``/``ValueError``), skips-and-reports
        under the skip policy, or provably returns the correct rows.
        Silent wrong answers are the one forbidden outcome."""

        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[
                      HealthCheck.function_scoped_fixture])
        @given(data=st.data())
        def test_single_bit_flip_is_never_silent(self, flip_fixture,
                                                 tmp_path, data):
            directory, columns, shard, size = flip_fixture
            byte = data.draw(st.integers(0, size - 1), label="byte")
            bit = data.draw(st.integers(0, 7), label="bit")
            copy = str(tmp_path / f"flip-{next(_FLIP_DIRS)}")
            shutil.copytree(directory, copy)
            _flip_bit(os.path.join(copy, os.path.basename(shard)),
                      byte, bit)
            try:
                with Table.open(copy) as table:
                    res = table.scan()
            except (ValueError, GranuleError):
                return  # detected loudly: the acceptable outcome
            np.testing.assert_array_equal(res.columns["ts"],
                                          columns["ts"])
            np.testing.assert_array_equal(res.columns["val"],
                                          columns["val"])

        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[
                      HealthCheck.function_scoped_fixture])
        @given(data=st.data())
        def test_skip_policy_never_returns_wrong_rows(self, flip_fixture,
                                                      tmp_path, data):
            directory, columns, shard, size = flip_fixture
            byte = data.draw(st.integers(0, size - 1), label="byte")
            bit = data.draw(st.integers(0, 7), label="bit")
            copy = str(tmp_path / f"skip-{next(_FLIP_DIRS)}")
            shutil.copytree(directory, copy)
            _flip_bit(os.path.join(copy, os.path.basename(shard)),
                      byte, bit)
            try:
                with Table.open(copy) as table:
                    res = table.scan(on_corruption="skip")
            except (ValueError, GranuleError):
                return  # header/footer damage still raises at open
            # every row that did come back carries its true values
            lookup = {name: dict(zip(columns["ts"], columns[name]))
                      for name in columns}
            assert res.stats.chunks_corrupt in (0, 1)
            if res.stats.chunks_corrupt == 0:
                assert res.n_rows == 4096
            for name in columns:
                expected = np.asarray(
                    [lookup[name][ts] for ts in res.columns["ts"]])
                np.testing.assert_array_equal(res.columns[name],
                                              expected)


# -------------------------------------------------- executor resilience
class TestReadPathCrash:
    """A simulated crash on the read path is the process dying, not a
    granule failing: it reaches the caller as :class:`SimulatedCrash`
    from a scan and from an update's victim search, and on the process
    tier the lane's worker really dies (its driver respawns it, and a
    granule that kills two workers is a typed error)."""

    def test_scan_on_the_calling_thread(self, small_table):
        directory, _ = small_table
        inj = FaultInjector().crash_at("chunk.read", at=3)
        with inj, Table.open(directory, cache_bytes=0) as table:
            with pytest.raises(SimulatedCrash, match="chunk.read"):
                table.scan()
        assert inj.fired("chunk.read") == 1

    def test_scan_on_lanes_kills_the_worker(self, small_table):
        directory, columns = small_table
        inj = FaultInjector().crash_at("chunk.read")
        with inj:
            # forked lanes inherit the armed injector, spawned ones get
            # its spec; each respawn starts armed again
            lanes = ProcessScheduler(workers=1, fault_spec=inj.to_spec(),
                                     name="t-faults-read-crash")
        try:
            with Table.open(directory, cache_bytes=0) as table:
                with pytest.raises(GranuleError, match="died twice"):
                    table.scan(scheduler=lanes)
                # the driver read no chunk, and the lane lives on
                assert inj.fired("chunk.read") == 0
                assert lanes.stats()["workers_alive"] == 1
        finally:
            lanes.close()

    def test_update_victim_search(self, tmp_path):
        directory = str(tmp_path / "t")
        table = MutableTable.create(directory, schema=("k", "v"),
                                    shard_rows=1024, chunk_rows=256)
        k = np.arange(3000, dtype=np.int64)
        table.append({"k": k, "v": k * 3})
        table.flush()
        inj = FaultInjector().crash_at("chunk.read")
        with inj, pytest.raises(SimulatedCrash, match="chunk.read"):
            table.update("k", 2000, {"v": -1})
        del table  # the process "died": no close, no cleanup
        # the update was logged before its search: reopening replays it
        with MutableTable.open(directory) as reopened:
            res = reopened.scan(["k", "v"], where=("k", 1999, 2002))
            got = dict(zip(res.columns["k"].tolist(),
                           res.columns["v"].tolist()))
        assert got == {1999: 5997, 2000: -1, 2001: 6003}


class TestExecutorResilience:
    def test_timeout_raises_with_partial_stats(self, small_table):
        directory, _ = small_table
        inj = FaultInjector().slow_at("chunk.read", delay_s=0.05,
                                      times=None)
        with inj, Table.open(directory, cache_bytes=0) as table, \
                MorselScheduler(workers=2) as pool:
            with pytest.raises(ExecTimeout) as info:
                table.scan(scheduler=pool, timeout_s=0.02)
        assert isinstance(info.value.stats, ExecStats)
        assert "timeout_s=0.02" in str(info.value)

    def test_timeout_serial_path(self, small_table):
        directory, _ = small_table
        inj = FaultInjector().slow_at("chunk.read", delay_s=0.05,
                                      times=None)
        with inj, Table.open(directory, cache_bytes=0) as table:
            with pytest.raises(ExecTimeout):
                table.scan(timeout_s=0.02)

    def test_transient_eio_is_retried_to_success(self, small_table):
        directory, columns = small_table
        inj = FaultInjector().fail_at("chunk.read", error=errno.EIO,
                                      times=2)
        with inj, Table.open(directory, cache_bytes=0) as table:
            res = table.scan()
        assert inj.fired("chunk.read") == 2
        np.testing.assert_array_equal(np.sort(res.columns["ts"]),
                                      columns["ts"])

    def test_persistent_eio_wraps_with_granule_context(self, small_table):
        directory, _ = small_table
        inj = FaultInjector().fail_at("chunk.read", error=errno.EIO,
                                      times=None)
        with inj, Table.open(directory, cache_bytes=0) as table, \
                MorselScheduler(workers=2) as pool:
            with pytest.raises(GranuleError) as info:
                table.scan(scheduler=pool)
        err = info.value
        assert isinstance(err.cause, OSError)
        assert err.cause.errno == errno.EIO
        assert err.shard in _shard_files(directory)
        assert err.column in ("ts", "val")
        assert f"granule {err.granule}" in str(err)
        assert err.__cause__ is err.cause

    def test_non_transient_errors_are_not_retried(self, small_table):
        directory, _ = small_table
        inj = FaultInjector().fail_at("chunk.read", error=errno.ENOSPC)
        with inj, Table.open(directory, cache_bytes=0) as table:
            with pytest.raises(GranuleError):
                table.scan()
        assert inj.fired("chunk.read") == 1  # no retry burned on ENOSPC

    def test_corrupt_chunk_error_is_not_wrapped(self, small_table):
        directory, _ = small_table
        shard = os.path.join(directory, _shard_files(directory)[0])
        with open(shard, "rb") as fh:
            meta = unpack_footer(fh.read()).column_chunks("ts")[0]
        _flip_bit(shard, meta.offset + 8, 2)
        with Table.open(directory) as table, \
                MorselScheduler(workers=4) as pool:
            with pytest.raises(CorruptChunkError):
                table.scan(scheduler=pool)

    def test_knob_validation(self, small_table):
        directory, _ = small_table
        with Table.open(directory) as table:
            with pytest.raises(ValueError, match="on_corruption"):
                table.scan(on_corruption="explode")
            with pytest.raises(ValueError, match="timeout_s"):
                table.scan(timeout_s=0)


# ---------------------------------------------------------- writer cleanup
class TestWriterCleanup:
    def test_enospc_mid_shard_cleans_staging(self, tmp_path):
        directory = str(tmp_path / "t")
        inj = FaultInjector().fail_at("shard.write", error=errno.ENOSPC,
                                      partial=64)
        columns = {"k": np.arange(5000, dtype=np.int64)}
        with inj, pytest.raises(OSError) as info:
            write_table(directory, columns, shard_rows=2048)
        assert info.value.errno == errno.ENOSPC
        assert _tmp_files(directory) == []
        with pytest.raises(ValueError):
            Table.open(directory)  # nothing was ever published

    def test_failed_overwrite_leaves_table_byte_identical(self, tmp_path):
        directory = str(tmp_path / "t")
        columns = {"k": np.arange(5000, dtype=np.int64)}
        write_table(directory, columns, shard_rows=2048)
        before = {name: open(os.path.join(directory, name), "rb").read()
                  for name in os.listdir(directory)}
        inj = FaultInjector().fail_at("shard.write", at=2,
                                      error=errno.ENOSPC)
        with inj, pytest.raises(OSError):
            write_table(directory,
                        {"k": np.arange(9000, dtype=np.int64)},
                        shard_rows=2048, overwrite=True)
        after = {name: open(os.path.join(directory, name), "rb").read()
                 for name in os.listdir(directory)}
        assert after == before  # byte-identical, no extra files
        with Table.open(directory) as table:
            np.testing.assert_array_equal(table.read_column("k"),
                                          columns["k"])

    def test_flush_enospc_keeps_memtable_and_retries(self, tmp_path):
        directory = str(tmp_path / "t")
        table = MutableTable.create(directory, schema=("k",),
                                    shard_rows=1024)
        table.append({"k": np.arange(3000, dtype=np.int64)})
        inj = FaultInjector().fail_at("shard.write", error=errno.ENOSPC)
        with inj, pytest.raises(OSError):
            table.flush()
        assert _tmp_files(directory) == []
        assert table.pending_rows == 3000  # nothing lost, still buffered
        table.flush()  # disk "recovered": the same commit now lands
        table.close()
        with Table.open(directory) as snap:
            np.testing.assert_array_equal(
                np.sort(snap.read_column("k")), np.arange(3000))

    def test_abort_is_idempotent_and_close_refuses_after(self, tmp_path):
        directory = str(tmp_path / "t")
        writer = TableWriter(directory, shard_rows=512)
        writer.append({"k": np.arange(2000, dtype=np.int64)})
        writer.abort()
        writer.abort()
        assert _tmp_files(directory) == []
        assert writer.shard_entries == ()


# ------------------------------------------------------------- format bump
class TestFormatV2:
    def test_new_shards_carry_version_2_and_chunk_crcs(self, small_table):
        directory, _ = small_table
        shard = os.path.join(directory, _shard_files(directory)[0])
        with open(shard, "rb") as fh:
            blob = fh.read()
        assert blob[4] == 2 == store_format.VERSION
        footer = unpack_footer(blob)
        import zlib

        for meta in footer.chunks:
            assert meta.crc is not None
            assert zlib.crc32(
                blob[meta.offset: meta.offset + meta.nbytes]) == meta.crc

    def test_future_version_still_rejected(self, small_table):
        directory, _ = small_table
        shard = os.path.join(directory, _shard_files(directory)[0])
        with open(shard, "r+b") as fh:
            fh.seek(4)
            fh.write(bytes([store_format.VERSION + 1]))
        with pytest.raises(ValueError, match="newer than the supported"):
            Table.open(directory)
