"""Tests for ``repro.par`` — the process-tier worker pool (PR 9).

Nine suites:

* **descriptors** — :class:`QueryDescriptor` round-trips JSON and
  pickle losslessly, rejects foreign versions, and refuses sources
  that cannot be rebuilt from a path with :class:`TypeError`;
* **worker path property** (hypothesis) — for every integer codec in
  the registry, a plan's pushdown expression survives the real wire
  (``to_json`` → ``json`` → ``pickle`` → :meth:`WorkerState.admit` →
  :meth:`WorkerState.run_granules`) with row-for-row identical results
  vs in-process execution;
* **process tier** — what ``tests/test_oracle.py`` (every plan shape on
  every tier against numpy) does not check: a row limit's counts, a
  generation pinned under fork and spawn, a reaped one, admission and
  a thrashed pipeline cache through a real :class:`ProcessScheduler`;
* **lane descriptor cache** — driven by the driver's own send and evict
  decisions (:func:`cache_decision`), a :class:`WorkerState` holds
  exactly the lane's ``sent_descs`` after every task, late and
  unbuildable descriptors included; an unknown bare id is a typed
  error; a lane worker keeps open only the shard files of the
  snapshots its cached pipelines read (fork and spawn);
* the **crash matrix** — an injected ``granule.exec`` crash (a real
  ``os._exit`` mid-granule) is detected, the lane respawns, the granule
  retries once and the query completes with exact rows; a granule that
  kills every worker surfaces a typed :class:`GranuleError`, never a
  hang; ``SIGKILL`` from outside behaves the same; a timed-out query
  abandons its granules and the *next* query on the same lanes is
  correct (stale results are discarded, not misattributed);
* **driver-side pruning** (fork and spawn) — the driver's zone-map
  split is a partition of the granule set on the calling thread and on
  lanes (hypothesis over bands, deletion vectors, ``prune``): only
  survivors run or cross a lane pipe, the pruned are charged once, a crash on a survivor is
  retried once, a timeout counts the pruned as completed;
* **lane runs** (fork and spawn) — a lane message carries a run of
  consecutive survivors: the runs partition the queue (hypothesis), a
  small job is one message, the real dispatch matches that drain with
  every count and span still per granule, a crash inside a run (small
  or not) re-sends its granules alone, and a timed-out run frees its
  lane within one granule;
* **cache gauges** — ``repro_cache_used_bytes`` / ``repro_cache_entries``
  aggregate over every live cache at render time (no last-writer-wins
  clobbering), and function-backed gauges refuse direct mutation;
* **serve integration** — a :class:`TableServer` on
  ``worker_tier="process"`` answers over real sockets with the same
  rows as in-process execution.
"""

import dataclasses
import gc
import json
import multiprocessing
from collections import OrderedDict, deque
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False

from exec_checks import (
    assert_granule_spans_match,
    assert_limit_agrees,
    assert_rows_equal,
    assert_tiers_agree,
    count_fields,
)
from repro import codecs, faults
from repro.datasets import sensor_fixture
from repro.exec import (
    ArraySource,
    ExecTimeout,
    GranuleError,
    MorselScheduler,
    Plan,
    ServerBusy,
    col,
)
from repro.exec.errors import CorruptChunkError
from repro.exec.run import GranulePipeline, execute
from repro.faults import FaultInjector
from repro.mutate import MutableTable
from repro.obs.metrics import (
    default_registry,
    parse_text,
    render_text,
    set_enabled,
)
from repro.obs.trace import Trace
from repro.par import (
    DESCRIPTOR_VERSION,
    ProcessScheduler,
    QueryDescriptor,
    WorkerState,
    default_start_method,
    describe_query,
)
from repro.par import scheduler as par_scheduler
from repro.par.scheduler import (
    MAX_CACHED_PIPELINES,
    RUN_DIVISOR,
    cache_decision,
    run_length,
)
from repro.par.worker import encode_error, revive_error
from repro.serve import ServeClient, TableServer
from repro.store import Table, write_table
from repro.store.cache import ChunkCache
from repro.store.executor import StoreSource
from repro.store.format import manifest_file_name

INT_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_integers]


# ------------------------------------------------------------- fixtures
@pytest.fixture(autouse=True)
def _no_leaked_injector():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A serve-able root holding one store table, 'events'."""
    directory = tmp_path_factory.mktemp("par_root")
    write_table(str(directory / "events"), sensor_fixture(6000),
                shard_rows=1500, chunk_rows=256)
    return str(directory)


@pytest.fixture(scope="module")
def source(root):
    with Table.open(os.path.join(root, "events")) as table:
        yield StoreSource(table)


@pytest.fixture(scope="module")
def sched():
    """One module-wide process scheduler (start method honours
    ``REPRO_PAR_START_METHOD`` so CI runs the suite under both)."""
    scheduler = ProcessScheduler(workers=2, name="par-tests")
    yield scheduler
    scheduler.close()


@pytest.fixture(scope="module")
def cold_source(root):
    """The same table with no chunk cache: every load is a read, so
    every ``ExecStats`` count is the same whichever tier ran it."""
    with Table.open(os.path.join(root, "events"),
                    cache_bytes=0) as table:
        yield StoreSource(table)


@pytest.fixture(scope="module")
def thread_sched():
    with MorselScheduler(workers=2, name="par-tests-threads") as scheduler:
        yield scheduler


FILTER_PLAN = (Plan.scan(["ts", "sensor_id", "reading"])
               .where(col("reading").between(950, 1100)
                      & (col("status") <= 1)))


def _merge_partials(parts, names):
    # a pruned or emptied granule's partial carries only its stats
    parts = [p for p in parts if p.row_ids is not None]
    empty = np.empty(0, dtype=np.int64)
    row_ids = np.concatenate([p.row_ids for p in parts]) \
        if parts else empty
    columns = {
        name: np.concatenate([np.asarray(p.columns[name]) for p in parts])
        if parts else empty.copy()
        for name in names
    }
    return row_ids, columns


# ===================================================================
# descriptors
# ===================================================================
class TestDescriptor:
    def test_json_and_pickle_round_trip(self, source):
        desc = describe_query(FILTER_PLAN, source, on_corruption="raise")
        assert desc is not None
        # an ingest-only table is pinned like any other: by the integer
        # generation it was opened at, never by "whatever is current"
        assert source.table.generation == 0
        assert desc.version == 0 and isinstance(desc.version, int)
        assert desc.n_granules == len(source.granules())
        wire = json.loads(json.dumps(desc.to_json()))
        wire = pickle.loads(pickle.dumps(
            wire, protocol=pickle.HIGHEST_PROTOCOL))
        assert wire["v"] == DESCRIPTOR_VERSION == 5
        assert wire["version"] == 0
        # the driver prunes before dispatch: nothing tells a worker to;
        # and there is one execution path, so no mode to tell either
        assert not {"io_retries", "prune", "pushdown"} & set(wire)
        revived = QueryDescriptor.from_json(wire)
        assert revived == desc
        assert revived.build_plan().to_json() == FILTER_PLAN.to_json()

    def test_foreign_version_is_refused(self, source):
        desc = describe_query(FILTER_PLAN, source, on_corruption="raise")
        wire = desc.to_json()
        # v2 carried "io_retries" and a nullable "version", v3 "prune",
        # v4 "pushdown"
        for foreign in (2, 3, 4, DESCRIPTOR_VERSION + 1):
            wire["v"] = foreign
            with pytest.raises(
                    ValueError,
                    match=f"^unsupported descriptor version {foreign} "
                          rf"\(this worker speaks {DESCRIPTOR_VERSION}\)$"):
                QueryDescriptor.from_json(wire)

    def test_memory_sources_are_not_describable(self):
        array = ArraySource({"v": np.arange(100)}, morsel_rows=10)
        with pytest.raises(TypeError, match="describe themselves"):
            describe_query(Plan.scan(["v"]), array,
                           on_corruption="raise")

    def test_fault_spec_round_trip(self):
        inj = FaultInjector(seed=7)
        inj.crash_at("granule.exec", at=2)
        inj.slow_at("io.read", delay_s=0.5, times=3)
        spec = json.loads(json.dumps(inj.to_spec()))
        clone = FaultInjector.from_spec(spec)
        assert clone.to_spec() == inj.to_spec()

    def test_error_envelopes_revive_typed(self):
        cause = CorruptChunkError("checksum mismatch", file="s0.bin",
                                  column="v", row_start=32, n_rows=16)
        err = GranuleError(cause, granule=3, shard="s0.bin", column="v")
        revived = revive_error(
            pickle.loads(pickle.dumps(encode_error(err))), 3)
        assert isinstance(revived, GranuleError)
        assert str(revived) == str(err)
        assert (revived.granule, revived.shard, revived.column) == \
            (3, "s0.bin", "v")
        assert isinstance(revived.cause, CorruptChunkError)
        assert str(revived.cause) == str(cause)
        assert revived.cause.row_start == 32
        other = revive_error(pickle.loads(pickle.dumps(
            encode_error(RuntimeError("generation drift")))), 5)
        assert isinstance(other, GranuleError)
        assert other.granule == 5
        assert "generation drift" in str(other)


# ===================================================================
# worker path property (hypothesis)
# ===================================================================
if HAVE_HYPOTHESIS:
    class TestWorkerPathProperty:
        """The real wire — descriptor JSON through json+pickle into
        :meth:`WorkerState.admit` and :meth:`WorkerState.run_granules` —
        is row-for-row identical to in-process execution, for every
        integer codec."""

        @pytest.mark.parametrize("codec", INT_CODECS)
        @given(data=st.data())
        @settings(max_examples=4, deadline=None)
        def test_worker_matches_in_process(self, codec,
                                           tmp_path_factory, data):
            raw = data.draw(st.lists(
                st.integers(-(1 << 40), 1 << 40), min_size=1,
                max_size=300))
            values = np.array(raw, dtype=np.int64)
            if codecs.info(codec).requires_sorted:
                values = np.sort(np.abs(values))
            columns = {"v": values,
                       "w": np.arange(len(values), dtype=np.int64)}
            a = data.draw(st.integers(-(1 << 41), 1 << 41))
            b = data.draw(st.integers(-(1 << 41), 1 << 41))
            expr = col("v").between(min(a, b), max(a, b))
            pivot = data.draw(st.integers(0, max(len(values) - 1, 0)))
            other = col("w") >= pivot
            expr = (expr | other) if data.draw(st.booleans()) \
                else (expr & other)
            plan = Plan.scan(["v", "w"]).where(expr)

            path = str(tmp_path_factory.mktemp("wprop") / "t")
            write_table(path, columns, codec=codec, shard_rows=64,
                        chunk_rows=16)
            with Table.open(path) as table:
                src = StoreSource(table)
                expected = plan.execute(src)
                desc = describe_query(plan, src, on_corruption="raise")
                wire = pickle.loads(pickle.dumps(
                    json.loads(json.dumps(desc.to_json())),
                    protocol=pickle.HIGHEST_PROTOCOL))
                revived = QueryDescriptor.from_json(wire)
                assert revived == desc

                state = WorkerState()
                state.admit(1, wire, None)
                parts = [part for part in state.run_granules(
                    1, list(range(len(src.granules())))) if part is not None]
            row_ids, cols = _merge_partials(parts, ("v", "w"))
            assert np.array_equal(row_ids, expected.row_ids)
            for name in ("v", "w"):
                assert np.array_equal(cols[name],
                                      expected.columns[name]), name


# ===================================================================
# process equivalence
# ===================================================================
class TestProcessEquivalence:
    def test_limit_matches(self, cold_source, sched):
        """``Plan.limit`` rides to the lanes inside the descriptor's
        plan: each lane gathers at most its first ``n`` survivors, and
        the rows, ``n_rows`` and counts are the unlimited run's."""
        desc = describe_query(FILTER_PLAN.limit(9), cold_source,
                              on_corruption="raise")
        assert desc.build_plan().row_limit == 9
        for plan in (FILTER_PLAN, Plan.scan(["ts", "reading"])):
            assert_limit_agrees(plan, cold_source, scheduler=sched)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_generation_zero_snapshot_stays_pinned(
            self, tmp_path, thread_sched, start_method):
        """A snapshot held at generation 0 answers with its own rows on
        every tier while a later generation is committed behind it (a
        deletion vector moves neither ``n_rows`` nor ``n_granules``, so
        only the pinned generation keeps a lane worker off ``CURRENT``)."""
        path = str(tmp_path / "t")
        ts = np.arange(20_000)
        write_table(path, {"ts": ts, "v": ts * 3}, shard_rows=5000,
                    chunk_rows=1000)
        lanes = ProcessScheduler(workers=2, start_method=start_method,
                                 name=f"par-pin-{start_method}")
        try:
            with Table.open(path, cache_bytes=0) as held, \
                    MutableTable.open(path) as table:
                assert table.delete(("ts", 0, 5000)) == 5000
                assert table.flush() == 1
                src = StoreSource(held)
                assert src.wire_descriptor()["version"] == 0
                res = assert_tiers_agree(Plan.scan(["ts", "v"]), src,
                                         thread_sched, lanes)
                assert np.array_equal(res.columns["ts"], ts)
        finally:
            lanes.close()

    def test_reaped_generation_is_a_typed_error(self, tmp_path, sched):
        """An overwrite behind a held snapshot reaps its generation: the
        holder still reads its mapped files, a lane worker can no longer
        open that generation and says so — it never answers from the
        table that replaced it."""
        path = str(tmp_path / "t")
        ts = np.arange(4000)
        write_table(path, {"ts": ts}, shard_rows=1000, chunk_rows=250)
        plan = Plan.scan(["ts"])
        with Table.open(path) as held:
            write_table(path, {"ts": ts + 1}, shard_rows=1000,
                        chunk_rows=250, overwrite=True)
            src = StoreSource(held)
            assert np.array_equal(
                plan.execute(src).columns["ts"], ts)
            with pytest.raises(GranuleError,
                               match="no manifest for version 0"):
                plan.execute(src, scheduler=sched)
            desc = describe_query(plan, src, on_corruption="raise")
        # a manifest naming another generation than the one it is
        # published as is drift too, caught before any granule runs
        manifest_path = os.path.join(path, manifest_file_name(1))
        with open(manifest_path) as fh:
            doc = json.load(fh)
        doc["generation"] = 7
        with open(manifest_path, "w") as fh:
            json.dump(doc, fh)
        state = WorkerState()
        state.admit(1, dataclasses.replace(desc, version=1).to_json(),
                    None)
        with pytest.raises(RuntimeError, match="generation drift"):
            state.run_granules(1, [0])

    def test_unknown_bare_id_is_a_typed_error(self, source, monkeypatch):
        """A bare descriptor id the worker does not hold is a protocol
        fault: a typed error naming the id, never a resend."""
        status, (index, info) = WorkerState().run_task(
            7, None, None, [3], None)
        assert (status, index) == ("err", 3)
        err = revive_error(info, index)
        assert isinstance(err, GranuleError)
        assert err.granule == 3
        assert "descriptor 7 is not cached on this lane" in str(err)
        # end to end: a driver that wrongly believes its lane holds the
        # descriptor gets the typed error, and the lane stays usable
        expected = FILTER_PLAN.execute(source)
        with ProcessScheduler(workers=1, name="par-bare-id") as one_lane:
            monkeypatch.setattr(par_scheduler, "cache_decision",
                                lambda sent, desc_id: (False, None))
            with pytest.raises(GranuleError,
                               match="is not cached on this lane"):
                FILTER_PLAN.execute(source, scheduler=one_lane)
            monkeypatch.undo()
            assert_rows_equal(
                FILTER_PLAN.execute(source, scheduler=one_lane), expected)

    def test_concurrent_queries_thrash_pipeline_lru(self, source):
        """More concurrent queries than MAX_CACHED_PIPELINES on one
        lane: interleaved runs keep evicting each other's cached
        pipelines.  The driver's eviction orders reach the worker ahead
        of the runs that need them, so every query still gets the exact
        in-process answer."""
        expected = FILTER_PLAN.execute(source)
        one_lane = ProcessScheduler(workers=1, name="par-thrash")
        results: list = [None] * 20
        errors: list = []

        def query(idx: int) -> None:
            try:
                results[idx] = FILTER_PLAN.execute(source,
                                                   scheduler=one_lane)
            except BaseException as err:
                errors.append(err)

        try:
            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            for got in results:
                assert_rows_equal(got, expected)
            assert len(one_lane._lanes[0].sent_descs) <= \
                MAX_CACHED_PIPELINES
        finally:
            one_lane.close()

    def test_sent_descriptor_ids_stay_bounded(self, source):
        """A lane remembers only the descriptor ids its worker's pipeline
        cache holds: 300 queries leave at most MAX_CACHED_PIPELINES of
        them, and every answer stays exact."""
        plans = [Plan.scan(["ts", "reading"])
                 .where(col("ts").between(lo, lo + 4000))
                 for lo in range(0, 50_000, 10_000)]
        expected = [plan.execute(source) for plan in plans]
        with ProcessScheduler(workers=1, name="par-lru") as one_lane:
            for i in range(300):
                got = plans[i % len(plans)].execute(source,
                                                    scheduler=one_lane)
                assert_rows_equal(got, expected[i % len(plans)])
            assert len(one_lane._lanes[0].sent_descs) <= \
                MAX_CACHED_PIPELINES

    def test_stats_report_the_tier(self, sched):
        stats = sched.stats()
        assert stats["tier"] == "process"
        assert stats["workers"] == 2
        assert stats["start_method"] == default_start_method()
        assert stats["workers_alive"] == 2

    def test_explicit_spawn_scheduler(self, source):
        expected = FILTER_PLAN.execute(source)
        spawn_sched = ProcessScheduler(workers=1, start_method="spawn",
                                       name="par-spawn")
        try:
            got = FILTER_PLAN.execute(source, scheduler=spawn_sched)
            assert_rows_equal(got, expected)
            assert spawn_sched.stats()["start_method"] == "spawn"
        finally:
            spawn_sched.close()

    def test_admission_control_still_applies(self, root):
        inj = FaultInjector()
        inj.slow_at("granule.exec", delay_s=1.5, times=1)
        bounded = ProcessScheduler(workers=1, max_inflight=1,
                                   queue_depth=0, name="par-bounded",
                                   fault_spec=inj.to_spec())
        plan = Plan.scan(["ts"]).where(col("status") == 0)
        errors = []

        def first_query():
            with Table.open(os.path.join(root, "events")) as table:
                try:
                    execute(plan, StoreSource(table), scheduler=bounded)
                except BaseException as err:  # pragma: no cover
                    errors.append(err)

        thread = threading.Thread(target=first_query)
        try:
            thread.start()
            time.sleep(0.4)
            with Table.open(os.path.join(root, "events")) as table:
                with pytest.raises(ServerBusy):
                    execute(plan, StoreSource(table), scheduler=bounded)
        finally:
            thread.join()
            bounded.close()
        assert errors == []


# ===================================================================
# lane descriptor cache: the driver evicts, the worker obeys
# ===================================================================
def _open_shard_links(pid: int, under: str) -> list[str]:
    """The ``.rps`` files under ``under`` that process ``pid`` holds
    open, one entry per descriptor (a file open twice appears twice)."""
    links = []
    fd_dir = f"/proc/{pid}/fd"
    for fd in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, fd))
        except OSError:  # closed while listing
            continue
        if target.endswith(".rps") and target.startswith(under):
            links.append(target)
    return sorted(links)


class TestLaneDescriptorCache:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_worker_cache_mirrors_sent_descs(self, source, seed):
        """The partition property of a lane's cache: driven by the
        driver's own send and evict decisions, the worker holds exactly
        the ids in ``sent_descs`` after every task — across more
        distinct descriptors than the cap, runs whose deadline passed
        before the worker started them, and descriptors that fail to
        build — and keeps open only the tables those pipelines read."""
        rng = np.random.default_rng(seed)
        good = describe_query(FILTER_PLAN, source, on_corruption="raise")
        # generation drift: the worker opens the table, then refuses it
        drift = dataclasses.replace(good, n_rows=good.n_rows + 1)
        expected = GranulePipeline(FILTER_PLAN, source).run(
            source.granules()[0])
        n_ids = MAX_CACHED_PIPELINES + 8
        sent: OrderedDict = OrderedDict()
        state = WorkerState()
        seen = set()
        for _ in range(300):
            desc_id = int(rng.integers(1, n_ids + 1))
            seen.add(desc_id)
            desc = drift if desc_id % 7 == 0 else good
            late = rng.random() < 0.2
            send, evict = cache_decision(sent, desc_id)
            status, payload = state.run_task(
                desc_id, desc.to_json() if send else None, evict, [0],
                -1.0 if late else None)
            assert set(state._pipelines) == set(sent)
            assert len(sent) <= MAX_CACHED_PIPELINES
            named = {id(entry[1]) for entry in state._pipelines.values()
                     if isinstance(entry, tuple)}
            assert {id(src) for src in state._sources.values()} == named
            if late:
                assert (status, payload) == ("ok", [None])
            elif desc is drift:
                assert status == "err"
                assert "generation drift" in payload[1]["message"]
            else:
                assert status == "ok"
                assert np.array_equal(payload[0].row_ids,
                                      expected.row_ids)
        assert len(seen) > MAX_CACHED_PIPELINES
        # dropping every id closes every table
        for desc_id in list(sent):
            state.admit(0, None, desc_id)
        assert state._pipelines == {} and state._sources == {}

    def test_cache_decision_sends_once_and_evicts_least_recent(self):
        sent: OrderedDict = OrderedDict()
        for desc_id in range(1, MAX_CACHED_PIPELINES + 1):
            assert cache_decision(sent, desc_id) == (True, None)
        assert cache_decision(sent, 1) == (False, None)  # now newest
        assert cache_decision(sent, 99) == (True, 2)
        assert list(sent) == [*range(3, MAX_CACHED_PIPELINES + 1), 1, 99]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_a_lane_opens_only_the_tables_it_caches(self, tmp_path,
                                                    start_method):
        """Queries over more generations of one table than a lane
        caches pipelines leave its worker holding open the shard files
        of the cached generations' snapshots, and nothing else — each
        file once, however many of those generations name it."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc here to list a worker's open files")
        path = os.path.realpath(str(tmp_path / "mt"))
        plan = Plan.scan(["k"]).where(col("k") >= 0)
        versions = []
        with ProcessScheduler(workers=1, start_method=start_method,
                              name=f"par-open-{start_method}") as lane, \
                MutableTable.create(path, schema=("k",),
                                    chunk_rows=50) as table:
            for g in range(MAX_CACHED_PIPELINES + 4):
                table.append({"k": np.arange(g * 100, g * 100 + 100)})
                table.flush()
                with table.snapshot() as snap:
                    versions.append(snap.generation)
                    got = plan.execute(StoreSource(snap), scheduler=lane)
                    assert np.array_equal(
                        np.sort(got.columns["k"]), np.arange(g * 100 + 100))
            assert len(lane._lanes[0].sent_descs) == MAX_CACHED_PIPELINES
            expected = []
            for version in versions[-MAX_CACHED_PIPELINES:]:
                with Table.open(path, version=version,
                                cache_bytes=0) as snap:
                    expected += [os.path.realpath(shard.path)
                                 for shard in snap.shards]
            assert _open_shard_links(lane._lanes[0].proc.pid, path) == \
                sorted(set(expected))


# ===================================================================
# crash matrix
# ===================================================================
def _respawns(sched_name: str) -> float:
    return default_registry().get("repro_par_respawns_total").labels(
        sched=sched_name).value


class TestCrashMatrix:
    def test_injected_crash_respawns_and_retries(self, source):
        expected = FILTER_PLAN.execute(source)
        inj = FaultInjector()
        inj.crash_at("granule.exec", at=2)
        crashy = ProcessScheduler(workers=1, name="par-crash",
                                  fault_spec=inj.to_spec())
        try:
            got = FILTER_PLAN.execute(source, scheduler=crashy)
            assert_rows_equal(got, expected)
            assert _respawns("par-crash") >= 1
            assert crashy.stats()["workers_alive"] == 1
        finally:
            crashy.close()

    def test_persistent_crash_is_a_typed_error(self, source):
        inj = FaultInjector()
        inj._add("granule.exec", "crash", 1, None)  # every attempt dies
        doomed = ProcessScheduler(workers=1, name="par-doomed",
                                  fault_spec=inj.to_spec())
        try:
            with pytest.raises(GranuleError, match="died twice"):
                FILTER_PLAN.execute(source, scheduler=doomed)
        finally:
            doomed.close()

    def test_external_sigkill_recovers(self, source):
        expected = FILTER_PLAN.execute(source)
        victim = ProcessScheduler(workers=1, name="par-kill")
        try:
            got = FILTER_PLAN.execute(source, scheduler=victim)
            assert_rows_equal(got, expected)
            proc = victim._lanes[0].proc
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=10)
            got = FILTER_PLAN.execute(source, scheduler=victim)
            assert_rows_equal(got, expected)
            assert _respawns("par-kill") >= 1
        finally:
            victim.close()

    def test_timeout_abandons_without_poisoning_lanes(self, source):
        expected = FILTER_PLAN.execute(source)
        inj = FaultInjector()
        inj.slow_at("granule.exec", delay_s=0.6, times=2)
        slow = ProcessScheduler(workers=1, name="par-slow",
                                fault_spec=inj.to_spec())
        try:
            with pytest.raises(ExecTimeout):
                FILTER_PLAN.execute(source, scheduler=slow,
                                    timeout_s=0.15)
            # the abandoned granules' late results must be discarded by
            # sequence number, not misattributed to the next query
            got = FILTER_PLAN.execute(source, scheduler=slow)
            assert_rows_equal(got, expected)
        finally:
            slow.close()


# ===================================================================
# driver-side pruning
# ===================================================================
def _lane_granules(sched_name: str, outcome: str) -> float:
    """The driver's own per-granule count of lane traffic, whatever
    message carried each granule (never rate-limited, unlike the
    worker-side series)."""
    return default_registry().get("repro_par_granules_total").labels(
        sched=sched_name, outcome=outcome).value


def _exec_counts() -> dict:
    """The integer ``repro_exec_*`` series ``_charge_query_metrics``
    moves (the driver's own: worker copies carry a ``proc`` label)."""
    registry = default_registry()
    return {
        (family, value):
            registry.get(family).labels(**{label: value}).value
        for family, label, values in (
            ("repro_exec_queries_total", "status",
             ("ok", "timeout", "error", "busy")),
            ("repro_exec_granules_total", "outcome",
             ("executed", "pruned")),
            ("repro_exec_rows_total", "kind", ("scanned", "masked")),
            ("repro_exec_bytes_total", "kind", ("scanned", "read")))
        for value in values}


def _moved(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in after
            if after[key] != before[key]}


BAND_ROWS, BAND_CHUNK, BAND_STEP = 4000, 100, 10


def _band(lo_row: int, hi_row: int) -> Plan:
    """``ts`` is ``row * BAND_STEP``, sorted: a band of rows is a band
    of granules."""
    return Plan.scan(["ts", "v"]).where(
        col("ts").between(lo_row * BAND_STEP, hi_row * BAND_STEP))


@pytest.fixture(scope="module")
def banded(tmp_path_factory):
    """Two uncached snapshots of one table sorted on ``ts``, 40
    granules of 100 rows: generation 0 with every row live, and
    generation 1, whose deletion vectors kill granules 5-9 whole (they
    prune through the implicit ``Bitmap``) and half of granule 20."""
    path = str(tmp_path_factory.mktemp("banded") / "t")
    ts = np.arange(BAND_ROWS, dtype=np.int64) * BAND_STEP
    write_table(path, {"ts": ts, "v": (ts * 7) % 1001},
                shard_rows=1000, chunk_rows=BAND_CHUNK)
    with Table.open(path, cache_bytes=0) as live, \
            MutableTable.open(path) as table:
        assert table.delete(("ts", 500 * BAND_STEP,
                             1000 * BAND_STEP)) == 500
        assert table.delete(("ts", 2000 * BAND_STEP,
                             2050 * BAND_STEP)) == 50
        assert table.flush() == 1
        with Table.open(path, cache_bytes=0) as dead:
            yield {"live": StoreSource(live), "dead": StoreSource(dead)}


@pytest.fixture(scope="module", params=["fork", "spawn"])
def lanes(request):
    if request.param not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{request.param} unavailable")
    with ProcessScheduler(workers=2, start_method=request.param,
                          name=f"par-prune-{request.param}") as scheduler:
        yield scheduler


class TestDriverSidePruning:
    """A describable source's granules are split by zone map *before*
    they run, on the calling thread and before dispatch to lanes: every
    granule is pruned or run, never both, never neither (SNIPPETS 2-3),
    and everything a caller can observe is what the in-granule pruning
    of the thread tier produces."""

    @staticmethod
    def _check_split(plan, src, thread_sched, lanes, **opts):
        pruned = GranulePipeline(plan, src, **opts).pruned
        survivors = [g.index for g in src.granules()
                     if pruned is None or not pruned[g.index]]
        n_pruned = len(src.granules()) - len(survivors)
        expected = assert_tiers_agree(plan, src, thread_sched, lanes,
                                      **opts)
        for where, crossed in (({}, 0),
                               ({"scheduler": lanes}, len(survivors))):
            trace = Trace("split")
            sent = _lane_granules(lanes.name, "ok")
            res = plan.execute(src, trace=trace, **where, **opts)
            # exactly the survivors ran (crossing a pipe on lanes, and
            # only there), each exactly once ...
            assert _lane_granules(lanes.name, "ok") - sent == crossed
            assert sorted(s.attrs["granule"] for s in trace.spans
                          if s.name == "granule") == survivors
            # ... the rest were charged once, by the one "prune" span
            [prune] = [s for s in trace.spans if s.name == "prune"]
            assert prune.attrs == {"pruned": n_pruned,
                                   "granules": len(src.granules())}
            assert "proc" not in prune.attrs and prune.pid == 0
            assert res.stats.granules_pruned == n_pruned
            # ... and every tier agrees on rows and every integer count
            assert_rows_equal(res, expected)
            assert count_fields(res.stats) == count_fields(expected.stats)
        return expected, survivors

    if HAVE_HYPOTHESIS:
        @given(data=st.data())
        @settings(max_examples=12, deadline=None)
        def test_split_is_a_partition_of_the_granule_set(
                self, banded, thread_sched, lanes, data):
            src = banded[data.draw(st.sampled_from(["live", "dead"]))]
            opts = {"prune": data.draw(st.booleans())}
            if data.draw(st.integers(0, 4)) == 0:
                plan = Plan.scan(["ts", "v"])  # no predicate at all
            else:
                # past either end of the table too: all-pruned bands
                a = data.draw(st.integers(-300, BAND_ROWS + 300))
                b = data.draw(st.integers(-300, BAND_ROWS + 300))
                plan = _band(min(a, b), max(a, b))
            expected, survivors = self._check_split(
                plan, src, thread_sched, lanes, **opts)
            ts = expected.columns["ts"]
            want = np.arange(BAND_ROWS, dtype=np.int64) * BAND_STEP
            expr = plan.filter_expr()
            if expr is not None:
                want = want[expr.evaluate({"ts": want}, None)]
            if src is banded["dead"]:
                want = want[src.table.live_mask()[want // BAND_STEP]]
            assert np.array_equal(ts, want)
            if not opts["prune"]:
                assert len(survivors) == len(src.granules())

    def test_selective_all_pruned_and_unprunable(self, banded,
                                                 thread_sched, lanes):
        for name, src in banded.items():
            _, some = self._check_split(_band(1234, 1567), src,
                                        thread_sched, lanes)
            assert some == [12, 13, 14, 15]
            # an all-pruned band sends no lane message at all
            sent_bytes = default_registry().get(
                "repro_par_bytes_total").labels(
                    sched=lanes.name, direction="sent")
            before = sent_bytes.value
            expected, none = self._check_split(
                _band(BAND_ROWS + 5, BAND_ROWS + 9), src,
                thread_sched, lanes)
            assert none == [] and len(expected.row_ids) == 0
            assert sent_bytes.value == before
            # no predicate: only all-dead granules can prune
            _, every = self._check_split(Plan.scan(["ts", "v"]), src,
                                         thread_sched, lanes)
            assert len(every) == (40 if name == "live" else 35)

    def test_exec_metrics_move_as_on_the_thread_tier(self, banded,
                                                     thread_sched,
                                                     lanes):
        """``_charge_query_metrics`` sees the same totals whoever
        pruned: one selective query moves every integer ``repro_exec_*``
        series by what the thread tier moves it."""
        plan, src = _band(1234, 1567), banded["dead"]
        moved = []
        for sched in (thread_sched, lanes):
            before = _exec_counts()
            plan.execute(src, scheduler=sched)
            moved.append(_moved(before, _exec_counts()))
        assert moved[0] == moved[1]
        assert moved[0][("repro_exec_queries_total", "ok")] == 1
        assert moved[0][("repro_exec_granules_total", "pruned")] == 36
        assert moved[0][("repro_exec_granules_total", "executed")] == 4

    def test_all_pruned_query_still_passes_admission(self, banded):
        """Nothing to dispatch is not a way round the admission gate: a
        full scheduler refuses the all-pruned query like any other, and
        a refused query charges no granule."""
        inj = FaultInjector()
        inj.slow_at("granule.exec", delay_s=1.5, times=1)
        src = banded["live"]
        errors = []
        with ProcessScheduler(workers=1, max_inflight=1, queue_depth=0,
                              name="par-prune-busy",
                              fault_spec=inj.to_spec()) as bounded:
            def occupy():
                try:
                    _band(0, 50).execute(src, scheduler=bounded)
                except BaseException as err:  # pragma: no cover
                    errors.append(err)

            thread = threading.Thread(target=occupy)
            thread.start()
            try:
                time.sleep(0.4)
                before = _exec_counts()
                with pytest.raises(ServerBusy):
                    _band(BAND_ROWS + 5, BAND_ROWS + 9).execute(
                        src, scheduler=bounded)
                assert _moved(before, _exec_counts()) == {
                    ("repro_exec_queries_total", "busy"): 1}
            finally:
                thread.join()
            # admitted once the slot is free, and it sends nothing
            sent = _lane_granules("par-prune-busy", "ok")
            res = _band(BAND_ROWS + 5, BAND_ROWS + 9).execute(
                src, scheduler=bounded)
            assert res.stats.granules_pruned == 40
            assert _lane_granules("par-prune-busy", "ok") == sent
        assert errors == []

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_crash_on_a_survivor_retries_once(self, banded,
                                              start_method):
        """The second survivor a worker sees kills it (every respawn
        re-arms the rule).  Four survivors on one lane are a small job,
        so they go down as one run, which dies at its second granule:
        each of the four is re-sent alone, and the three that come
        second to a fresh worker die once more and are retried once.
        Each is merged once, the result equals inline, and the pruned
        count is charged once — not again by a retry."""
        plan, src = _band(1234, 1567), banded["dead"]
        expected = plan.execute(src)
        inj = FaultInjector()
        inj.crash_at("granule.exec", at=2)
        name = f"par-prune-crash-{start_method}"
        with ProcessScheduler(workers=1, start_method=start_method,
                              name=name,
                              fault_spec=inj.to_spec()) as crashy:
            got = plan.execute(src, scheduler=crashy)
            assert _respawns(name) == 1 + 3
            assert _lane_granules(name, "retried") == 4 + 3
            assert _lane_granules(name, "ok") == 4
        assert_rows_equal(got, expected)
        assert count_fields(got.stats) == count_fields(expected.stats)
        assert got.stats.granules_pruned == 36

    def test_timeout_counts_the_pruned_as_completed(self, banded):
        plan, src = _band(1234, 1567), banded["live"]
        inj = FaultInjector()
        inj.slow_at("granule.exec", delay_s=0.6, times=2)
        before = _exec_counts()
        with ProcessScheduler(workers=1, name="par-prune-slow",
                              fault_spec=inj.to_spec()) as slow:
            with pytest.raises(ExecTimeout) as caught:
                plan.execute(src, scheduler=slow, timeout_s=0.15)
            stats = caught.value.stats
            # the 36 granules the driver pruned are done; of the four
            # survivors at most the abandoned first one was started
            assert stats.granules_pruned == 36
            assert 36 <= stats.granules_total < 40
            assert f"({stats.granules_total}/40 granules completed)" \
                in str(caught.value)
            moved = _moved(before, _exec_counts())
            assert moved[("repro_exec_queries_total", "timeout")] == 1
            assert moved[("repro_exec_granules_total", "pruned")] == 36
            # and the lane is not poisoned by the abandoned result
            assert_rows_equal(plan.execute(src, scheduler=slow),
                              plan.execute(src))


# ===================================================================
# lane messages carry runs of granules
# ===================================================================
def _drain(queued: int, lanes: int) -> list[list[int]]:
    """The runs one job's queue of ``queued`` granules leaves in, popped
    the way ``MorselScheduler._worker`` pops them: ``run_length`` of
    what is still queued at each turn, for a job of ``queued``."""
    queue = deque(range(queued))
    runs = []
    while queue:
        runs.append([queue.popleft() for _ in range(
            run_length(len(queue), lanes, queued))])
    return runs


class TestLaneRuns:
    """A process-tier lane message carries a run of consecutive
    survivors: a job of ``RUN_DIVISOR`` per lane or fewer is one
    message; a larger one is guided self-scheduled, its runs shrinking
    as the queue drains until its last ``RUN_DIVISOR`` per lane go one
    granule a message.  Every granule goes down in exactly one message
    (SNIPPETS 2-3).  Results, stats, spans and the per-granule counters
    cannot tell."""

    if HAVE_HYPOTHESIS:
        @given(queued=st.integers(0, 600), lanes=st.integers(1, 4))
        def test_runs_partition_the_queue(self, queued, lanes):
            runs = _drain(queued, lanes)
            # consecutive runs, every granule in exactly one message
            assert [g for run in runs for g in run] == list(range(queued))
            sizes = [len(run) for run in runs]
            assert all(size >= 1 for size in sizes)
            assert sizes == sorted(sizes, reverse=True)
            if queued <= RUN_DIVISOR * lanes:
                # a small job is one message carrying all of it
                assert runs == ([list(range(queued))] if queued else [])
                return
            assert sizes[0] <= -(-queued // (RUN_DIVISOR * lanes))
            left = queued
            for size in sizes:
                if left <= RUN_DIVISOR * lanes:
                    assert size == 1
                left -= size

    @pytest.mark.parametrize("name", ["live", "dead"])
    def test_real_dispatch_matches_the_drain(self, banded, thread_sched,
                                             lanes, monkeypatch, name):
        """No predicate on 2 lanes: runs longer than one granule go
        down, and nothing a caller can observe moves."""
        src = banded[name]
        plan = Plan.scan(["ts", "v"])
        sent: list[list[int]] = []
        dispatch = lanes._dispatch

        def record(lane, job, wire, items):
            sent.append([g.index for g in items])
            return dispatch(lane, job, wire, items)

        monkeypatch.setattr(lanes, "_dispatch", record)
        pruned = GranulePipeline(plan, src).pruned
        survivors = [g.index for g in src.granules()
                     if pruned is None or not pruned[g.index]]
        ok = _lane_granules(lanes.name, "ok")
        trace = Trace("runs")
        res = plan.execute(src, scheduler=lanes, trace=trace)
        monkeypatch.undo()
        # each survivor in exactly one message, each message a run of
        # consecutive survivors, sized as the drain says
        assert sorted(g for run in sent for g in run) == survivors
        position = {g: i for i, g in enumerate(survivors)}
        for run in sent:
            at = [position[g] for g in run]
            assert at == list(range(at[0], at[0] + len(run)))
        assert sorted(map(len, sent), reverse=True) == [
            len(run) for run in _drain(len(survivors), lanes.workers)]
        assert max(map(len, sent)) > 1
        # per granule, as before: the counter, the spans, the stats
        assert _lane_granules(lanes.name, "ok") - ok == len(survivors)
        assert_granule_spans_match(trace, res.stats)
        expected = assert_tiers_agree(plan, src, thread_sched, lanes)
        assert_rows_equal(res, expected)
        assert count_fields(res.stats) == count_fields(expected.stats)

    @pytest.mark.parametrize("survivors", [1, 3, 2 * RUN_DIVISOR,
                                           2 * RUN_DIVISOR + 1])
    def test_a_small_job_is_one_message(self, banded, lanes, monkeypatch,
                                        survivors):
        """On 2 lanes a job of ``2 * RUN_DIVISOR`` survivors or fewer
        goes down as one message carrying all of them in order; one more
        survivor and the job drains guided, its tail a granule a
        message."""
        src = banded["live"]
        plan = _band(1200, 1200 + BAND_CHUNK * survivors)
        sent: list[list[int]] = []
        dispatch = lanes._dispatch

        def record(lane, job, wire, items):
            sent.append([g.index for g in items])
            return dispatch(lane, job, wire, items)

        monkeypatch.setattr(lanes, "_dispatch", record)
        res = plan.execute(src, scheduler=lanes)
        monkeypatch.undo()
        expected = list(range(12, 12 + survivors))
        assert sorted(g for run in sent for g in run) == expected
        if survivors <= RUN_DIVISOR * lanes.workers:
            assert sent == [expected]
        else:
            assert sorted(map(len, sent), reverse=True) == [
                len(run) for run in _drain(survivors, lanes.workers)]
            assert len(sent) > 1
        assert_rows_equal(res, plan.execute(src))

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_crash_inside_a_small_run(self, banded, start_method):
        """Three survivors on one lane are one message.  The second
        granule a worker starts kills it, so the run dies; each of its
        granules is re-sent alone, and the two that come second to a
        fresh worker die once more and are retried once.  Deaths: the
        run, then those two."""
        plan, src = _band(1200, 1500), banded["live"]
        expected = plan.execute(src)
        assert expected.stats.granules_total \
            - expected.stats.granules_pruned == 3
        assert _drain(3, 1) == [[0, 1, 2]]
        inj = FaultInjector()
        inj.crash_at("granule.exec", at=2)
        name = f"par-small-run-crash-{start_method}"
        trace = Trace("crash")
        with ProcessScheduler(workers=1, start_method=start_method,
                              name=name,
                              fault_spec=inj.to_spec()) as crashy:
            got = plan.execute(src, scheduler=crashy, trace=trace)
            assert crashy.stats()["workers_alive"] == 1
        assert_rows_equal(got, expected)
        assert count_fields(got.stats) == count_fields(expected.stats)
        assert_granule_spans_match(trace, got.stats)
        assert _lane_granules(name, "ok") == 3
        assert _respawns(name) == 1 + 2
        assert _lane_granules(name, "retried") == 3 + 2

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_crash_inside_a_run(self, banded, start_method):
        """Eight survivors on one lane go down as runs of 2, 2, then
        singles.  The second granule a worker starts kills it (every
        respawn re-arms the rule), so both two-granule messages die
        part-way: their granules are re-sent alone, each merged once.
        Deaths: two runs, then one lone retry each for the six granules
        that come second to a fresh worker."""
        plan, src = _band(1234, 1967), banded["live"]
        expected = plan.execute(src)
        assert expected.stats.granules_total \
            - expected.stats.granules_pruned == 8
        assert [len(run) for run in _drain(8, 1)][:2] == [2, 2]
        inj = FaultInjector()
        inj.crash_at("granule.exec", at=2)
        name = f"par-run-crash-{start_method}"
        trace = Trace("crash")
        with ProcessScheduler(workers=1, start_method=start_method,
                              name=name,
                              fault_spec=inj.to_spec()) as crashy:
            got = plan.execute(src, scheduler=crashy, trace=trace)
            assert crashy.stats()["workers_alive"] == 1
        assert_rows_equal(got, expected)
        assert count_fields(got.stats) == count_fields(expected.stats)
        assert_granule_spans_match(trace, got.stats)
        assert _lane_granules(name, "ok") == 8
        assert _respawns(name) == 8
        assert _lane_granules(name, "retried") == 2 * 2 + 6

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_poison_granule_in_a_run_dies_twice(self, banded,
                                                start_method):
        """A rule that kills every invocation: the run dies, its first
        granule goes alone, dies, is retried once, dies again."""
        inj = FaultInjector()
        inj._add("granule.exec", "crash", 1, None)
        name = f"par-run-doomed-{start_method}"
        with ProcessScheduler(workers=1, start_method=start_method,
                              name=name,
                              fault_spec=inj.to_spec()) as doomed:
            with pytest.raises(GranuleError, match="died twice"):
                _band(1234, 1967).execute(banded["live"],
                                          scheduler=doomed)
        assert _respawns(name) == 3

    def test_timeout_frees_the_lane_within_one_granule(self, banded):
        """Every granule is slow.  A query abandoned on its deadline in
        the first granule of a ten-granule run must not keep the lane
        for the other nine: the worker stops at its copy of the
        deadline, so the next query waits for at most the granule in
        progress, then runs its own."""
        delay = 0.5
        inj = FaultInjector()
        inj.slow_at("granule.exec", delay_s=delay)
        src = banded["live"]
        assert len(src.granules()) == 40
        assert run_length(40, 1, 40) == 10
        one = _band(1234, 1290)  # one survivor
        with ProcessScheduler(workers=1, name="par-run-slow",
                              fault_spec=inj.to_spec()) as slow:
            with pytest.raises(ExecTimeout):
                Plan.scan(["ts", "v"]).execute(src, scheduler=slow,
                                               timeout_s=0.1)
            t0 = time.perf_counter()
            got = one.execute(src, scheduler=slow)
            waited = time.perf_counter() - t0
        assert_rows_equal(got, one.execute(src))
        # at most the abandoned granule's rest plus this query's own
        # granule — the other nine would be 4.5 s
        assert waited < 2.5 * delay


# ===================================================================
# cache gauges (aggregate-on-render)
# ===================================================================
class TestCacheGauges:
    def _gauges(self):
        # earlier process-tier tests merge worker copies of these
        # gauges under a ``proc`` label; this test is about the LOCAL
        # function-backed series
        fams = parse_text(render_text())
        [used] = [v for _, lbl, v
                  in fams["repro_cache_used_bytes"]["samples"]
                  if "proc" not in lbl]
        [entries] = [v for _, lbl, v
                     in fams["repro_cache_entries"]["samples"]
                     if "proc" not in lbl]
        return used, entries

    def test_gauges_sum_over_live_caches(self):
        # the gauges sum every live cache: an earlier test's cache left
        # in cyclic garbage must not die between this test's reads
        gc.collect()
        gc.disable()
        try:
            used0, entries0 = self._gauges()
            first = ChunkCache(capacity_bytes=1 << 20)
            second = ChunkCache(capacity_bytes=1 << 20)
            first.get_or_load("a", lambda: "x", 1000)
            second.get_or_load("b", lambda: "y", 2000)
            second.get_or_load("c", lambda: "z", 4000)
            used1, entries1 = self._gauges()
            # two instances add up instead of clobbering each other
            assert used1 - used0 == 7000
            assert entries1 - entries0 == 3
            first.clear()
            used2, entries2 = self._gauges()
            assert used2 - used0 == 6000
            assert entries2 - entries0 == 2
        finally:
            gc.enable()

    def test_function_backed_gauges_refuse_mutation(self):
        from repro.store.cache import _M_ENTRIES, _M_USED

        for gauge in (_M_USED, _M_ENTRIES):
            with pytest.raises(ValueError, match="function-backed"):
                gauge.set(5)
            with pytest.raises(ValueError, match="function-backed"):
                gauge.inc()


# ===================================================================
# serve integration
# ===================================================================
class TestServeProcessTier:
    def test_rejects_unknown_tier(self, root):
        with pytest.raises(ValueError, match="worker_tier"):
            TableServer(root, worker_tier="bogus")

    def test_process_tier_end_to_end(self, root, source):
        expected = FILTER_PLAN.execute(source)
        srv = TableServer(root, workers=1, worker_tier="process",
                          max_inflight=2, queue_depth=2).start()
        host, port = srv.address
        try:
            with ServeClient(host, port) as client:
                result = client.query("events", FILTER_PLAN)
            assert result["n_rows"] == len(expected.row_ids)
            assert np.array_equal(result["row_ids"], expected.row_ids)
            for name in expected.columns:
                assert np.array_equal(result["columns"][name],
                                      expected.columns[name]), name
        finally:
            srv.shutdown()

    def test_slow_query_record_accounts_for_every_granule(
            self, root, source, tmp_path):
        """``lanes`` counts the granules that ran, per lane; ``pruned``
        the ones the driver's zone-map split kept off the pipes."""
        stats = FILTER_PLAN.execute(source).stats
        log = str(tmp_path / "slow.jsonl")
        with TableServer(root, workers=2, worker_tier="process",
                         slow_query_ms=0.0, slow_query_log=log) as srv, \
                ServeClient(*srv.address) as client:
            client.query("events", FILTER_PLAN)
        with open(log, encoding="utf-8") as fh:
            [record] = [json.loads(line) for line in fh]
        assert record["worker_tier"] == "process"
        assert set(record["lanes"]) <= {"w0", "w1"}
        assert record["pruned"] == stats.granules_pruned > 0
        assert sum(record["lanes"].values()) + record["pruned"] \
            == stats.granules_total


# ===================================================================
# cross-process observability (PR 10)
# ===================================================================
class TestCrossProcessObs:
    """Worker telemetry merges under ``proc`` labels, traces cross the
    lane pipe, and the ``REPRO_OBS_DISABLED``/``set_enabled`` kill
    switch silences all of it."""

    @staticmethod
    def _family_total(fams, family, merged=None):
        """Sum of one counter family's samples; ``merged`` narrows to
        proc-labelled (True) or local (False) series."""
        total = 0.0
        for _, labels, value in fams.get(
                family, {"samples": []})["samples"]:
            if merged is not None and ("proc" in labels) != merged:
                continue
            total += value
        return total

    def test_one_scrape_accounts_for_worker_activity(self, source):
        """The tentpole invariant: a thread-tier and a process-tier run
        of the same workload charge the same number of cache lookups to
        the registry — locally for threads, under ``proc`` labels for
        workers — and the granules the driver's zone-map split let
        through, and only those, surface per-lane."""
        fam = "repro_cache_lookups_total"
        before = parse_text(render_text())
        thread_res = FILTER_PLAN.execute(source)
        mid = parse_text(render_text())
        thread_delta = (self._family_total(mid, fam, merged=False)
                        - self._family_total(before, fam, merged=False))
        assert thread_delta > 0

        with ProcessScheduler(workers=2, name="obs-merge") as sched:
            proc_res = FILTER_PLAN.execute(source, scheduler=sched)
        # close() drains each lane's final telemetry flush, so one
        # scrape here accounts for everything the workers did
        after = parse_text(render_text())
        assert np.array_equal(proc_res.row_ids, thread_res.row_ids)
        merged_delta = (self._family_total(after, fam, merged=True)
                        - self._family_total(mid, fam, merged=True))
        local_delta = (self._family_total(after, fam, merged=False)
                       - self._family_total(mid, fam, merged=False))
        # same workload, same chunk traffic — charged worker-side now
        assert merged_delta == thread_delta
        assert local_delta == 0
        granules = (self._family_total(
            after, "repro_par_worker_granules_total", merged=True)
            - self._family_total(
                mid, "repro_par_worker_granules_total", merged=True))
        stats = proc_res.stats
        assert stats.granules_pruned > 0  # the plan exercises the split
        assert granules \
            == stats.granules_total - stats.granules_pruned > 0
        # lane-health series exist once a process tier has run
        fams = parse_text(render_text())
        assert "repro_par_pipe_roundtrip_seconds" in fams
        assert "repro_par_dispatch_wait_seconds" in fams

    def test_traced_process_query_spans_match_stats(self, source,
                                                    sched):
        trace = Trace("q")
        res = FILTER_PLAN.execute(source, scheduler=sched, trace=trace)
        assert res.stats.granules_total > 0
        assert_granule_spans_match(trace, res.stats)
        granules = [s for s in trace.spans if s.name == "granule"]
        # every survivor ran in a worker: real pid, proc attribution,
        # and none of them turned out prunable on arrival
        here = os.getpid()
        assert len(granules) \
            == res.stats.granules_total - res.stats.granules_pruned
        assert {s.attrs["proc"] for s in granules} <= {"w0", "w1"}
        assert all(s.pid and s.pid != here for s in granules)
        assert not any(s.attrs["pruned"] for s in granules)
        # driver-side spans (admit, prune, merge) stay on the driver
        # row; worker-side ones (granule, load, ...) all carry proc+pid
        driver_spans = [s for s in trace.spans
                        if "proc" not in s.attrs]
        assert {s.name for s in driver_spans} >= {"admit", "prune"}
        [prune] = [s for s in driver_spans if s.name == "prune"]
        assert prune.attrs["pruned"] == res.stats.granules_pruned > 0
        assert all(s.pid == 0 for s in driver_spans)
        assert all(s.pid for s in trace.spans if "proc" in s.attrs)

    def test_chrome_export_shows_worker_process_rows(self, source,
                                                     sched):
        trace = Trace("q")
        FILTER_PLAN.execute(source, scheduler=sched, trace=trace)
        exported = trace.to_chrome()
        meta = [e for e in exported if e["ph"] == "M"]
        events = [e for e in exported if e["ph"] == "X"]
        names = {m["args"]["name"] for m in meta}
        assert "driver" in names and names & {"w0", "w1"}
        assert len({e["pid"] for e in events}) >= 2
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert all(t >= 0 for t in timestamps)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_traced_equivalence_across_tiers(self, source, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} unavailable")
        thread_trace = Trace("thread")
        FILTER_PLAN.execute(source, trace=thread_trace)
        proc_trace = Trace("proc")
        with ProcessScheduler(workers=2, start_method=method,
                              name=f"obs-{method}") as sched:
            FILTER_PLAN.execute(source, scheduler=sched,
                                trace=proc_trace)
        g_thread = [s for s in thread_trace.spans
                    if s.name == "granule"]
        g_proc = [s for s in proc_trace.spans if s.name == "granule"]
        # both tiers split the granule set by the same zone-map decision
        # before running anything, so the same granules run with the
        # same rows, and each tier's one "prune" span counts the rest;
        # *total* cache traffic agrees too (the hit/miss split depends on
        # which per-worker cache each granule landed in, so only the sum
        # is comparable)
        assert sorted((s.attrs["granule"], s.attrs["rows"])
                      for s in g_thread) \
            == sorted((s.attrs["granule"], s.attrs["rows"])
                      for s in g_proc)
        assert not any(s.attrs["pruned"] for s in g_thread + g_proc)
        [thread_prune] = [s for s in thread_trace.spans
                          if s.name == "prune"]
        [proc_prune] = [s for s in proc_trace.spans if s.name == "prune"]
        assert thread_prune.attrs["pruned"] \
            == proc_prune.attrs["pruned"] > 0
        lookups = [sum(s.attrs["cache_hits"] + s.attrs["cache_misses"]
                       for s in spans)
                   for spans in (g_thread, g_proc)]
        assert lookups[0] == lookups[1]

    def test_kill_switch_suppresses_worker_telemetry(self, source):
        """``set_enabled(False)`` before the scheduler spawns reaches
        the workers: no counter family moves, locally or merged."""
        families = ("repro_cache_lookups_total",
                    "repro_par_worker_granules_total",
                    "repro_exec_granules_total",
                    "repro_par_respawns_total")
        before = parse_text(render_text())
        set_enabled(False)
        try:
            with ProcessScheduler(workers=1, name="obs-off") as sched:
                res = FILTER_PLAN.execute(source, scheduler=sched)
        finally:
            set_enabled(True)
        after = parse_text(render_text())
        assert len(res.row_ids) > 0  # the query itself still works
        for fam in families:
            assert self._family_total(after, fam) \
                == self._family_total(before, fam), fam
