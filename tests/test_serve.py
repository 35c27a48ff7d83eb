"""Tests for ``repro.serve`` and the shared scheduler/cache (PR 7).

Five suites:

* the **morsel scheduler** itself — ordering, admission
  control (``ServerBusy``, FIFO parking), cancellation, failure
  propagation, lifecycle;
* **plan wire format** — ``Plan.to_json``/``from_json`` round-trips
  every node and expression type (property-tested under hypothesis),
  unknown versions/kinds are one-line errors;
* **shared execution** — N threads running mixed plans through one
  table, one cache, and one scheduler get row-for-row the serial
  answers, with per-query stats attribution (no cross-charging);
* the **table server** end-to-end — query/explain/stats/list_tables
  over real sockets, a request ``limit`` run as ``Plan.limit`` (the
  unlimited reply's first rows, its ``n_rows`` and stats), typed error
  propagation, per-request deadlines,
  backpressure as ``ServerBusy`` (never a hang), malformed frames that
  do not take the server down, graceful drain-on-shutdown;
* the ``python -m repro.serve`` entry point as a subprocess.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
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

from exec_checks import limit_cases
from repro import faults
from repro.datasets import sensor_fixture
from repro.exec import (
    And,
    Bitmap,
    ExecResult,
    ExecStats,
    ExecTimeout,
    InSet,
    MorselScheduler,
    Or,
    Plan,
    Range,
    ServerBusy,
    col,
    expr_from_json,
)
from repro.faults import FaultInjector
from repro.obs import metrics as obs_metrics
from repro.obs import top as obs_top
from repro.serve import ServeClient, TableServer, wire
from repro.store import StoreSource, Table, TableWriter
from repro.store import cli as store_cli


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def served_root(tmp_path_factory):
    """A root directory holding one 20k-row ``events`` table."""
    root = str(tmp_path_factory.mktemp("serve") / "root")
    os.makedirs(root)
    columns = sensor_fixture(20_000, seed=11)
    with TableWriter(os.path.join(root, "events"), codec="auto",
                     shard_rows=4096, chunk_rows=512) as writer:
        writer.append(columns)
    return root, columns


def _series(family, **labels):
    """One live registry series (read ``.value``) — lifetime totals
    are registry-only, so tests name their scheduler and diff these."""
    return obs_metrics.default_registry().get(family).labels(**labels)


def _selective_plan(columns, width=100):
    ts = columns["ts"]
    lo, hi = int(ts[9000]), int(ts[9000 + width])
    return (Plan.scan(["sensor_id", "reading"])
            .where(col("ts").between(lo, hi)))


# ------------------------------------------------------------- scheduler
class TestMorselScheduler:
    def test_results_come_back_in_item_order(self):
        granules = _series("repro_sched_granules_total", sched="t-order")
        admitted = _series("repro_sched_queries_total", sched="t-order",
                           outcome="admitted")
        before = granules.value, admitted.value
        with MorselScheduler(workers=4, name="t-order") as sched:
            out = sched.run_query(lambda i: i * i, range(50),
                                  threading.Event())
            assert out == [i * i for i in range(50)]
            assert sched.stats()["inflight"] == 0
        assert (granules.value, admitted.value) \
            == (before[0] + 50, before[1] + 1)

    def test_concurrent_queries_interleave_on_one_pool(self):
        granules = _series("repro_sched_granules_total",
                           sched="t-interleave")
        before = granules.value
        with MorselScheduler(workers=2, name="t-interleave") as sched:
            results = {}

            def submit(name, n):
                results[name] = sched.run_query(
                    lambda i: (name, i), range(n), threading.Event())

            threads = [threading.Thread(target=submit, args=(k, 30))
                       for k in ("a", "b", "c")]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for k in ("a", "b", "c"):
                assert results[k] == [(k, i) for i in range(30)]
            assert granules.value == before + 90
            # one fixed pool: never more threads than workers
            assert len(sched._threads) == 2

    def test_arg_validation(self):
        with pytest.raises(ValueError, match="workers"):
            MorselScheduler(workers=0)
        with pytest.raises(ValueError, match="max_inflight"):
            MorselScheduler(max_inflight=0)
        with pytest.raises(ValueError, match="queue_depth"):
            MorselScheduler(queue_depth=-1)

    def _hold_one_slot(self, sched):
        """Occupy the scheduler with a query parked on a gate."""
        gate = threading.Event()
        running = threading.Event()

        def slow(i):
            running.set()
            gate.wait(10)
            return i

        holder = threading.Thread(
            target=lambda: sched.run_query(slow, [0], threading.Event()))
        holder.start()
        assert running.wait(5)
        return gate, holder

    def test_admission_rejects_with_server_busy(self):
        rejected = _series("repro_sched_queries_total", sched="t-busy",
                           outcome="rejected")
        before = rejected.value
        sched = MorselScheduler(workers=1, max_inflight=1, queue_depth=0,
                                name="t-busy")
        gate, holder = self._hold_one_slot(sched)
        try:
            with pytest.raises(ServerBusy, match="at capacity"):
                sched.run_query(lambda i: i, [1], threading.Event())
            assert rejected.value == before + 1
        finally:
            gate.set()
            holder.join()
            sched.close()

    def test_parked_query_runs_when_a_slot_frees(self):
        sched = MorselScheduler(workers=1, max_inflight=1, queue_depth=2)
        gate, holder = self._hold_one_slot(sched)
        parked_result = []

        def parked():
            parked_result.append(
                sched.run_query(lambda i: i + 10, [1, 2],
                                threading.Event()))

        waiter = threading.Thread(target=parked)
        waiter.start()
        time.sleep(0.05)
        assert sched.stats()["parked"] == 1
        assert not parked_result  # genuinely waiting, not running
        gate.set()
        holder.join()
        waiter.join(5)
        assert parked_result == [[11, 12]]
        sched.close()

    def test_deadline_spent_parked_returns_all_skipped(self):
        sched = MorselScheduler(workers=1, max_inflight=1, queue_depth=2)
        gate, holder = self._hold_one_slot(sched)
        try:
            out = sched.run_query(
                lambda i: i, [1, 2, 3], threading.Event(),
                deadline=time.perf_counter() + 0.05)
            assert out == [None, None, None]
        finally:
            gate.set()
            holder.join()
            sched.close()

    def test_deadline_mid_query_drains_queued_granules(self):
        with MorselScheduler(workers=1) as sched:
            cancel = threading.Event()

            def granule(i):
                time.sleep(0.02)
                return i

            start = time.perf_counter()
            out = sched.run_query(
                granule, range(100), cancel,
                deadline=time.perf_counter() + 0.05)
            assert time.perf_counter() - start < 5.0
            assert cancel.is_set()
            done = [r for r in out if r is not None]
            assert len(done) < 100  # the tail was drained, not run
            assert done == list(range(len(done)))  # prefix ran in order

    def test_first_failure_cancels_the_job_and_reraises(self):
        with MorselScheduler(workers=2) as sched:
            cancel = threading.Event()

            def granule(i):
                if i == 3:
                    raise RuntimeError("granule 3 exploded")
                return i

            with pytest.raises(RuntimeError, match="granule 3"):
                sched.run_query(granule, range(50), cancel)
            assert cancel.is_set()

    def test_closed_scheduler_refuses_queries(self):
        sched = MorselScheduler(workers=1)
        sched.close()
        with pytest.raises(RuntimeError, match="closed"):
            sched.run_query(lambda i: i, [1], threading.Event())

    def test_empty_item_list(self):
        with MorselScheduler(workers=1) as sched:
            assert sched.run_query(lambda i: i, [],
                                   threading.Event()) == []


# ------------------------------------------------------- plan wire format
class TestPlanJson:
    def _shapes(self, columns):
        bitmap = np.zeros(200, dtype=bool)
        bitmap[7::13] = True
        return [
            Plan.scan(None),
            Plan.scan(["ts", "reading"]).where(
                Or(Range("ts", 10, 500), InSet("status", [0, 2])))
            .project(["reading"]),
            Plan.scan(["reading"]).where(
                And(Bitmap(bitmap), Range("reading", None, 100)))
            .aggregate({"total": ("sum", "reading"),
                        "n": ("count", "reading")},
                       group_by="sensor_id"),
            Plan.scan(["sensor_id"]).join(
                "sensor_id", build={"sensor_id": [1, 2, 3],
                                    "weight": [10, 20, 30]}, how="inner"),
            Plan.scan(["sensor_id"]).join(
                "sensor_id", keys=[4, 5, 6], how="semi"),
            Plan.scan(["ts"]).where(Range("ts", 10, 500)).limit(7),
        ]

    def test_every_node_kind_round_trips(self, served_root):
        _, columns = served_root
        for plan in self._shapes(columns):
            blob = plan.to_json()
            json.dumps(blob)  # must be pure JSON
            revived = Plan.from_json(blob)
            assert revived.to_json() == blob
            assert [type(n) for n in revived.nodes] == \
                [type(n) for n in plan.nodes]

    def test_round_trip_executes_identically(self, served_root):
        root, columns = served_root
        with Table.open(os.path.join(root, "events")) as table:
            source = StoreSource(table)
            plan = _selective_plan(columns)
            a = plan.execute(source)
            b = Plan.from_json(plan.to_json()).execute(source)
            np.testing.assert_array_equal(a.row_ids, b.row_ids)
            for name in a.columns:
                np.testing.assert_array_equal(a.columns[name],
                                              b.columns[name])

    def test_unknown_version_is_one_line(self):
        blob = Plan.scan(None).to_json()
        blob["v"] = 99
        with pytest.raises(ValueError) as info:
            Plan.from_json(blob)
        assert "unsupported plan JSON version 99" in str(info.value)
        assert "\n" not in str(info.value)

    def test_unknown_node_kind_is_one_line(self):
        blob = Plan.scan(None).to_json()
        blob["nodes"].append({"kind": "sort", "by": "ts"})
        with pytest.raises(ValueError, match="unknown plan node kind"):
            Plan.from_json(blob)

    def test_malformed_payloads_are_one_line(self):
        with pytest.raises(ValueError, match="must be a dict"):
            Plan.from_json([1, 2])
        with pytest.raises(ValueError, match="no nodes"):
            Plan.from_json({"v": 1, "nodes": []})
        with pytest.raises(ValueError, match="start with a scan"):
            Plan.from_json({"v": 1, "nodes": [{"kind": "project"}]})
        blob = Plan.scan(None).to_json()
        blob["nodes"].append({"kind": "filter"})  # missing "expr"
        with pytest.raises(ValueError, match="malformed plan JSON"):
            Plan.from_json(blob)
        blob = Plan.scan(None).to_json()
        blob["nodes"].append(dict(blob["nodes"][0]))
        with pytest.raises(ValueError, match="second scan"):
            Plan.from_json(blob)

    def test_expr_json_rejections(self):
        with pytest.raises(ValueError, match="unknown expression kind"):
            expr_from_json({"kind": "regex", "column": "ts"})
        with pytest.raises(ValueError, match="malformed"):
            expr_from_json({"kind": "range"})
        blob = Bitmap(np.ones(100, dtype=bool)).to_json()
        blob["n"] = 999
        with pytest.raises(ValueError, match="bitmap"):
            expr_from_json(blob)

    if HAVE_HYPOTHESIS:
        _COLS = st.sampled_from(["ts", "reading", "status"])
        _BOUND = st.one_of(st.none(), st.integers(-1000, 1000))
        _LEAF = st.one_of(
            st.builds(Range, _COLS, _BOUND, _BOUND),
            st.builds(lambda c, vs: InSet(c, vs), _COLS,
                      st.lists(st.integers(-100, 100), min_size=1,
                               max_size=6)),
            st.builds(lambda bits: Bitmap(np.asarray(bits, dtype=bool)),
                      st.lists(st.booleans(), min_size=1, max_size=64)),
        )
        _EXPR = st.recursive(
            _LEAF,
            lambda children: st.one_of(
                st.builds(lambda cs: And.of(*cs),
                          st.lists(children, min_size=1, max_size=3)),
                st.builds(lambda cs: Or.of(*cs),
                          st.lists(children, min_size=1, max_size=3))),
            max_leaves=8)

        @st.composite
        def _plans(draw):
            plan = Plan.scan(draw(st.one_of(
                st.none(), st.just(["ts", "reading"]))))
            for _ in range(draw(st.integers(0, 2))):
                plan = plan.where(draw(TestPlanJson._EXPR))
            terminal = draw(st.sampled_from(
                ["row", "project", "aggregate", "join", "limit"]))
            if terminal == "project":
                plan = plan.project(["ts"])
            elif terminal == "limit":
                plan = plan.limit(draw(st.integers(0, 1000)))
            elif terminal == "aggregate":
                plan = plan.aggregate(
                    {"s": ("sum", "reading"), "m": ("max", "ts")},
                    group_by=draw(st.sampled_from([None, "status"])))
            elif terminal == "join":
                keys = draw(st.lists(st.integers(0, 50), min_size=1,
                                     max_size=5, unique=True))
                if draw(st.booleans()):
                    plan = plan.join(
                        "ts", build={"ts": keys,
                                     "w": [k * 2 for k in keys]},
                        how=draw(st.sampled_from(["semi", "inner"])))
                else:
                    plan = plan.join("ts", keys=keys, how="semi")
            return plan

        @settings(max_examples=120, deadline=None)
        @given(plan=_plans())
        def test_property_any_plan_round_trips(self, plan):
            blob = plan.to_json()
            json.dumps(blob)
            revived = Plan.from_json(blob)
            assert revived.to_json() == blob


# ------------------------------------------------------- shared execution
class TestSharedExecution:
    """N threads, mixed plans, one Table, one cache, one scheduler: every
    result matches its serial counterpart row-for-row and every query's
    stats describe its own work (no cross-charging)."""

    def _mixed_plans(self, columns):
        ts = columns["ts"]
        bitmap = np.zeros(len(ts), dtype=bool)
        bitmap[::97] = True
        return [
            _selective_plan(columns),
            Plan.scan(["reading"]).where(
                InSet("status", [0, 2])).project(["reading"]),
            Plan.scan(["reading"]).aggregate(
                {"total": ("sum", "reading"), "n": ("count", "reading")},
                group_by="sensor_id"),
            Plan.scan(["sensor_id", "reading"]).where(
                Or(Range("ts", int(ts[100]), int(ts[400])),
                   Range("ts", int(ts[15_000]), int(ts[15_300])))),
            Plan.scan(["ts"]).where(Bitmap(bitmap)),
        ]

    def test_concurrent_matches_serial_row_for_row(self, served_root):
        root, columns = served_root
        plans = self._mixed_plans(columns)
        with Table.open(os.path.join(root, "events")) as table:
            source = StoreSource(table)
            serial = [p.execute(source) for p in plans]
            sched = MorselScheduler(workers=4)
            failures = []

            def run(idx):
                try:
                    for _ in range(3):
                        res = plans[idx].execute(source, scheduler=sched)
                        ref = serial[idx]
                        if ref.groups is not None:
                            assert res.groups == ref.groups
                        else:
                            np.testing.assert_array_equal(
                                res.row_ids, ref.row_ids)
                            for name in ref.columns:
                                np.testing.assert_array_equal(
                                    res.columns[name], ref.columns[name])
                        # own-work attribution: scan accounting is
                        # deterministic per plan, concurrency or not
                        assert res.stats.chunks_scanned == \
                            ref.stats.chunks_scanned
                        assert res.stats.granules_pruned == \
                            ref.stats.granules_pruned
                        assert res.stats.cache_hits + \
                            res.stats.cache_misses == \
                            ref.stats.cache_hits + ref.stats.cache_misses
                except Exception as exc:
                    failures.append(f"plan {idx}: {exc!r}")

            threads = [threading.Thread(target=run, args=(i % len(plans),))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            sched.close()
            assert failures == []

    def test_eviction_attribution_under_thrash(self, served_root):
        """A cache too small for the working set: every query still sees
        hits+misses covering exactly its own chunk loads, and evictions
        land on the query whose insert pushed entries out."""
        root, columns = served_root
        evictions = obs_metrics.default_registry().get(
            "repro_cache_evictions_total")
        before = evictions.value
        with Table.open(os.path.join(root, "events"),
                        cache_bytes=2048) as table:
            source = StoreSource(table)
            plan = _selective_plan(columns, width=4000)
            serial = plan.execute(source)
            results = []

            sched = MorselScheduler(workers=2)
            def run():
                results.append(plan.execute(source, scheduler=sched))

            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            sched.close()
            assert len(results) == 4
            for res in results:
                assert res.stats.cache_hits + res.stats.cache_misses == \
                    serial.stats.cache_hits + serial.stats.cache_misses
                # evictions are charged to inserts: a query that
                # missed nothing cannot have evicted anything
                if res.stats.cache_misses == 0:
                    assert res.stats.cache_evictions == 0
            # the tiny cache really thrashed, and the evictions were
            # attributed to the queries that caused them
            evicted = evictions.value - before
            assert evicted > 0
            total_attributed = serial.stats.cache_evictions + \
                sum(r.stats.cache_evictions for r in results)
            assert total_attributed == evicted


# ------------------------------------------------------------------ wire
class TestWire:
    def _pair(self):
        a, b = socket.socketpair()
        return a, b

    def test_frame_round_trip(self):
        a, b = self._pair()
        wire.write_frame(a, wire.json_frame({"op": "ping", "v": 2}))
        assert wire.recv_frame(b) == {"op": "ping", "v": 2}
        a.close()
        assert wire.recv_frame(b) is None  # clean EOF
        b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = self._pair()
        a.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.recv_frame(b)
        a.close()
        b.close()

    def test_torn_frame_rejected(self):
        a, b = self._pair()
        a.sendall(struct.pack(">I", 100) + b'{"op"')
        a.close()
        with pytest.raises(wire.WireError, match="mid-frame"):
            wire.recv_frame(b)
        b.close()

    def test_non_object_payload_rejected(self):
        a, b = self._pair()
        payload = b"[1,2,3]"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(wire.WireError, match="JSON object"):
            wire.recv_frame(b)
        a.close()
        b.close()

    def test_garbage_payload_rejected(self):
        a, b = self._pair()
        payload = b"\xff\xfe not json"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(wire.WireError, match="not valid JSON"):
            wire.recv_frame(b)
        a.close()
        b.close()


    # ------------------------------------------------------ result frames
    @staticmethod
    def _result(columns, row_ids):
        """A row result as the executor would hand it to the wire."""
        return ExecResult(
            columns=columns, row_ids=row_ids, groups=None,
            stats=ExecStats(granules_total=3, granules_pruned=1,
                            chunks_scanned=4, rows_scanned=len(row_ids)),
            plan=Plan.scan(list(columns) or None).where(col("ts") >= -10),
            source_desc="golden", residual_desc="ts >= -10")

    def _reply(self, res, limit=None):
        """What a client receives for ``res``: the frame's payload
        bytes and ``recv_frame``'s reading of it."""
        a, b = self._pair()
        frame = wire.result_frame(res, limit=limit)
        wire.write_frame(a, frame)
        a.close()
        reply = wire.recv_frame(b)
        b.close()
        assert reply["ok"] is True
        return b"".join(frame[1:]), reply["result"]

    @staticmethod
    def _json_reply(res, limit=None):
        """The bytes of a JSON reply carrying ``res`` with its rows as
        lists — what the benchmark's outside ladder measures."""
        return json.dumps({"ok": True,
                           "result": wire.encode_result(res, limit=limit)},
                          separators=(",", ":")).encode()

    @staticmethod
    def _parent_encode_result(res, limit=None):
        """``encode_result`` as an earlier commit wrote it — the
        per-element loop, kept as the reference for its bytes."""
        from dataclasses import asdict

        out = {"n_rows": int(res.n_rows), "stats": asdict(res.stats),
               "explain": res.explain(), "groups": None}
        n = res.n_rows if limit is None else min(limit, res.n_rows)
        out["row_ids"] = [int(v) for v in res.row_ids[:n]]
        out["columns"] = {name: [int(v) for v in values[:n]]
                          for name, values in res.columns.items()}
        out["truncated"] = n < res.n_rows
        return out

    def test_json_reply_bytes_are_pinned(self, served_root):
        res = self._result(
            {"ts": np.array([5, -7, 2**63 - 1], dtype=np.int64),
             "reading": np.array([0, -2**63, 9], dtype=np.int64)},
            np.array([0, 4, 9], dtype=np.int64))
        # captured from an earlier server's JSON reply for this result
        payload = self._json_reply(res)
        assert payload.startswith(
            b'{"ok":true,"result":{"n_rows":3,"stats":{"granules_total":3,')
        assert payload.endswith(
            b'"groups":null,"row_ids":[0,4,9],"columns":{"ts":[5,-7,'
            b'9223372036854775807],"reading":[0,-9223372036854775808,9]},'
            b'"truncated":false}}')
        payload = self._json_reply(res, limit=2)
        assert payload.endswith(
            b'"groups":null,"row_ids":[0,4],"columns":{"ts":[5,-7],'
            b'"reading":[0,-9223372036854775808]},"truncated":true}}')
        # and a real query's reply, against the parent's encoder
        root, columns = served_root
        with Table.open(os.path.join(root, "events")) as table:
            real = _selective_plan(columns, width=700).execute(
                StoreSource(table))
        for limit in (None, 0, 13, 10_000):
            assert self._json_reply(real, limit) == json.dumps(
                {"ok": True,
                 "result": self._parent_encode_result(real, limit)},
                separators=(",", ":")).encode()

    if HAVE_HYPOTHESIS:
        _I64 = st.integers(-2**63, 2**63 - 1)

        @settings(max_examples=120, deadline=None)
        @given(data=st.data(), n=st.integers(0, 40),
               names=st.lists(st.sampled_from("abcdef"), max_size=4,
                              unique=True),
               limit=st.one_of(st.none(), st.integers(0, 60)))
        def test_property_rows_round_trip(self, data, n, names, limit):
            """Every value lands exactly once, in order, none
            duplicated, ``limit`` honoured — through the result frame,
            whatever the memory layout of the arrays handed to the
            wire."""
            def column():
                layout = data.draw(st.sampled_from(
                    ["plain", "strided", "sliced"]))
                size = {"plain": n, "strided": 2 * n, "sliced": n + 5}
                base = np.array(
                    data.draw(st.lists(self._I64, min_size=size[layout],
                                       max_size=size[layout])),
                    dtype=np.int64)
                return {"plain": base, "strided": base[::2],
                        "sliced": base[3:3 + n]}[layout]

            res = self._result({name: column() for name in names},
                               column())
            keep = n if limit is None else min(limit, n)
            _, binary = self._reply(res, limit=limit)
            assert binary["n_rows"] == n
            assert binary["truncated"] == (keep < n)
            assert list(binary["columns"]) == names
            for got, want in [
                    (binary["row_ids"], res.row_ids),
                    *((binary["columns"][name], res.columns[name])
                      for name in names)]:
                assert got.dtype == np.int64 and got.flags.writeable
                assert got.flags.aligned
                assert got.tolist() == want[:keep].tolist()

    #: payloads that start like a result frame (or almost) and are not
    MALFORMED_RESULT_PAYLOADS = {
        "header length past the payload":
            wire.RESULT_MAGIC + struct.pack("<I", 9999) + b"{}",
        "payload ends inside the header length":
            wire.RESULT_MAGIC + b"\x02\x00",
        "block bytes != 8 x sum(counts)":
            wire.RESULT_MAGIC + struct.pack("<I", 23)
            + b'{"blocks":[["row_ids",2]]}'[:23] + b"\x00" * 8,
        "no block list":
            wire.RESULT_MAGIC + struct.pack("<I", 12) + b'{"n_rows":0}',
        "negative count":
            wire.RESULT_MAGIC + struct.pack("<I", 24)
            + b'{"blocks":[["row_ids",-1]]}'[:24],
        "header is not JSON":
            wire.RESULT_MAGIC + struct.pack("<I", 4) + b"\xff\xfe{}",
        "unknown magic":
            b"RPRX" + struct.pack("<I", 2) + b"{}",
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_RESULT_PAYLOADS))
    def test_malformed_result_frame_rejected(self, case):
        payload = self.MALFORMED_RESULT_PAYLOADS[case]
        a, b = self._pair()
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(wire.WireError):
            wire.recv_frame(b)
        a.close()
        b.close()

    def test_torn_result_frame_rejected(self):
        res = self._result({}, np.arange(50, dtype=np.int64))
        whole = b"".join(wire.result_frame(res))
        a, b = self._pair()
        a.sendall(whole[:-100])  # the connection dies inside a block
        a.close()
        with pytest.raises(wire.WireError, match="mid-frame"):
            wire.recv_frame(b)
        b.close()

    def test_frame_past_the_cap_is_refused_before_it_is_sent(
            self, monkeypatch):
        res = self._result({"ts": np.arange(500, dtype=np.int64)},
                           np.arange(500, dtype=np.int64))
        # the JSON reply of ``explain``, then the result frame
        sizes = {rows: len(b"".join(wire.result_frame(
            res, include_rows=rows))) - 4 for rows in (False, True)}
        for include_rows, size in sizes.items():
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", size)
            assert wire.result_frame(res, include_rows=include_rows)
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", size - 1)
            with pytest.raises(
                    wire.WireError,
                    match=f"result of {size} bytes exceeds the "
                          f"{size - 1}-byte cap; pass limit="):
                wire.result_frame(res, include_rows=include_rows)
        assert wire.result_frame(res, limit=10)
        with pytest.raises(wire.WireError, match="frame of .* exceeds"):
            wire.json_frame({"pad": "x" * size})


# ---------------------------------------------------------------- server
@pytest.fixture()
def server(served_root):
    root, _ = served_root
    srv = TableServer(root, max_inflight=4, queue_depth=8).start()
    yield srv
    srv.shutdown()


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServeClient(host, port) as c:
        yield c


def _raw_request(address, request):
    """One hand-rolled JSON frame on its own socket, the reply (which
    must be a JSON frame) read back as plain JSON."""
    body = json.dumps(request).encode()
    with socket.create_connection(address) as raw, \
            raw.makefile("rb") as reader:
        raw.sendall(struct.pack(">I", len(body)) + body)
        (length,) = struct.unpack(">I", reader.read(4))
        return json.loads(reader.read(length))


def _scrape_then_stats(client, plan, first):
    """Query, then take a ``metrics`` scrape and a ``stats`` reply back
    to back on one connection.  Lane workers ship their counters as
    rate-limited deltas that the driver folds in while it dispatches,
    so keep querying until a scrape shows cache traffic since
    ``first``."""
    for _ in range(50):
        client.query("events", plan)
        scrape = obs_metrics.parse_text(client.metrics())
        stats = client.stats()
        if obs_top.counter_delta(first, scrape,
                                 "repro_cache_lookups_total"):
            break
        time.sleep(0.1)
    return scrape, stats


def _assert_stats_equal_scrape_growth(stats, first, last, tier):
    """``stats`` is a view of the registry: each count in it equals the
    growth between ``first`` — the server's first request, so its
    construction-time baseline — and ``last``, the scrape taken just
    before it on the same connection."""
    def grown(family, **where):
        return obs_top.counter_delta(first, last, family, where)

    requests = "repro_serve_requests_total"
    # + 1: ``last`` was rendered before its own request was charged
    assert stats["queries_total"] == grown(requests) + 1
    assert stats["queries_ok"] \
        == grown(requests, op="query", status="ok") \
        + grown(requests, op="explain", status="ok")
    assert stats["queries_err"] == grown(requests, status="error")
    assert stats["rejected_busy"] == grown(requests, status="busy")
    cache = stats["cache"]
    hits = grown("repro_cache_lookups_total", outcome="hit")
    misses = grown("repro_cache_lookups_total", outcome="miss")
    assert (cache["hits"], cache["misses"]) == (hits, misses)
    assert hits + misses > 0
    assert cache["hit_rate"] == hits / (hits + misses)
    assert cache["evictions"] == grown("repro_cache_evictions_total")
    if tier == "process":
        assert stats["scheduler"]["respawns"] == grown(
            "repro_par_respawns_total", sched="repro-serve")


class TestTableServer:
    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_stats_counts_equal_the_metrics_scrape_growth(
            self, served_root, tier):
        """One ledger: whatever ``stats`` counts, ``metrics`` counts the
        same.  On the process tier the lookups happen in lane workers'
        caches — the driver's is never touched — and still show."""
        root, columns = served_root
        plan = _selective_plan(columns, width=4000)
        with TableServer(root, workers=2, worker_tier=tier) as srv, \
                ServeClient(*srv.address) as c:
            first = obs_metrics.parse_text(c.metrics())
            assert "cache:" in c.explain("events", plan)["explain"]
            with pytest.raises(RuntimeError, match="unknown table"):
                c.query("nope", plan)
            last, stats = _scrape_then_stats(c, plan, first)
            _assert_stats_equal_scrape_growth(stats, first, last, tier)
            assert stats["queries_ok"] >= 2
            assert stats["queries_err"] == 1
            assert stats["cache"]["misses"] > 0

    def test_result_over_the_frame_cap_is_a_typed_answer(
            self, served_root, server, client, monkeypatch):
        """An answer too big for one frame is refused before any of it
        is sent: a one-line error on the same connection, charged as an
        error, and the connection keeps working."""
        _, columns = served_root
        plan = _selective_plan(columns, width=5000)
        errors = obs_metrics.default_registry().get(
            "repro_serve_requests_total").labels(op="query",
                                                 status="error")
        before = errors.value, server.stats()["queries_err"]
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 16_000)
        with pytest.raises(RuntimeError,
                           match=r"result of \d+ bytes exceeds the "
                                 r"16000-byte cap; pass limit="):
            client.query("events", plan)
        reply = _raw_request(server.address, {
            "v": wire.WIRE_VERSION, "op": "query", "table": "events",
            "plan": plan.to_json()})
        assert reply == {"ok": False, "kind": "WireError",
                         "error": reply["error"]}
        assert "exceeds the 16000-byte cap; pass limit=" in reply["error"]
        assert (errors.value, server.stats()["queries_err"]) \
            == (before[0] + 2, before[1] + 2)
        assert len(client.query("events", plan, limit=50)["row_ids"]) == 50
        assert client.ping() == "pong"

    def test_ping_and_list_tables(self, client):
        assert client.ping() == "pong"
        assert client.list_tables() == ["events"]

    def test_query_matches_local_execution(self, served_root, client):
        root, columns = served_root
        plan = _selective_plan(columns)
        with Table.open(os.path.join(root, "events")) as table:
            ref = plan.execute(StoreSource(table))
        res = client.query("events", plan, timeout_s=10.0)
        assert res["n_rows"] == ref.n_rows
        assert not res["truncated"]
        np.testing.assert_array_equal(res["row_ids"], ref.row_ids)
        for name in ref.columns:
            np.testing.assert_array_equal(res["columns"][name],
                                          ref.columns[name])

    def test_limit_caps_rows_not_stats(self, served_root, client):
        _, columns = served_root
        res = client.query("events", _selective_plan(columns), limit=7)
        assert res["truncated"]
        assert len(res["row_ids"]) == 7
        assert res["n_rows"] > 7  # stats describe the full execution

    def test_limit_runs_in_the_plan(self, served_root, client):
        """The request's ``limit`` runs as ``Plan.limit``: for every
        limit the reply is the unlimited reply's first rows, with its
        ``n_rows``, and ``truncated`` says whether rows were cut.  The
        server's cache is warm, so every integer stat equals the
        unlimited run's.  A plan carrying its own limit keeps it, and a
        request limit below it cuts further."""
        _, columns = served_root
        plan = _selective_plan(columns, width=300)
        client.query("events", plan)
        full = client.query("events", plan)
        n = full["n_rows"]
        assert n == len(full["row_ids"]) >= 3 and not full["truncated"]
        ints = {k for k, v in full["stats"].items() if isinstance(v, int)}
        for k in limit_cases(n):
            res = client.query("events", plan, limit=k)
            assert res["explain"].splitlines()[0] == f"Limit[{k}]"
            assert res["n_rows"] == n, k
            assert res["truncated"] == (k < n), k
            np.testing.assert_array_equal(res["row_ids"],
                                          full["row_ids"][:k])
            assert set(res["columns"]) == set(full["columns"])
            for name, values in full["columns"].items():
                np.testing.assert_array_equal(res["columns"][name],
                                              values[:k])
            assert {f: res["stats"][f] for f in ints} \
                == {f: full["stats"][f] for f in ints}, k
        for own, cap, kept in ((5, None, 5), (5, 3, 3), (5, 50, 5)):
            res = client.query("events", plan.limit(own), limit=cap)
            assert res["n_rows"] == n and res["truncated"]
            np.testing.assert_array_equal(res["row_ids"],
                                          full["row_ids"][:kept])

    def test_aggregate_groups_travel(self, served_root, client):
        root, columns = served_root
        plan = Plan.scan(["reading"]).aggregate(
            {"total": ("sum", "reading")}, group_by="sensor_id")
        with Table.open(os.path.join(root, "events")) as table:
            ref = plan.execute(StoreSource(table))
        res = client.query("events", plan)
        assert {k: v for k, v in res["groups"]} == ref.groups

    def test_explain_carries_cache_attribution(self, served_root, client):
        _, columns = served_root
        res = client.explain("events", _selective_plan(columns))
        assert "cache:" in res["explain"]
        assert "evicted" in res["explain"]
        assert "row_ids" not in res  # explain drops the row payload

    def test_stats_report_shape(self, served_root, client):
        _, columns = served_root
        client.query("events", _selective_plan(columns))
        stats = client.stats()
        assert stats["queries_ok"] >= 1
        assert stats["qps"] > 0
        assert {"p50", "p90", "p99"} <= set(stats["latency_ms"])
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["scheduler"]["workers"] >= 1
        assert stats["tables"] == ["events"]

    def test_stats_read_the_registry_not_its_text(
            self, served_root, server, client, monkeypatch):
        """``stats`` sums the registry's series directly: it answers,
        and still counts, while the exposition text cannot render."""
        _, columns = served_root
        before = server.stats()["queries_ok"]

        def refuse(*_args, **_kwargs):
            raise AssertionError("stats rendered the exposition")

        monkeypatch.setattr(obs_metrics, "render_text", refuse)
        monkeypatch.setattr(obs_metrics.MetricsRegistry, "render", refuse)
        client.query("events", _selective_plan(columns))
        assert server.stats()["queries_ok"] == before + 1

    def test_unknown_table_is_typed_one_liner(self, client):
        with pytest.raises(RuntimeError, match="unknown table 'nope'"):
            client.query("nope", Plan.scan(None))

    def test_path_traversal_table_names_rejected(self, client):
        with pytest.raises(RuntimeError, match="bad table name"):
            client.query("../etc", Plan.scan(None))

    def test_unknown_plan_version_is_one_liner(self, served_root, client):
        blob = Plan.scan(None).to_json()
        blob["v"] = 42
        with pytest.raises(RuntimeError,
                           match="unsupported plan JSON version 42"):
            client.query("events", blob)

    def test_unknown_wire_version_is_one_liner(self, client):
        for version in (1, 3, 9, 0, None):
            with pytest.raises(
                    RuntimeError,
                    match=f"unsupported request version {version} "
                          r"\(this server speaks 2\)$"):
                client._call({"op": "ping", "v": version})
        assert client.ping() == "pong"  # sent as wire.WIRE_VERSION (2)

    def test_v1_request_is_refused(self, served_root, server):
        """A row query exactly as a version-1 client sent it gets one
        typed line back, never rows."""
        _, columns = served_root
        reply = _raw_request(server.address, {
            "v": 1, "op": "query", "table": "events",
            "plan": _selective_plan(columns).to_json()})
        assert reply == {
            "ok": False, "kind": "ValueError",
            "error": "unsupported request version 1 (this server "
                     "speaks 2)"}

    def test_unknown_op_and_opts_rejected(self, client):
        with pytest.raises(RuntimeError, match="unknown op"):
            client._call({"op": "drop_all_tables"})
        # an old client's executor options are refused, not ignored
        with pytest.raises(
                RuntimeError,
                match=r"^unknown request field\(s\) 'opts'; the server "
                      r"reads: v, op, table, plan, timeout_s, limit$"):
            client._call({"op": "query", "table": "events",
                          "plan": Plan.scan(None).to_json(),
                          "opts": {"on_corruption": "skip"}})

    def test_fields_the_server_does_not_read_are_refused(
            self, served_root, client):
        _, columns = served_root
        plan = _selective_plan(columns).to_json()
        for request, named in (
                ({"op": "query", "table": "events", "plan": plan,
                  "limt": 3}, "'limt'"),
                ({"op": "ping", "threads": 64}, "'threads'"),
                ({"op": "explain", "table": "events", "plan": plan,
                  "prune": False, "pushdown": False},
                 "'prune', 'pushdown'")):
            with pytest.raises(
                    RuntimeError,
                    match=rf"^unknown request field\(s\) {named}; "):
                client._call(request)
        # every refusal left the connection usable
        assert client.query("events", plan, limit=3)["row_ids"].size == 3

    def test_limit_and_timeout_from_the_wire_are_validated(
            self, served_root, server, client):
        """A bad ``limit`` or ``timeout_s`` is refused with one line
        naming the field: a negative limit would slice from the end
        (``-3`` over 10 rows sends 7), ``true`` would cap at one row,
        and ``2.5`` would fail deep inside the reply encoder."""
        _, columns = served_root
        plan = _selective_plan(columns, width=10)
        for limit in (-3, True, False, 2.5, "5", [1]):
            with pytest.raises(
                    RuntimeError,
                    match=r"^limit must be an integer >= 0, got "):
                client.query("events", plan, limit=limit)
        for timeout_s in ("5", True, [1.0], {"s": 1}):
            with pytest.raises(
                    RuntimeError,
                    match=r"^timeout_s must be a number, got "):
                client.query("events", plan, timeout_s=timeout_s)
        assert _raw_request(server.address, {
            "v": wire.WIRE_VERSION, "op": "query", "table": "events",
            "plan": plan.to_json(), "limit": -3}) == {
                "ok": False, "kind": "ValueError",
                "error": "limit must be an integer >= 0, got -3"}
        res = client.query("events", plan, timeout_s=10, limit=0)
        assert res["n_rows"] == 10 and res["truncated"]
        assert res["row_ids"].size == 0
        assert client.query("events", plan, timeout_s=2.5,
                            limit=10)["truncated"] is False

    def test_a_pause_inside_a_frame_loses_nothing(self, served_root):
        """A client that pauses mid-frame, inside the length prefix or
        inside the payload, still gets its answer; one left stalled
        mid-frame does not hold up the drain, which drops it."""
        root, _ = served_root
        body = json.dumps({"v": wire.WIRE_VERSION, "op": "ping"}).encode()
        frame = struct.pack(">I", len(body)) + body
        srv = TableServer(root).start()
        with socket.create_connection(srv.address) as stalled:
            try:
                for cut in (2, 10):  # inside the header, the payload
                    with socket.create_connection(srv.address) as raw, \
                            raw.makefile("rb") as reader:
                        raw.settimeout(5.0)
                        raw.sendall(frame[:cut])
                        time.sleep(0.5)
                        raw.sendall(frame[cut:])
                        (length,) = struct.unpack(">I", reader.read(4))
                        assert json.loads(reader.read(length)) == \
                            {"ok": True, "result": "pong"}
                stalled.sendall(frame[:10])
                time.sleep(0.3)  # its handler now waits mid-frame
            finally:
                start = time.perf_counter()
                srv.shutdown(timeout=2.0)
                elapsed = time.perf_counter() - start
            assert elapsed < 2.0
            stalled.settimeout(5.0)
            assert stalled.recv(1) == b""  # dropped, unanswered

    def test_malformed_frame_does_not_kill_the_server(self, server):
        host, port = server.address
        raw = socket.create_connection((host, port))
        raw.sendall(struct.pack(">I", wire.MAX_FRAME_BYTES + 5))
        raw.close()
        raw = socket.create_connection((host, port))
        raw.sendall(b"\x00\x00\x00\x08notjson!")
        raw.close()
        # the server dropped both connections and kept serving
        with ServeClient(host, port) as c:
            assert c.ping() == "pong"

    @pytest.mark.parametrize(
        "case", sorted(TestWire.MALFORMED_RESULT_PAYLOADS))
    def test_malformed_result_frame_drops_that_connection_only(
            self, server, client, case):
        payload = TestWire.MALFORMED_RESULT_PAYLOADS[case]
        with socket.create_connection(server.address) as raw:
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            raw.settimeout(10)
            assert raw.recv(1) == b""  # dropped without an answer
        assert client.ping() == "pong"

    def test_typed_server_errors_leave_the_connection_open(self, client):
        with pytest.raises(RuntimeError, match="unknown table"):
            client.query("nope", Plan.scan(None))
        assert client.ping() == "pong"

    @pytest.mark.parametrize("reply", [
        struct.pack(">I", 64) + b'{"ok": tr',        # torn, then EOF
        struct.pack(">I", 9) + b"not json!" + b"x",  # garbage + extra
        struct.pack(">I", 10) + wire.RESULT_MAGIC    # malformed result
        + struct.pack("<I", 999) + b"{}",
    ])
    def test_transport_failure_closes_the_client(self, reply):
        """A reply that cannot be read leaves unread bytes behind: the
        client drops the connection instead of parsing them next."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            def serve():
                conn, _ = listener.accept()
                with conn:
                    wire.recv_frame(conn)
                    conn.sendall(reply)

            peer = threading.Thread(target=serve)
            peer.start()
            with ServeClient(*listener.getsockname()) as c:
                with pytest.raises(wire.WireError):
                    c.ping()
                peer.join(timeout=10)
                assert not peer.is_alive()
                with pytest.raises(ConnectionError, match="closed"):
                    c.ping()

    def test_request_deadline_raises_exec_timeout(self, served_root):
        root, columns = served_root
        srv = TableServer(root, cache_bytes=0).start()
        host, port = srv.address
        inj = FaultInjector().slow_at("chunk.read", delay_s=0.05,
                                      times=None)
        try:
            with inj, ServeClient(host, port) as c:
                with pytest.raises(ExecTimeout, match="timeout_s"):
                    c.query("events", Plan.scan(["reading"]),
                            timeout_s=0.05)
        finally:
            srv.shutdown()

    def test_backpressure_is_server_busy_not_a_hang(self, served_root):
        root, columns = served_root
        srv = TableServer(root, workers=1, max_inflight=1,
                          queue_depth=0, cache_bytes=0).start()
        host, port = srv.address
        inj = FaultInjector().slow_at("chunk.read", delay_s=0.02,
                                      times=None)
        plan = Plan.scan(["reading"]).aggregate(
            {"n": ("count", "reading")})
        outcomes = []

        def hit():
            with ServeClient(host, port) as c:
                try:
                    outcomes.append(("ok", c.query("events", plan,
                                                   timeout_s=30.0)))
                except ServerBusy as err:
                    outcomes.append(("busy", str(err)))

        try:
            with inj:
                threads = [threading.Thread(target=hit)
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
            kinds = [k for k, _ in outcomes]
            assert "busy" in kinds      # overload was rejected...
            assert "ok" in kinds        # ...while admitted work finished
            for kind, payload in outcomes:
                if kind == "ok":
                    assert payload["groups"][0][1]["n"] == 20_000
                else:
                    assert "at capacity" in payload
            assert srv.stats()["rejected_busy"] >= 1
        finally:
            srv.shutdown()

    def test_graceful_drain_finishes_inflight_queries(self, served_root):
        root, columns = served_root
        srv = TableServer(root, cache_bytes=0).start()
        host, port = srv.address
        inj = FaultInjector().slow_at("chunk.read", delay_s=0.01,
                                      times=None)
        result = {}

        def slow_query():
            with ServeClient(host, port) as c:
                result["res"] = c.query(
                    "events", Plan.scan(["reading"]).aggregate(
                        {"n": ("count", "reading")}), timeout_s=60.0)

        with inj:
            worker = threading.Thread(target=slow_query)
            worker.start()
            time.sleep(0.15)  # the query is mid-flight
            srv.shutdown()    # drain: must NOT cut it off
            worker.join(timeout=60)
        assert result["res"]["groups"][0][1]["n"] == 20_000
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_root_that_is_itself_a_table(self, served_root):
        root, columns = served_root
        table_dir = os.path.join(root, "events")
        srv = TableServer(table_dir).start()
        try:
            host, port = srv.address
            with ServeClient(host, port) as c:
                assert c.list_tables() == ["events"]
                res = c.query("events", Plan.scan(["reading"]).aggregate(
                    {"n": ("count", "reading")}))
                assert res["groups"][0][1]["n"] == 20_000
        finally:
            srv.shutdown()


# ----------------------------------------------------------- entry point
class TestServeMain:
    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_subprocess_lifecycle(self, served_root, tier):
        """The live-server drill on both tiers: the core families are
        populated over the ``metrics`` op (worker series under
        ``proc="wN"`` on the process tier), ``stats`` agrees with
        ``metrics``, SIGINT drains to exit 0.  Lanes start by
        ``REPRO_PAR_START_METHOD``, inherited by the server."""
        root, columns = served_root
        src = os.path.abspath(os.path.join(
            os.path.dirname(__file__), "..", "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--root", root,
             "--max-inflight", "4", "--worker-tier", tier,
             "--workers", "2"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on ")
            host, port = banner.split()[-1].rsplit(":", 1)
            with ServeClient(host, int(port)) as c:
                first = obs_metrics.parse_text(c.metrics())
                assert c.list_tables() == ["events"]
                plan = _selective_plan(columns)
                res = c.query("events", plan, limit=5)
                assert res["n_rows"] == 100
                assert len(res["row_ids"]) == 5
                # the driver prunes by zone map before dispatch: what a
                # selective query sends down the lanes is its survivors
                # (repro_par_granules_total is the driver's own
                # per-granule count, so the scrape is exact), never the
                # whole table to be pruned on arrival
                mid = obs_metrics.parse_text(c.metrics())
                work = res["stats"]
                assert work["granules_pruned"] \
                    >= 0.9 * work["granules_total"]
                assert obs_top.counter_delta(
                    first, mid, "repro_par_granules_total",
                    {"outcome": "ok"}) == (
                        work["granules_total"] - work["granules_pruned"]
                        if tier == "process" else 0)
                rows = c.query("events", _selective_plan(columns,
                                                         width=3000))
                assert rows["n_rows"] == rows["row_ids"].size == 3000
                last, stats = _scrape_then_stats(c, plan, first)
                for family in ("repro_serve_requests_total",
                               "repro_sched_granules_total",
                               "repro_cache_lookups_total",
                               "repro_exec_queries_total",
                               "repro_exec_rows_total"):
                    assert obs_top.sample_total(last, family) > 0, family
                lanes = obs_top.by_label(
                    last, "repro_par_worker_granules_total", "proc")
                assert (tier == "process") == any(
                    lane.startswith("w") and n > 0
                    for lane, n in lanes.items())
                _assert_stats_equal_scrape_growth(stats, first, last,
                                                  tier)
                assert stats["queries_ok"] >= 3
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0  # graceful drain exit
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


# --------------------------------------------------------- CLI timeout-s
class TestCliTimeout:
    def test_scan_timeout_prints_partial_stats_and_exits_1(
            self, served_root, tmp_path, capsys):
        directory = str(tmp_path / "t")
        columns = sensor_fixture(12_000, seed=5)
        with TableWriter(directory, shard_rows=4096,
                         chunk_rows=512) as writer:
            writer.append(columns)
        inj = FaultInjector().slow_at("chunk.read", delay_s=0.05,
                                      times=None)
        with inj:
            rc = store_cli.main(["scan", directory,
                                 "--timeout-s", "0.02"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "timeout_s=0.02" in err
        assert "partial work before the deadline" in err

    def test_scan_without_timeout_still_exits_0(self, tmp_path, capsys):
        directory = str(tmp_path / "t")
        with TableWriter(directory, shard_rows=2048) as writer:
            writer.append({"k": np.arange(4000, dtype=np.int64)})
        assert store_cli.main(["scan", directory, "--columns", "k",
                               "--timeout-s", "30"]) == 0
        assert "rows in" in capsys.readouterr().out
