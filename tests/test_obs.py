"""Tests for ``repro.obs`` (PR 8): metrics, tracing, and surfaces.

Five suites:

* **metrics conformance** — counters/gauges/histograms (labelled and
  not) round-trip through the Prometheus text exposition, every
  instrument registered anywhere in ``repro`` renders and parses back,
  and concurrent increments from N threads lose no counts;
* the **latency reservoir** — exact quantiles below capacity, bounded
  memory above it, deterministic under a seed;
* **tracing** — a traced 2-granule store query yields spans whose
  granule count, prune counts, and cache attribution exactly match
  ``ExecStats``; Chrome export is valid JSON with monotonic timestamps;
  tracing stays pay-as-you-go (untraced queries carry no trace);
* **serve surfaces** — the ``metrics`` wire op and HTTP ``/metrics``
  endpoint expose populated series, ``/stats`` percentiles read from
  the O(1) reservoir, and the slow-query log captures plan + explain +
  trace as JSONL;
* **scrub/info accounting** — per-shard elapsed time and bytes walked
  in ``scrub --json``, ``info``, and the render CLI.
"""

import json
import os
import pickle
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exec_checks import assert_granule_spans_match
from repro.exec import ExecTimeout, MorselScheduler, Plan, Range
from repro.mutate import MutableTable
from repro.obs import __main__ as obs_main
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    MetricsRegistry,
    ReservoirQuantiles,
    parse_text,
    set_enabled,
)
from repro.obs.trace import Trace, render_trace
from repro.serve import ServeClient, TableServer
from repro.store import StoreSource, Table, TableWriter
from repro.store import cli as store_cli
from repro.store.scrub import scrub_table


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def registry():
    return MetricsRegistry()


def make_table(path: str, n: int = 1024, chunk_rows: int = 512,
               shard_rows: int = 1024) -> None:
    """A store table whose ``val`` column equals the row index."""
    with TableWriter(path, codec="auto", shard_rows=shard_rows,
                     chunk_rows=chunk_rows) as writer:
        writer.append({"val": np.arange(n, dtype=np.int64),
                       "grp": np.arange(n, dtype=np.int64) % 7})


# ===================================================================
# metrics conformance
# ===================================================================
class TestMetricsConformance:
    def test_counter_roundtrip(self, registry):
        c = registry.counter("t_requests_total", "requests",
                             labels=("op",))
        c.labels(op="query").inc(3)
        c.labels(op="ping").inc()
        fams = parse_text(registry.render())
        fam = fams["t_requests_total"]
        assert fam["type"] == "counter"
        assert fam["help"] == "requests"
        by_label = {s[1]["op"]: s[2] for s in fam["samples"]}
        assert by_label == {"query": 3.0, "ping": 1.0}

    def test_gauge_roundtrip(self, registry):
        g = registry.gauge("t_inflight", "in flight")
        g.set(5)
        g.dec(2)
        fams = parse_text(registry.render())
        assert fams["t_inflight"]["type"] == "gauge"
        assert fams["t_inflight"]["samples"] == [("t_inflight", {}, 3.0)]

    def test_histogram_roundtrip_cumulative(self, registry):
        h = registry.histogram("t_seconds", "latency",
                               buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        fams = parse_text(registry.render())
        fam = fams["t_seconds"]
        assert fam["type"] == "histogram"
        buckets = {s[1]["le"]: s[2] for s in fam["samples"]
                   if s[0] == "t_seconds_bucket"}
        # cumulative: 1 under 0.1, 3 under 1.0, all 4 under +Inf
        assert buckets == {"0.1": 1.0, "1": 3.0, "+Inf": 4.0}
        assert [s[2] for s in fam["samples"]
                if s[0] == "t_seconds_count"] == [4.0]
        [total] = [s[2] for s in fam["samples"]
                   if s[0] == "t_seconds_sum"]
        assert total == pytest.approx(6.05)

    def test_label_escaping_roundtrip(self, registry):
        c = registry.counter("t_weird_total", "x", labels=("path",))
        value = 'a"b\\c\nd'
        c.labels(path=value).inc()
        fams = parse_text(registry.render())
        [(_, labels, v)] = fams["t_weird_total"]["samples"]
        assert labels == {"path": value} and v == 1.0

    @pytest.mark.parametrize("line", [
        't_total{op=query} 1',      # unquoted label value
        't_total{op="query} 1',     # unterminated label value
        't_total{op} 1',            # label without a value
        't_total{op="query"} one',  # not a number
    ])
    def test_parse_rejects_what_render_never_produces(self, line):
        with pytest.raises(ValueError):
            parse_text(f"# TYPE t_total counter\n{line}\n")

    def test_get_or_create_and_conflicts(self, registry):
        c1 = registry.counter("t_total", "x")
        assert registry.counter("t_total") is c1
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("t_total", labels=("op",))
        with pytest.raises(ValueError, match="bad metric name"):
            registry.counter("0bad")
        with pytest.raises(ValueError, match="only go up"):
            c1.inc(-1)
        with pytest.raises(ValueError, match="labels"):
            registry.counter("t_lbl_total", labels=("a",)).labels(b="x")

    def test_every_repro_metric_roundtrips(self):
        # importing the instrumented stack registers every series the
        # process exposes; each must render and parse back faithfully
        import repro.exec.pool  # noqa: F401
        import repro.exec.run  # noqa: F401
        import repro.mutate.compact  # noqa: F401
        import repro.mutate.manifest  # noqa: F401
        import repro.mutate.table  # noqa: F401
        import repro.mutate.wal  # noqa: F401
        import repro.serve.server  # noqa: F401
        import repro.store.cache  # noqa: F401
        import repro.store.table  # noqa: F401

        reg = obs_metrics.default_registry()
        instruments = reg.instruments()
        assert len(instruments) >= 20
        names = {i.name for i in instruments}
        for expected in ("repro_sched_queries_total",
                         "repro_sched_park_wait_seconds",
                         "repro_cache_lookups_total",
                         "repro_exec_queries_total",
                         "repro_exec_cpu_seconds_total",
                         "repro_store_shards_opened_total",
                         "repro_wal_appends_total",
                         "repro_wal_fsync_seconds",
                         "repro_mutate_flush_seconds",
                         "repro_mutate_generations_total",
                         "repro_mutate_compact_passes_total",
                         "repro_serve_requests_total"):
            assert expected in names
        fams = parse_text(reg.render())
        for inst in instruments:
            assert fams[inst.name]["type"] == inst.kind, inst.name
            if inst.kind == "histogram":
                sample_names = {s[0] for s in fams[inst.name]["samples"]}
                if sample_names:  # labelled histograms may have no child
                    assert f"{inst.name}_count" in sample_names
                    assert f"{inst.name}_bucket" in sample_names
            for _, labels, _ in fams[inst.name]["samples"]:
                got = set(labels) - {"le"}
                # series merged in from worker processes carry one
                # extra bounded label: proc="w<lane>"
                want = set(inst.labelnames)
                assert got in (want, want | {"proc"}), inst.name

    def test_concurrent_increments_lose_no_counts(self, registry):
        c = registry.counter("t_conc_total", "x")
        lc = registry.counter("t_conc_lbl_total", "x", labels=("who",))
        h = registry.histogram("t_conc_seconds", "x", buckets=(0.5,))
        n_threads, per_thread = 8, 5_000

        def hammer(i: int) -> None:
            child = lc.labels(who=str(i % 2))
            for _ in range(per_thread):
                c.inc()
                child.inc()
                h.observe(0.25)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert c.value == total
        assert sum(child.value
                   for child in lc.children().values()) == total
        _, hist_sum, count = h._default_child().raw()
        assert count == total
        assert hist_sum == pytest.approx(0.25 * total)

    def test_set_enabled_kill_switch(self, registry):
        c = registry.counter("t_off_total", "x")
        c.inc()
        set_enabled(False)
        try:
            c.inc(100)
            registry.gauge("t_off_gauge").set(9)
            registry.histogram("t_off_seconds").observe(1.0)
        finally:
            set_enabled(True)
        assert c.value == 1
        assert registry.gauge("t_off_gauge").value == 0
        c.inc()
        assert c.value == 2


class TestSnapshotMerge:
    """The cross-process protocol: snapshot → pickle → merge."""

    def test_basic_kinds_merge_under_proc_label(self, registry):
        registry.counter("repro_m_total", "c", ("k",)) \
            .labels(k="x").inc(5)
        registry.gauge("repro_m_gauge", "g").set(2.5)
        h = registry.histogram("repro_m_seconds", "h",
                               buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        delta = obs_metrics.snapshot_delta(None, registry.snapshot())
        dst = MetricsRegistry()
        dst.merge(pickle.loads(pickle.dumps(delta)), proc="w0")
        fams = parse_text(dst.render())
        [(_, labels, v)] = [
            s for s in fams["repro_m_total"]["samples"]]
        assert labels == {"k": "x", "proc": "w0"} and v == 5
        assert any(labels == {"proc": "w0"} and v == 2.5
                   for _, labels, v in fams["repro_m_gauge"]["samples"])
        counts = {labels["le"]: v for name, labels, v
                  in fams["repro_m_seconds"]["samples"]
                  if name.endswith("_bucket")}
        assert counts == {"0.1": 1, "1": 1, "+Inf": 2}

    def test_function_backed_gauge_snapshots_its_value(self, registry):
        g = registry.gauge("repro_m_live", "g")
        g.set_function(lambda: 42.0)
        snap = registry.snapshot()
        assert snap["repro_m_live"]["series"][()] == 42.0

    def test_delta_ships_only_changes(self, registry):
        c = registry.counter("repro_m_total", "c")
        g = registry.gauge("repro_m_gauge", "g")
        c.inc(3)
        g.set(1.0)
        first = registry.snapshot()
        assert set(obs_metrics.snapshot_delta(None, first)) == \
            {"repro_m_total", "repro_m_gauge"}
        c.inc(2)
        delta = obs_metrics.snapshot_delta(first, registry.snapshot())
        assert set(delta) == {"repro_m_total"}
        assert delta["repro_m_total"]["series"][()] == 2
        # nothing changed since: an idle process ships nothing
        second = registry.snapshot()
        assert obs_metrics.snapshot_delta(second,
                                          registry.snapshot()) == {}

    def test_counter_regression_resends_full_value(self, registry):
        c = registry.counter("repro_m_total", "c")
        c.inc(10)
        old = registry.snapshot()
        # a respawned worker restarts from zero: the next delta must
        # carry its full (new) total, never a negative amount
        fresh = MetricsRegistry()
        fresh.counter("repro_m_total", "c").inc(4)
        delta = obs_metrics.snapshot_delta(old, fresh.snapshot())
        assert delta["repro_m_total"]["series"][()] == 4

    def test_merge_conflicts_raise(self, registry):
        registry.counter("repro_m_total", "c").inc()
        delta = obs_metrics.snapshot_delta(None, registry.snapshot())
        dst = MetricsRegistry()
        dst.gauge("repro_m_total", "not a counter")
        with pytest.raises(ValueError, match="already registered"):
            dst.merge(delta, proc="w0")
        other = MetricsRegistry()
        other.histogram("repro_m_seconds", "h", buckets=(0.5,)) \
            .observe(0.1)
        hdelta = obs_metrics.snapshot_delta(None, other.snapshot())
        dst2 = MetricsRegistry()
        dst2.histogram("repro_m_seconds", "h", buckets=(0.25, 2.0))
        with pytest.raises(ValueError):
            dst2.merge(hdelta, proc="w0")

    def test_merged_series_accumulate_per_proc(self, registry):
        registry.counter("repro_m_total", "c").inc(2)
        d1 = obs_metrics.snapshot_delta(None, registry.snapshot())
        dst = MetricsRegistry()
        dst.merge(d1, proc="w0")
        dst.merge(d1, proc="w1")
        dst.merge(d1, proc="w0")
        remote = dst.get("repro_m_total").remote_children()
        assert remote[("w0",)].value == 4
        assert remote[("w1",)].value == 2

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_snapshot_pickle_merge_lossless(self, data):
        """Any mix of kinds, label sets, and escaping-hostile label
        values survives snapshot → pickle → merge → render → parse
        with every non-zero series intact (zero-from-birth series are
        documented as dropped)."""
        label_text = st.text(min_size=0, max_size=8)
        src = MetricsRegistry()
        for i in range(data.draw(st.integers(1, 4), label="n_inst")):
            kind = data.draw(st.sampled_from(
                ("counter", "gauge", "histogram")), label="kind")
            labelnames = tuple(data.draw(
                st.lists(st.sampled_from(("a", "b")), unique=True,
                         max_size=2), label="labels"))
            name = f"repro_prop_{i}" + \
                ("_total" if kind == "counter" else "")
            if kind == "counter":
                inst = src.counter(name, "p", labelnames)
            elif kind == "gauge":
                inst = src.gauge(name, "p", labelnames)
            else:
                inst = src.histogram(name, "p", labelnames,
                                     buckets=(0.1, 1.0))
            for _ in range(data.draw(st.integers(1, 3),
                                     label="n_series")):
                values = {n: data.draw(label_text, label="lv")
                          for n in labelnames}
                child = inst.labels(**values) if labelnames else inst
                if kind == "counter":
                    child.inc(data.draw(st.integers(0, 10_000),
                                        label="amount"))
                elif kind == "gauge":
                    child.set(data.draw(
                        st.floats(-1e6, 1e6, allow_nan=False),
                        label="value"))
                else:
                    for v in data.draw(
                            st.lists(st.floats(0, 100,
                                               allow_nan=False),
                                     max_size=4), label="obs"):
                        child.observe(v)
        delta = obs_metrics.snapshot_delta(None, src.snapshot())
        dst = MetricsRegistry()
        dst.merge(pickle.loads(pickle.dumps(delta)), proc="w9")
        src_fams = parse_text(src.render())
        dst_fams = parse_text(dst.render())
        for fam_name, fam in src_fams.items():
            hist = fam["type"] == "histogram"
            # histogram series that never observed are dropped by the
            # delta; identify them per-series (labels minus "le")
            empty = {tuple(sorted(lb.items()))
                     for name, lb, v in fam["samples"]
                     if name.endswith("_count") and v == 0} \
                if hist else set()
            for sample_name, labels, value in fam["samples"]:
                base = tuple(sorted((k, v) for k, v in labels.items()
                                    if k != "le"))
                if hist and base in empty:
                    continue
                if not hist and value == 0:
                    continue  # zero-from-birth series are dropped
                expected = dict(labels)
                expected["proc"] = "w9"
                assert (sample_name, expected, value) in [
                    (n, dict(lb), v)
                    for n, lb, v in dst_fams[fam_name]["samples"]], \
                    (fam_name, sample_name, labels, value)

    def test_env_kill_switch_disables_at_import(self):
        import subprocess
        import sys

        code = ("from repro.obs import metrics as m; "
                "m.counter('repro_env_total', 'x').inc(); "
                "print(m.enabled(), "
                "m.default_registry().get('repro_env_total').value)")
        env = dict(os.environ, REPRO_OBS_DISABLED="1",
                   PYTHONPATH="src")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=REPO_ROOT,
            capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "0.0"]


class TestReservoir:
    def test_exact_below_capacity(self):
        r = ReservoirQuantiles(size=100)
        for v in range(1, 101):
            r.observe(float(v))
        assert r.count == 100 and len(r) == 100
        assert r.quantile(0.0) == 1.0
        assert r.quantile(1.0) == 100.0
        assert r.quantile(0.5) == pytest.approx(50.5)

    def test_bounded_memory_and_plausible_sample(self):
        r = ReservoirQuantiles(size=256, seed=7)
        for v in range(100_000):
            r.observe(float(v))
        assert len(r) == 256 and r.count == 100_000
        # a uniform sample of 0..1e5: the median lands mid-range
        assert 30_000 < r.quantile(0.5) < 70_000

    def test_deterministic_under_seed(self):
        a, b = (ReservoirQuantiles(size=64, seed=3) for _ in range(2))
        for v in range(10_000):
            a.observe(float(v))
            b.observe(float(v))
        assert a.quantiles(0.5, 0.9, 0.99) == b.quantiles(0.5, 0.9, 0.99)

    def test_empty(self):
        r = ReservoirQuantiles(size=8)
        assert r.quantiles(0.5, 0.99) == [0.0, 0.0]
        with pytest.raises(ValueError):
            ReservoirQuantiles(size=0)


# ===================================================================
# tracing
# ===================================================================
class TestTracing:
    def test_traced_two_granule_query_matches_stats(self, tmp_path):
        path = str(tmp_path / "t")
        make_table(path)  # 1024 rows = exactly 2 granules of 512
        with Table.open(path) as table:
            source = StoreSource(table)
            # warm the cache so the traced run shows real hits
            Plan.scan(("val",)).where(
                Range("val", 0, 1024)).execute(source)
            trace = Trace("q", table=path)
            res = Plan.scan(("val",)).where(
                Range("val", 0, 100)).execute(source, trace=trace)
        stats = res.stats
        assert stats.granules_total == 2
        assert stats.granules_pruned == 1  # zone maps drop rows 512+
        assert_granule_spans_match(trace, stats)
        names = {s.name for s in trace.spans}
        assert {"granule", "filter", "gather", "load", "merge"} <= names
        assert res.trace is trace
        assert "trace:" in res.explain().splitlines()[-1]

    def test_untraced_query_pays_nothing(self, tmp_path):
        path = str(tmp_path / "t")
        make_table(path)
        with Table.open(path) as table:
            res = Plan.scan(("val",)).execute(StoreSource(table))
        assert res.trace is None
        assert "trace:" not in res.explain()

    def test_scheduler_spans(self, tmp_path):
        path = str(tmp_path / "t")
        make_table(path)
        trace = Trace("q")
        with MorselScheduler(workers=2, name="t-obs") as sched, \
                Table.open(path) as table:
            res = Plan.scan(("val",)).execute(
                StoreSource(table), scheduler=sched, trace=trace)
        names = [s.name for s in trace.spans]
        assert "admit" in names and "granule" in names
        assert_granule_spans_match(trace, res.stats)

    def test_chrome_export_valid_and_monotonic(self, tmp_path):
        path = str(tmp_path / "t")
        make_table(path)
        trace = Trace("q")
        with Table.open(path) as table:
            Plan.scan(("val",)).where(Range("val", 0, 600)).execute(
                StoreSource(table), trace=trace)
        exported = json.loads(json.dumps(trace.to_chrome()))
        meta = [e for e in exported if e["ph"] == "M"]
        events = [e for e in exported if e["ph"] != "M"]
        assert len(events) == len(trace.spans) > 0
        # all spans ran locally: one real-pid process row named driver
        assert [m["args"]["name"] for m in meta] == ["driver"]
        assert meta[0]["pid"] == os.getpid()
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        for e in events:
            assert e["ph"] == "X" and e["dur"] >= 0
            assert e["pid"] == os.getpid()
            assert isinstance(e["tid"], int)

    def test_json_roundtrip_and_summary(self):
        trace = Trace("demo", table="x")
        with trace.span("load", column="val") as attrs:
            attrs["rows"] = 7
        trace.add("merge", 0.5, 0.6)
        revived = Trace.from_json(json.loads(
            json.dumps(trace.to_json())))
        assert revived.query == "demo"
        assert [s.name for s in revived.spans] == ["load", "merge"]
        assert revived.spans[0].attrs == {"column": "val", "rows": 7}
        assert "2 spans" in trace.summary()

    def test_concurrent_traces_stay_separate(self, tmp_path):
        # two queries traced through ONE shared scheduler: each trace
        # must hold exactly its own query's granules (the reason the
        # context travels as a parameter, not a thread-local)
        path_a, path_b = str(tmp_path / "a"), str(tmp_path / "b")
        make_table(path_a, n=2048, chunk_rows=256, shard_rows=2048)
        make_table(path_b, n=1024, chunk_rows=256, shard_rows=1024)
        with MorselScheduler(workers=4, name="t-obs2") as sched, \
                Table.open(path_a) as ta, Table.open(path_b) as tb:
            traces = [Trace("a"), Trace("b")]
            results = [None, None]

            def run(i, table):
                results[i] = Plan.scan(("val",)).execute(
                    StoreSource(table), scheduler=sched,
                    trace=traces[i])

            threads = [threading.Thread(target=run, args=(0, ta)),
                       threading.Thread(target=run, args=(1, tb))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for i in range(2):
            assert_granule_spans_match(traces[i], results[i].stats)


# ===================================================================
# serve surfaces
# ===================================================================
@pytest.fixture
def served(tmp_path):
    root = str(tmp_path / "root")
    os.makedirs(root)
    make_table(os.path.join(root, "events"))
    return root


class TestServeSurfaces:
    def test_metrics_wire_op(self, served):
        with MutableTable.create(os.path.join(served, "churn"),
                                 schema=("k", "v")) as mutable:
            mutable.append({"k": np.arange(64), "v": np.arange(64)})
            mutable.flush()
            mutable.delete(("k", 0, 40))
            assert mutable.compact(threshold=0.9) is not None
        with TableServer(served, max_inflight=4) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                client.query("events",
                             Plan.scan(("val",)).where(
                                 Range("val", 0, 50)))
                text = client.metrics()
        fams = parse_text(text)
        assert fams["repro_serve_requests_total"]["type"] == "counter"
        served_ok = [
            v for name, labels, v
            in fams["repro_serve_requests_total"]["samples"]
            if labels.get("op") == "query" and labels.get("status") == "ok"]
        assert served_ok and served_ok[0] >= 1
        # executor + scheduler + cache series all populated
        assert any(v > 0 for _, labels, v
                   in fams["repro_exec_queries_total"]["samples"]
                   if labels.get("status") == "ok")
        assert any(labels.get("sched") == "repro-serve" and v > 0
                   for _, labels, v
                   in fams["repro_sched_granules_total"]["samples"])
        assert any(v > 0 for _, _, v
                   in fams["repro_cache_lookups_total"]["samples"])
        # ... and rows out, and the mutation layer's WAL / commit /
        # compaction counters from the round above
        for name in ("repro_exec_rows_total",
                     "repro_wal_appends_total",
                     "repro_mutate_generations_total",
                     "repro_mutate_compact_passes_total"):
            assert any(v > 0 for _, _, v in fams[name]["samples"]), name

    def test_http_metrics_endpoint(self, served):
        with TableServer(served, metrics_port=0) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                client.query("events", Plan.scan(("val",)))
            mhost, mport = server.metrics_address
            with urllib.request.urlopen(
                    f"http://{mhost}:{mport}/metrics") as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith(
                    "text/plain")
                body = resp.read().decode("utf-8")
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{mhost}:{mport}/nope")
        fams = parse_text(body)
        assert "repro_serve_requests_total" in fams
        assert "repro_exec_queries_total" in fams

    def test_stats_reservoir_latency(self, served):
        with TableServer(served) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                for _ in range(5):
                    client.query("events", Plan.scan(("val",)).where(
                        Range("val", 0, 10)))
                stats = client.stats()
        latency = stats["latency_ms"]
        assert {"p50", "p90", "p99", "window", "observed"} <= set(latency)
        assert latency["observed"] == 5
        assert latency["window"] == 5
        assert 0 < latency["p50"] <= latency["p99"]

    def test_slow_query_log_records_plan_explain_trace(self, served,
                                                       tmp_path,
                                                       capsys):
        log = str(tmp_path / "slow.jsonl")
        with TableServer(served, slow_query_ms=0.0,
                         slow_query_log=log) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                plan = Plan.scan(("val",)).where(Range("val", 0, 99))
                client.query("events", plan)
                client.explain("events", plan)
        lines = [json.loads(line)
                 for line in open(log, encoding="utf-8")]
        assert len(lines) == 2
        record = lines[0]
        assert record["op"] == "query" and record["table"] == "events"
        assert record["elapsed_ms"] > 0 and record["timed_out"] is False
        assert record["plan"]["nodes"]  # the plan JSON round-trips
        assert "Scan[" in record["explain"]
        span_names = {s["name"] for s in record["trace"]["spans"]}
        assert "granule" in span_names and "admit" in span_names
        # cross-process context: which tier ran it, granules per lane
        assert record["worker_tier"] == "thread"
        assert record["lanes"] == {
            "driver": sum(1 for s in record["trace"]["spans"]
                          if s["name"] == "granule")}
        # only a process-tier driver prunes before dispatch
        assert record["pruned"] == 0
        # the render CLI understands slow-query JSONL directly and
        # surfaces the tier/lane context
        assert obs_main.main(["render", log]) == 0
        rendered = capsys.readouterr().out
        assert "worker_tier" in rendered and "thread" in rendered

    def test_slow_query_threshold_filters(self, served, tmp_path):
        log = str(tmp_path / "slow.jsonl")
        with TableServer(served, slow_query_ms=60_000.0,
                         slow_query_log=log) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                client.query("events", Plan.scan(("val",)))
        assert not os.path.exists(log)

    def test_explain_renders_for_the_slow_log_only_when_written(
            self, served, tmp_path, monkeypatch):
        """The reply always carries the rendered plan; the slow-query
        log renders it a second time only for a record it writes."""
        from repro.exec.run import ExecResult

        rendered = []
        explain = ExecResult.explain
        monkeypatch.setattr(ExecResult, "explain", lambda self: (
            rendered.append(1), explain(self))[1])
        log = str(tmp_path / "slow.jsonl")
        for opts, per_query in (({}, 1),
                                ({"slow_query_ms": 60_000.0,
                                  "slow_query_log": log}, 1),
                                ({"slow_query_ms": 0.0}, 1),
                                ({"slow_query_ms": 0.0,
                                  "slow_query_log": log}, 2)):
            rendered.clear()
            with TableServer(served, **opts) as server:
                with ServeClient(*server.address) as client:
                    client.query("events", Plan.scan(("val",)))
            assert len(rendered) == per_query, opts

    def test_timeout_lands_in_slow_log(self, served, tmp_path):
        log = str(tmp_path / "slow.jsonl")
        with TableServer(served, slow_query_ms=0.0,
                         slow_query_log=log) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                with pytest.raises(ExecTimeout):
                    client.query("events", Plan.scan(("val",)),
                                 timeout_s=1e-9)
        records = [json.loads(line)
                   for line in open(log, encoding="utf-8")]
        assert any(r["timed_out"] for r in records)


# ===================================================================
# scrub / info accounting + render CLI
# ===================================================================
class TestScrubInfoAccounting:
    def test_scrub_reports_time_and_bytes(self, tmp_path):
        path = str(tmp_path / "t")
        make_table(path, n=2048, shard_rows=1024)
        report = scrub_table(path)
        assert report.ok and len(report.shards) == 2
        for shard in report.shards:
            assert shard.bytes_walked > 0
            assert shard.elapsed_s > 0
        assert report.bytes_walked == sum(s.bytes_walked
                                          for s in report.shards)
        assert "walked:" in report.summary()

    def test_scrub_json_cli(self, tmp_path, capsys):
        path = str(tmp_path / "t")
        make_table(path)
        assert store_cli.main(["scrub", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["bytes_walked"] > 0 and payload["elapsed_s"] > 0
        for shard in payload["shards"]:
            assert shard["bytes_walked"] > 0
            assert shard["elapsed_s"] > 0

    def test_info_reports_per_shard(self, tmp_path, capsys):
        path = str(tmp_path / "t")
        make_table(path, n=2048, shard_rows=1024)
        assert store_cli.main(["info", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["shards"]) == 2
        for shard in payload["shards"]:
            assert shard["stored_bytes"] > 0
            assert shard["open_ms"] >= 0
            assert shard["n_rows"] == 1024
        assert sum(s["stored_bytes"] for s in payload["shards"]) \
            == payload["stored_bytes"]

    def test_render_cli_trace_file(self, tmp_path, capsys):
        trace = Trace("demo")
        with trace.span("load", column="val"):
            pass
        with trace.span("merge"):
            pass
        path = str(tmp_path / "trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace.to_json(), fh)
        assert obs_main.main(["render", path]) == 0
        out = capsys.readouterr().out
        assert "trace: demo" in out
        assert "load" in out and "merge" in out and "#" in out
        assert obs_main.main(["render", "--chrome", path]) == 0
        chrome = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in chrome["traceEvents"]
                if e["ph"] == "X"] == ["load", "merge"]

    def test_render_trace_ascii(self):
        trace = Trace("demo")
        trace.add("a", 0.0, 0.010)
        trace.add("b", 0.010, 0.020)
        text = render_trace(trace.to_json(), width=40)
        lines = text.splitlines()
        assert lines[0].startswith("trace: demo")
        assert any("10.000ms" in line for line in lines)

# ===================================================================
# obs top — rates view over /metrics scrapes
# ===================================================================
class TestObsTop:
    def _registries(self):
        """A (before, after) registry pair with serve/exec/cache/par
        activity in the window, including a merged worker series."""
        from repro.obs import metrics as m

        before = MetricsRegistry()
        req = before.counter("repro_serve_requests_total", "r",
                             ("op", "status"))
        req.labels(op="query", status="ok").inc(10)
        hist = before.histogram("repro_serve_request_seconds", "h",
                                buckets=(0.1, 1.0))
        for _ in range(4):
            hist.observe(0.05)
        lookups = before.counter("repro_cache_lookups_total", "c",
                                 ("outcome",))
        lookups.labels(outcome="hit").inc(6)
        lookups.labels(outcome="miss").inc(4)
        after = MetricsRegistry()
        req2 = after.counter("repro_serve_requests_total", "r",
                             ("op", "status"))
        req2.labels(op="query", status="ok").inc(30)
        hist2 = after.histogram("repro_serve_request_seconds", "h",
                                buckets=(0.1, 1.0))
        for _ in range(4):
            hist2.observe(0.05)
        for _ in range(8):
            hist2.observe(0.05)   # 8 fast requests in the window
        lookups2 = after.counter("repro_cache_lookups_total", "c",
                                 ("outcome",))
        lookups2.labels(outcome="hit").inc(12)
        lookups2.labels(outcome="miss").inc(6)
        # worker telemetry merged under proc="w0" — only in `after`
        worker = MetricsRegistry()
        worker.counter("repro_par_worker_granules_total", "g").inc(24)
        worker.counter("repro_cache_lookups_total", "c",
                       ("outcome",)).labels(outcome="miss").inc(24)
        after.merge(m.snapshot_delta(None, worker.snapshot()),
                    proc="w0")
        return before, after

    def test_hist_quantile_interpolates_bucket_deltas(self):
        from repro.obs import top as obs_top

        before = MetricsRegistry()
        h = before.histogram("repro_q_seconds", "q",
                             buckets=(0.1, 1.0))
        after = MetricsRegistry()
        h2 = after.histogram("repro_q_seconds", "q",
                             buckets=(0.1, 1.0))
        for _ in range(50):
            h2.observe(0.05)
        for _ in range(50):
            h2.observe(0.5)
        prev = parse_text(before.render())
        curr = parse_text(after.render())
        p50 = obs_top.hist_quantile(prev, curr, "repro_q_seconds", 0.5)
        p99 = obs_top.hist_quantile(prev, curr, "repro_q_seconds", 0.99)
        assert p50 == pytest.approx(0.1)          # 50th lands on edge
        assert 0.1 < p99 <= 1.0                   # interpolated above
        # no observations in the window → None, not a crash
        assert obs_top.hist_quantile(curr, curr,
                                     "repro_q_seconds", 0.5) is None
        assert obs_top.hist_quantile(prev, curr,
                                     "repro_nope_seconds", 0.5) is None

    def test_compute_view_rates_and_lanes(self):
        from repro.obs import top as obs_top

        before, after = self._registries()
        view = obs_top.compute_view(parse_text(before.render()),
                                    parse_text(after.render()), 10.0)
        assert view["qps"] == pytest.approx(2.0)   # 20 requests / 10s
        # hit rate over the window: +6 hits, +2 local + 24 worker misses
        assert view["cache_hit_rate"] == pytest.approx(6 / 32)
        assert view["request_p50"] is not None
        assert view["lanes"]["w0"]["granules"] == 24
        assert view["lanes"]["w0"]["cache_lookups"] == 24
        assert "driver" not in view["lanes"]

    def test_top_cli_snapshot_mode(self, tmp_path, capsys):
        before, after = self._registries()
        b = str(tmp_path / "before.txt")
        a = str(tmp_path / "after.txt")
        with open(b, "w", encoding="utf-8") as fh:
            fh.write(before.render())
        with open(a, "w", encoding="utf-8") as fh:
            fh.write(after.render())
        assert obs_main.main(["top", "--snapshots", b, a,
                              "--dt", "10"]) == 0
        out = capsys.readouterr().out
        assert "req/s" in out and "hit rate" in out
        assert "w0" in out and "granules +24" in out
