"""The traced pass (``--trace 1``): per-layer numbers and the hop ladder.

End-to-end numbers never come from here.  This pass runs the workload's
stream three ways and times each layer from the outside:

* **untraced clients** against an untraced server — client-side
  diagnostics, response ``stats``, and before/after scrapes of the
  ``metrics`` op (the scrape's own request subtracted);
* **the same clients against a server with its tracing on**
  (``--slow-query-ms`` set high) — the ratio of the two medians is
  ``obs.trace_overhead_ratio``, and each request is a ``client.request``
  root span;
* **the hop ladder**, in this process, for the same plans:
  ``serve.plan_encode`` → ``serve.plan_revive`` → ``exec.execute`` on
  the matching scheduler with a ``repro.obs.Trace`` whose spans are
  adopted as children → ``serve.result_encode`` →
  ``serve.result_decode`` → ``serve.ping`` (the transport floor).

What the client observed beyond the sum of the ladder's hops is
``client.unattributed_ms`` — the time only spans *inside* the program
can explain (ROADMAP item 5).
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

from repro import codecs
from repro.exec import MorselScheduler, Plan, execute
from repro.exec.run import ExecStats
from repro.obs import Trace, parse_text, render_text
from repro.serve import wire
from repro.store import ChunkCache, Table
from repro.store.cache import DEFAULT_CAPACITY_BYTES
from repro.store.executor import StoreSource

import e2e_churn as ch
import e2e_procs as procs
import e2e_served as sv
import e2e_stats as st
import e2e_workloads as wl
from e2e_catalog import PER_LAYER

#: the ladder's hops, in request order
HOPS = ("serve.plan_encode", "serve.plan_revive", "exec.execute",
        "serve.result_encode", "serve.result_decode", "serve.ping")
#: requests the ladder replays at most
LADDER_REQUESTS = 200
#: chunks sampled per codec / for cold loads
CODEC_SAMPLE = 24
LOAD_SAMPLE = 96
GATHER_POSITIONS = 64
#: exec spans that hang below their granule's span
_GRANULE_PARTS = ("load", "filter", "gather", "aggregate", "join")


def _p50(values) -> float:
    return st.percentile(values, 50) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------- scrapes
def _scrape(client) -> tuple[dict, float]:
    t0 = time.perf_counter()
    text = client.metrics()
    return parse_text(text), time.perf_counter() - t0


def _hist_mean(before: dict, after: dict, family: str) -> float:
    """Mean of what a histogram family observed between two scrapes."""
    n = st.scrape_delta(before, after, family, family + "_count")
    total = st.scrape_delta(before, after, family, family + "_sum")
    return total / n if n else 0.0


def _scrape_metrics(before0: dict, before: dict, after: dict,
                    n_ops: int, client_mean_ms: float) -> dict:
    """Layer numbers read as scrape diffs.  ``before0`` and ``before``
    are back to back, so their difference is one scrape's own cost."""
    fam = "repro_serve_request_seconds"
    own_s = st.scrape_delta(before0, before, fam, fam + "_sum")
    n_req, req_s = st.request_seconds_delta(before, after, 1, own_s)
    request_ms = req_s * 1e3 / n_req if n_req else 0.0
    sent = st.scrape_delta(before, after, "repro_par_granules_total",
                           outcome="ok")
    return {
        "serve.request_ms": request_ms,
        "serve.transport_ms": client_mean_ms - request_ms,
        "serve.busy_rejects": st.scrape_delta(
            before, after, "repro_serve_requests_total", status="busy"),
        "pool.park_wait_ms": 1e3 * _hist_mean(
            before, after, "repro_sched_park_wait_seconds"),
        "par.roundtrip_us": 1e6 * _hist_mean(
            before, after, "repro_par_pipe_roundtrip_seconds"),
        "par.dispatch_wait_us": 1e6 * _hist_mean(
            before, after, "repro_par_dispatch_wait_seconds"),
        "par.granules_sent_per_op": sent / n_ops,
        "par.bytes_per_op": st.scrape_delta(
            before, after, "repro_par_bytes_total") / n_ops,
        "par.respawns": st.scrape_delta(
            before, after, "repro_par_respawns_total"),
        "par.needdesc": st.scrape_delta(
            before, after, "repro_par_needdesc_total"),
    }


# ---------------------------------------------------------- client passes
def _window_ops(out: dict, stream: str) -> list:
    lo, hi = out["marks"][0][0], out["marks"][-1][0]
    return [op for op in out["ops"][stream] if lo < op[0] <= hi]


def _client_metrics(out: dict, lat: str, thr: str) -> tuple[dict, dict]:
    """``client.*`` diagnostics and the counts response ``stats``
    carry, over the window of one untraced pass; plus three numbers
    later steps derive other metrics from."""
    lat_ops = _window_ops(out, lat)
    thr_ops = _window_ops(out, thr)
    lat_ms = [op[1] * 1e3 for op in lat_ops]
    window_s = out["marks"][-1][0] - out["marks"][0][0]
    slices = st.slice_values(out["marks"], out["ops"], lat, thr)
    tail = st.tail_percentile(len(lat_ms))
    lat_stats = [op[3] for op in lat_ops if op[3]]
    thr_stats = [op[3] for op in thr_ops if op[3]]
    every = lat_stats if lat == thr else lat_stats + thr_stats
    total = sum(s["granules_total"] for s in lat_stats)
    pruned = sum(s["granules_pruned"] for s in lat_stats)
    hits = sum(s["cache_hits"] for s in every)
    misses = sum(s["cache_misses"] for s in every)
    returned = wl.SELECT_LIMIT  # rows (select) or groups (aggregate)
    if lat == "wide":
        returned = lat_stats[0]["rows_scanned"] if lat_stats else 1
    metrics = {
        "client.samples": len(lat_ms),
        "client.latency_mean_ms": _mean(lat_ms),
        "client.latency_tail_ms": st.percentile(lat_ms, tail),
        "client.tail_percentile": tail,
        "client.slice_spread": st.spread(slices["latency_p50_ms"]),
        "client.bg_latency_p50_ms":
            _p50([op[1] * 1e3 for op in thr_ops]) if thr != lat else 0.0,
        "client.fg_ops_s": len(lat_ops) / window_s,
        "exec.filter_ms": 1e3 * _mean(
            s["cpu_filter_s"] for s in thr_stats),
        "exec.gather_ms": 1e3 * _mean(
            s["cpu_gather_s"] for s in thr_stats),
        "exec.aggregate_ms": 1e3 * _mean(
            s["cpu_aggregate_s"] for s in thr_stats),
        "exec.granules_per_op": total / len(lat_stats),
        "exec.prune_ratio": pruned / total,
        "exec.rows_examined_per_row_returned": _mean(
            s["rows_scanned"] for s in lat_stats) / returned,
        "store.cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes_read_per_op": _mean(
            s["bytes_read"] for s in every),
        "store.chunks_scanned_per_op": _mean(
            s["chunks_scanned"] for s in every),
    }
    return metrics, {
        "useful_per_op": (total - pruned) / len(lat_stats),
        "latency_p50_ms": _p50(lat_ms),
        "mean_all_ms": _mean(
            op[1] * 1e3 for ops in out["ops"].values() for op in ops),
    }


class RecordingStream:
    """Wraps a stream and keeps what it issued, so the ladder can
    replay the very same plans."""

    def __init__(self, stream):
        self.stream = stream
        self.name = stream.name
        self.issued: list = []

    def next_op(self):
        op = self.stream.next_op()
        self.issued.append(op)
        return op


# ------------------------------------------------------------- the ladder
def _adopt_exec_spans(trace: Trace, parent: int, rid: int,
                      spans: list) -> None:
    """Hang the program's own trace spans below the ``exec.execute``
    hop: scheduling and merge spans directly, each granule's
    load/filter/gather/aggregate spans below that granule's span (a
    load inside a filter or gather span goes below that one)."""
    granule_ids: dict = {}
    parts = []
    for s in trace.spans:
        start, end = trace.t0 + s.start, trace.t0 + s.end
        if s.name in _GRANULE_PARTS:
            parts.append((s, start, end))
            continue
        sid = len(spans)
        spans.append((sid, parent, "exec." + s.name, start, end, rid))
        if s.name == "granule":
            granule_ids[s.attrs.get("granule")] = sid
    holders: dict = {}  # granule -> [(start, end, sid)] of non-loads
    loads = []
    for s, start, end in parts:
        under = granule_ids.get(s.attrs.get("granule"), parent)
        if s.name == "load":
            loads.append((s, start, end, under))
            continue
        sid = len(spans)
        spans.append((sid, under, "exec." + s.name, start, end, rid))
        holders.setdefault(s.attrs.get("granule"), []).append(
            (start, end, sid))
    for s, start, end, under in loads:
        mid = (start + end) / 2
        for h_start, h_end, h_sid in holders.get(
                s.attrs.get("granule"), ()):
            if h_start <= mid <= h_end:
                under = h_sid
                break
        spans.append((len(spans), under, "exec.load", start, end, rid))


class Ladder:
    """The request's hops, executed here: an in-process model of the
    server (same scheduler shape, same cache budget, same table)."""

    def __init__(self, table_path: str, spec: wl.ServedSpec,
                 inputs: wl.Inputs):
        budget = wl.cache_mb(spec, inputs)
        cache_bytes = DEFAULT_CAPACITY_BYTES if budget is None \
            else int(budget * (1 << 20))
        self.table = Table.open(table_path, cache=ChunkCache(cache_bytes))
        self.source = StoreSource(self.table)
        self.thread_sched = None
        self.proc_sched = None
        try:
            if spec.tier == "process":
                # forked before this process starts any other thread
                from repro.par import ProcessScheduler

                self.proc_sched = ProcessScheduler(
                    workers=2, max_inflight=8, queue_depth=16,
                    name="e2e-ladder-proc")
            self.thread_sched = MorselScheduler(
                workers=2, max_inflight=8, queue_depth=16,
                name="e2e-ladder")
        except BaseException:
            self.close()
            raise
        self.sched = self.proc_sched or self.thread_sched

    def close(self) -> None:
        for sched in (self.thread_sched, self.proc_sched):
            if sched is not None:
                sched.close(drain=True, timeout=10.0)
        self.table.close()

    def __enter__(self) -> "Ladder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def climb(self, rid: int, plan: Plan, limit, client) -> tuple:
        """One request through every hop.  Returns ``(spans, decoded
        result, frame bytes)``; spans are ``(id, parent, name, start,
        end, request id)`` with the ``ladder`` root first."""
        clock = time.perf_counter
        t = [clock()]
        request = {"v": wire.WIRE_VERSION, "op": "query",
                   "table": wl.TABLE, "plan": plan.to_json()}
        if limit is not None:
            request["limit"] = limit
        payload = json.dumps(request, separators=(",", ":")).encode()
        t.append(clock())
        revived = Plan.from_json(json.loads(payload.decode())["plan"])
        t.append(clock())
        trace = Trace("query", table=wl.TABLE)
        res = execute(revived, self.source, scheduler=self.sched,
                      timeout_s=30.0, trace=trace)
        t.append(clock())
        frame = json.dumps(
            {"ok": True,
             "result": wire.encode_result(res, limit=limit)},
            separators=(",", ":")).encode()
        t.append(clock())
        result = json.loads(frame.decode())["result"]
        if result.get("row_ids") is not None:
            result["row_ids"] = np.asarray(result["row_ids"],
                                           dtype=np.int64)
            result["columns"] = {
                name: np.asarray(values, dtype=np.int64)
                for name, values in result["columns"].items()}
        t.append(clock())
        client.ping()
        t.append(clock())
        spans = [(0, None, "ladder", t[0], t[-1], rid)]
        for i, name in enumerate(HOPS):
            spans.append((i + 1, 0, name, t[i], t[i + 1], rid))
        _adopt_exec_spans(trace, 1 + HOPS.index("exec.execute"), rid,
                          spans)
        return spans, result, len(frame)

    def plain_ms(self, plans, budget_s: float) -> dict:
        """Untraced ``execute`` medians of the same plans, inline, on
        the thread scheduler and (process-tier workloads) on the
        process scheduler."""
        tiers = {"inline": {"threads": 1},
                 "thread": {"scheduler": self.thread_sched}}
        if self.proc_sched is not None:
            tiers["process"] = {"scheduler": self.proc_sched}
        out = {}
        for tier, kwargs in tiers.items():
            samples = []
            deadline = time.perf_counter() + budget_s / len(tiers)
            for plan, _limit, _check in plans:
                t0 = time.perf_counter()
                execute(plan, self.source, **kwargs)
                samples.append((time.perf_counter() - t0) * 1e3)
                if len(samples) >= 2 and time.perf_counter() > deadline:
                    break
            out[tier] = _p50(samples[1:])  # the first run warms caches
        return out


def _aggregate(workload: str, requests: list) -> tuple[dict, float]:
    """Median over requests of each span name's ``(count, summed
    duration ms, summed self ms)`` + the worst relative gap between a
    request's self times and its root, which must stay within 1 %."""
    by_name: dict = {}
    worst = 0.0
    for spans in requests:
        self_s = st.self_times(
            (sid, parent, start, end)
            for sid, parent, _n, start, end, _r in spans)
        root_s = spans[0][4] - spans[0][3]
        worst = max(worst, abs(sum(self_s.values()) - root_s) / root_s)
        per: dict = {}
        for sid, _parent, name, start, end, _rid in spans:
            acc = per.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += (end - start) * 1e3
            acc[2] += self_s[sid] * 1e3
        for name, acc in per.items():
            by_name.setdefault(name, []).append(acc)
    if worst > 0.01:
        raise sv.WorkloadError(
            f"{workload}: span self times miss the root by "
            f"{worst:.2%} (> 1 %)")
    return {name: tuple(_p50([a[i] for a in accs]) for i in range(3))
            for name, accs in by_name.items()}, worst


def _table_rows(p50: dict, order, root: str) -> list[str]:
    lines = [f"  {'span':<24}{'spans/req':>10}{'total ms':>11}"
             f"{'self ms':>11}{'self %':>8}"]
    for depth, name in order:
        count, total, own = p50[name]
        lines.append(
            f"  {'  ' * depth + name:<24}{count:>10.0f}{total:>11.3f}"
            f"{own:>11.3f}{100 * own / p50[root][1]:>7.1f}%")
    return lines


def hop_table(workload: str, requests: list, client_p50_ms: float
              ) -> tuple[str, dict]:
    """The per-workload hop table and the numbers read off it.

    ``requests`` are the ladder's span lists.  Per request, spans of one
    name are summed (a request has ~500 granule spans); the table shows
    the median over requests of each name's total and self time.
    """
    p50, worst = _aggregate(workload, requests)
    hop_sum = sum(p50[name][1] for name in HOPS)
    unattributed = client_p50_ms - hop_sum
    order = [(0, "ladder")]
    for name in HOPS:
        order.append((1, name))
        if name == "exec.execute":
            order += [(2, n) for n in sorted(p50)
                      if n not in HOPS and n != "ladder"]
    lines = [
        f"hop table: {workload} ({len(requests)} requests; medians over "
        "requests of each name's summed time)",
        *_table_rows(p50, order, "ladder"),
        f"  {'client.request':<24}{1:>10}{client_p50_ms:>11.3f}",
        f"  {'client.unattributed':<24}{'':>10}{unattributed:>11.3f}"
        f"   = client.request - the {len(HOPS)} hops ({hop_sum:.3f} ms)",
        f"  self times sum to the root within {worst:.1e}"]
    numbers = {
        "serve.plan_encode_us": p50["serve.plan_encode"][1] * 1e3,
        "serve.plan_revive_us": p50["serve.plan_revive"][1] * 1e3,
        "serve.result_encode_ms": p50["serve.result_encode"][1],
        "serve.result_decode_ms": p50["serve.result_decode"][1],
        "serve.ping_us": p50["serve.ping"][1] * 1e3,
        "exec.merge_ms": p50.get("exec.merge", (0, 0.0, 0.0))[1],
        "client.unattributed_ms": unattributed,
    }
    return "\n".join(lines), numbers


# ---------------------------------------------------------- store, codecs
def store_codec_metrics(table_path: str, write_s: float, n_rows: int,
                        seed: int) -> dict:
    """``store.*`` and ``codecs.*`` numbers, timed on the table's own
    chunks through ``Table``, ``StoreSource`` and ``repro.codecs``."""
    rng = np.random.default_rng([seed, 5])
    opens = []
    for _ in range(5):
        t0 = time.perf_counter()
        Table.open(table_path, cache_bytes=0).close()
        opens.append((time.perf_counter() - t0) * 1e3)
    out = {"store.open_ms": _p50(opens),
           "store.write_rows_per_s": n_rows / write_s}
    with Table.open(table_path, cache_bytes=0) as table:
        source = StoreSource(table)
        granules = source.granules()
        names = table.column_names
        t0 = time.perf_counter()
        for g in rng.choice(len(granules), LOAD_SAMPLE):
            source.load(granules[int(g)],
                        names[int(g) % len(names)], ExecStats())
        out["store.load_ms_per_chunk"] = \
            (time.perf_counter() - t0) * 1e3 / LOAD_SAMPLE
        mix = table.info()["chunk_codec_mix"]
        out["codecs.leco_chunk_share"] = \
            mix.get("leco", 0) / sum(mix.values())
        by_codec: dict = {"leco": [], "dict": []}
        for shard_idx, shard in enumerate(table.shards):
            for meta in shard.footer.chunks:
                if meta.codec in by_codec and \
                        meta.n_rows == table.chunk_rows:
                    by_codec[meta.codec].append((shard_idx, meta))
        encoders = {"leco": codecs.get("leco", partitioner=1024),
                    "dict": codecs.get("dict"),
                    "plain": codecs.get("plain")}
        select_ms = []
        for name, chunks in by_codec.items():
            picks = [chunks[int(i)] for i in
                     rng.choice(len(chunks),
                                min(CODEC_SAMPLE, len(chunks)),
                                replace=False)] if chunks else []
            decode_s = gather_s = encode_s = 0.0
            for shard_idx, meta in picks:
                seq = table.revive_chunk(shard_idx, meta)
                t0 = time.perf_counter()
                values = seq.decode_all()
                decode_s += time.perf_counter() - t0
                where = np.sort(rng.choice(meta.n_rows, GATHER_POSITIONS,
                                           replace=False))
                t0 = time.perf_counter()
                seq.gather(where)
                gather_s += time.perf_counter() - t0
                values = np.asarray(values, dtype=np.int64)
                t0 = time.perf_counter()
                encoders[name].encode(values).to_bytes()
                encode_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                min(len(enc.encode(values).to_bytes())
                    for enc in encoders.values())
                select_ms.append((time.perf_counter() - t0) * 1e3)
            mb = len(picks) * table.chunk_rows * 8 / 1e6
            out[f"codecs.{name}.decode_mb_s"] = \
                mb / decode_s if decode_s else 0.0
            out[f"codecs.{name}.encode_mb_s"] = \
                mb / encode_s if encode_s else 0.0
            out[f"codecs.{name}.gather_us"] = \
                gather_s * 1e6 / (len(picks) * GATHER_POSITIONS) \
                if picks else 0.0
        out["codecs.auto_select_ms_per_chunk"] = _mean(select_ms)
    return out


def _finish(metrics: dict) -> dict:
    """Every catalogued per-layer metric, 0 where the layer is not on
    this workload's path."""
    return {name: float(metrics.get(name, 0.0))
            for name, _unit, _better in PER_LAYER}


# ------------------------------------------------------------ served pass
def trace_served(args, inputs, workdir: str, src_dir: str) -> dict:
    spec = wl.SERVED[args.workload]
    secs = args.seconds
    attempted = failed = 0

    def tally(out: dict) -> None:
        nonlocal attempted, failed
        for ops in out["ops"].values():
            attempted += len(ops)
            failed += sum(1 for op in ops if not op[2])

    with sv.Served(workdir, inputs, spec, src_dir) as served:
        streams = [make(inputs) for make in spec.streams]
        lat, thr = streams[0].name, streams[-1].name
        alone_p50 = None
        if len(streams) > 1:
            # the latency stream's op with nothing beside it
            alone = sv.run_streams(served, secs / 32, secs / 8, 1,
                                   [spec.streams[0](inputs)])
            tally(alone)
            alone_p50 = _p50([op[1] * 1e3
                              for op in _window_ops(alone, lat)])
        with served.client() as scraper:
            before0, _ = _scrape(scraper)
            before, _ = _scrape(scraper)
            plain = sv.run_streams(served, secs * 3 / 32, secs / 8, 3,
                                   streams)
            after, scrape_s = _scrape(scraper)
        tally(plain)
        n_ops = sum(len(ops) for ops in plain["ops"].values())
        metrics, aux = _client_metrics(plain, lat, thr)
        metrics.update(_scrape_metrics(
            before0, before, after, n_ops, aux["mean_all_ms"]))
        metrics["obs.scrape_ms"] = scrape_s * 1e3
        metrics["pool.fg_slowdown"] = \
            aux["latency_p50_ms"] / alone_p50 if alone_p50 else 1.0
        if spec.tier == "process":
            metrics["par.useful_granule_ratio"] = \
                aux["useful_per_op"] / metrics["par.granules_sent_per_op"]
        write_s = served.write_s
        # the same table behind a server with the program's tracing on
        served.server.stop()
        served.server = procs.Server(
            served.root, src_dir,
            wl.server_flags(spec, inputs, traced=True))
        with served.client() as client:
            if not wl.prefill_ok(
                    inputs, client.query(wl.TABLE, wl.prefill_plan())):
                raise sv.WorkloadError("prefill query answered wrongly")
            recorded = [RecordingStream(make(inputs))
                        for make in spec.streams]
            traced = sv.run_streams(served, secs / 16, secs * 3 / 16, 1,
                                    recorded)
            tally(traced)
            traced_p50 = _p50([op[1] * 1e3
                               for op in _window_ops(traced, lat)])
            metrics["obs.trace_overhead_ratio"] = \
                traced_p50 / aux["latency_p50_ms"]
            plans = recorded[0].issued[:LADDER_REQUESTS]
            requests, frames = [], []
            with Ladder(served.table_path, spec, inputs) as ladder:
                # as in a measured window: this process's collector
                # must not bill its pauses to a hop
                sv.quiet_generator()
                try:
                    deadline = time.perf_counter() + secs * 3 / 16
                    for rid, (plan, limit, check) in enumerate(plans):
                        spans, result, frame = ladder.climb(
                            rid, plan, limit, client)
                        attempted += 1
                        failed += not check(result)
                        requests.append(spans)
                        frames.append(frame)
                        if len(requests) >= 3 and \
                                time.perf_counter() > deadline:
                            break
                    tiers = ladder.plain_ms(plans, secs / 8)
                finally:
                    gc.unfreeze()
        # the first climb warms the ladder's caches
        table_text, numbers = hop_table(
            args.workload, requests[1:] or requests, traced_p50)
        metrics.update(numbers)
        metrics["serve.frame_bytes"] = _p50(frames)
        metrics["exec.inline_ms"] = tiers["inline"]
        metrics["pool.dispatch_overhead_ms"] = \
            tiers["thread"] - tiers["inline"]
        if "process" in tiers:
            metrics["par.lane_overhead_ms"] = \
                tiers["process"] - tiers["thread"]
        metrics.update(store_codec_metrics(
            served.table_path, write_s, inputs.n_rows, inputs.seed))
    return {"metrics": _finish(metrics), "attempted": attempted,
            "failed": failed, "tables": [table_text],
            "flags": wl.server_flags(spec, inputs, traced=True)}


# ------------------------------------------------------------- churn pass
def _registry() -> dict:
    """This process's metrics registry, as a parsed scrape."""
    return parse_text(render_text())


def trace_churn(args, inputs, workdir: str) -> dict:
    """``ingest_churn`` twice: rounds timed whole (untraced), then with
    a span around every ``MutableTable`` call."""
    secs = args.seconds
    with ch.Churn(workdir, inputs) as plain:
        out = ch.run_rounds(plain, secs * 3 / 32, secs / 8, 3)
        plain_p50 = _p50([op[1] * 1e3 for op in out["ops"]["round"]])
        attempted, failed = plain.attempted, plain.failed
    spans: list = []
    before = _registry()
    with ch.Churn(workdir, inputs, spans=spans) as churn:
        t0 = time.perf_counter()
        out = ch.run_rounds(churn, secs * 3 / 32, secs / 8, 3)
        wall_s = time.perf_counter() - t0
        rounds = out["ops"]["round"]
        stats = churn.last_select_stats
        attempted += churn.attempted
        failed += churn.failed
        if not churn.final_check():
            raise sv.WorkloadError(
                "ingest_churn: the reopened table differs from the "
                "numpy replay")
        metrics = store_codec_metrics(
            churn.path, churn.write_s, inputs.n_rows, inputs.seed)
        rewritten = churn.bytes_rewritten
        rows = churn.rows_appended
    after = _registry()
    raw = 8.0 * len(ch.COLUMNS) * rows
    by_name: dict = {}
    per_round: dict = {}
    for name, start, end, rnd in spans:
        by_name.setdefault(name, []).append((end - start) * 1e3)
        per_round.setdefault(rnd, []).append((name, start, end))

    def call_ms(name: str) -> float:
        return _mean(by_name.get("mutate." + name, ()))

    # rounds as request trees: one root per round, one child per call
    requests = []
    for rnd, calls in sorted(per_round.items()):
        if rnd == 0:
            continue  # the set-up select
        tree = [(0, None, "round", calls[0][1], calls[-1][2], rnd)]
        tree += [(i + 1, 0, name, start, end, rnd)
                 for i, (name, start, end) in enumerate(calls)]
        requests.append(tree)
    traced_p50 = _p50([op[1] * 1e3 for op in rounds])
    table_text = _churn_table(requests)
    round_ms = [op[1] * 1e3 for op in rounds]
    tail = st.tail_percentile(len(round_ms))
    slices = st.slice_values(out["marks"], out["ops"], "round", "round")
    metrics.update({
        "mutate.append_ms": call_ms("append"),
        "mutate.wal_fsync_ms": 1e3 * _hist_mean(
            before, after, "repro_wal_fsync_seconds"),
        "mutate.delete_ms": call_ms("delete"),
        "mutate.update_ms": call_ms("update"),
        "mutate.flush_ms": call_ms("flush"),
        "mutate.dv_select_ms": call_ms("dv_select"),
        "mutate.compact_ms": call_ms("compact"),
        "mutate.reopen_ms": call_ms("reopen"),
        "mutate.round_max_ms": max(round_ms),
        "mutate.ingest_rows_per_s": rows / wall_s,
        "mutate.wal_bytes_per_raw_byte": st.scrape_delta(
            before, after, "repro_wal_bytes_total") / raw,
        "mutate.bytes_rewritten_per_raw_byte": rewritten / raw,
        "obs.trace_overhead_ratio": traced_p50 / plain_p50,
        "client.samples": len(round_ms),
        "client.latency_mean_ms": _mean(round_ms),
        "client.latency_tail_ms": st.percentile(round_ms, tail),
        "client.tail_percentile": tail,
        "client.slice_spread": st.spread(slices["latency_p50_ms"]),
        "client.fg_ops_s": len(_window_ops(out, "round")) / (
            out["marks"][-1][0] - out["marks"][0][0]),
        # a point select through the deletion-vector-masked live view
        "exec.inline_ms": call_ms("dv_select"),
        "exec.filter_ms": stats.cpu_filter_s * 1e3,
        "exec.gather_ms": stats.cpu_gather_s * 1e3,
        "exec.granules_per_op": stats.granules_total,
        "exec.prune_ratio":
            stats.granules_pruned / stats.granules_total,
        "exec.rows_examined_per_row_returned": stats.rows_scanned,
        "store.cache_hit_ratio": stats.cache_hits / max(
            1, stats.cache_hits + stats.cache_misses),
        "store.bytes_read_per_op": stats.bytes_read,
        "store.chunks_scanned_per_op": stats.chunks_scanned,
    })
    return {"metrics": _finish(metrics), "attempted": attempted,
            "failed": failed, "tables": [table_text], "flags": []}


def _churn_table(requests: list) -> str:
    p50, worst = _aggregate("ingest_churn", requests)
    order = [(0, "round")] + [(1, n) for n in sorted(p50)
                              if n != "round"]
    return "\n".join([
        f"hop table: ingest_churn ({len(requests)} rounds; medians over "
        "the rounds a call occurs in; the round's self time is the "
        "harness's own work between calls)",
        *_table_rows(p50, order, "round"),
        f"  self times sum to the root within {worst:.1e}"])
