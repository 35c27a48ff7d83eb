"""``TableServer`` — many concurrent clients, one scheduler, one cache.

The serving shape of the whole stack: a socket server that accepts
length-prefixed requests (see :mod:`repro.serve.wire`) from many
concurrent connections and executes their plans over the store through
**shared resources**:

* one :class:`~repro.exec.pool.MorselScheduler` — granules from every
  in-flight query interleave fair-share on a fixed worker pool, with
  admission control turning overload into
  :class:`~repro.exec.errors.ServerBusy` responses instead of a pile-up;
* one :class:`~repro.store.cache.ChunkCache` — every table the server
  opens revives chunks through the same bounded LRU, with per-query
  hit/miss/eviction attribution flowing into each response's stats;
* per-request deadlines — ``timeout_s`` rides the executor's
  cooperative-cancellation machinery, and a request that spends its
  whole budget parked in the admission queue times out too.

A request names a table, a plan, and optionally its deadline and a row
cap (:data:`~repro.serve.wire.REQUEST_FIELDS`); the plan runs with the
executor's defaults (zone-map pruning, pushdown, corrupt chunks
raised).  A field the server does not read is refused, not ignored.

Tables are the subdirectories of ``root`` that hold a store manifest
(or ``root`` itself when it is a table).  Each is opened once, lazily,
as an immutable snapshot — restart the server to pick up new published
generations.  Shutdown is graceful: in-flight requests complete, new
ones are refused, then sockets close.
"""

from __future__ import annotations

import http.server
import json
import os
import socket
import threading
import time

from repro.exec import Plan
from repro.exec.errors import ExecTimeout, ServerBusy
from repro.exec.pool import MorselScheduler
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import ReservoirQuantiles
from repro.obs.trace import Trace
from repro.serve import wire
from repro.store.cache import DEFAULT_CAPACITY_BYTES, ChunkCache
from repro.store.executor import StoreSource
from repro.store.table import Table

#: per-request deadline when the client does not send one
DEFAULT_TIMEOUT_S = 30.0

#: latency reservoir size for the /stats percentiles (O(1) memory —
#: a uniform sample over the server's whole lifetime, never a growing
#: list)
LATENCY_WINDOW = 4096

_M_REQUESTS = obs_metrics.counter(
    "repro_serve_requests_total", "wire requests by op and status",
    labels=("op", "status"))
# every (op, status) child bound once; the request path charges the
# bound child and ``stats()`` reads the same series back
_M_REQUEST_CHILD = {
    (op, status): _M_REQUESTS.labels(op=op, status=status)
    for op in (*wire.OPS, "invalid")
    for status in ("ok", "error", "busy")}
#: the counter families ``stats()`` diffs against the server's start
_STATS_FAMILIES = frozenset((
    _M_REQUESTS.name, "repro_cache_lookups_total",
    "repro_cache_evictions_total", "repro_par_respawns_total"))
_M_REQUEST_SECONDS = obs_metrics.histogram(
    "repro_serve_request_seconds", "wire request handling time")
_M_SLOW_QUERIES = obs_metrics.counter(
    "repro_serve_slow_queries_total",
    "queries recorded to the slow-query log")


def _ok(result) -> list:
    return wire.json_frame({"ok": True, "result": result})


class _MetricsHandler(http.server.BaseHTTPRequestHandler):
    """GET /metrics → the process-wide registry's text exposition."""

    def do_GET(self):  # noqa: N802 (BaseHTTPRequestHandler API)
        if self.path.split("?", 1)[0] not in ("/metrics", "/"):
            self.send_error(404, "try /metrics")
            return
        body = obs_metrics.render_text().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass  # scrapes are not server events worth a log line


class TableServer:
    """Serve store tables under ``root`` to concurrent socket clients.

    Every query runs on one bounded morsel scheduler, ``workers`` wide
    (default :func:`~repro.exec.pool.auto_workers`, so one worker on a
    box or affinity set of one CPU).
    ``worker_tier="process"`` makes it a
    :class:`repro.par.ProcessScheduler` — granule decode runs in worker
    processes, escaping the GIL on multi-core boxes; their start method
    is :func:`repro.par.default_start_method` (``REPRO_PAR_START_METHOD``
    chooses).  Every table it serves is a
    :class:`~repro.store.executor.StoreSource`, which always describes
    itself, so no served query is refused by the process tier.

    A connection waits for its next request however long the client
    takes, even mid-frame, and is dropped only when the client closes
    it, sends bytes that are not a frame, or the server drains.
    """

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0,
                 workers: int | None = None,
                 max_inflight: int = 8, queue_depth: int = 16,
                 cache_bytes: int = DEFAULT_CAPACITY_BYTES,
                 default_timeout_s: float = DEFAULT_TIMEOUT_S,
                 worker_tier: str = "thread",
                 metrics_port: int | None = None,
                 slow_query_ms: float | None = None,
                 slow_query_log: str | None = None):
        if worker_tier not in ("thread", "process"):
            raise ValueError(f"worker_tier must be 'thread' or "
                             f"'process', got {worker_tier!r}")
        self.root = root
        self.default_timeout_s = default_timeout_s
        self.worker_tier = worker_tier
        # slow-query log: when a threshold is set, every query runs
        # traced (that is the opt-in cost) and offenders are appended
        # as JSONL — plan, explain, and the full trace
        self.slow_query_ms = slow_query_ms
        self.slow_query_log = slow_query_log
        self._slow_lock = threading.Lock()
        if worker_tier == "process":
            from repro.par import ProcessScheduler

            self.scheduler = ProcessScheduler(
                workers=workers, max_inflight=max_inflight,
                queue_depth=queue_depth, name="repro-serve")
        else:
            self.scheduler = MorselScheduler(
                workers=workers, max_inflight=max_inflight,
                queue_depth=queue_depth, name="repro-serve")
        self.cache = ChunkCache(cache_bytes)
        self._tables: dict[str, tuple[Table, StoreSource]] = {}
        self._tables_lock = threading.Lock()
        self._latencies = ReservoirQuantiles(LATENCY_WINDOW)
        # stats() reports the registry's growth since this read
        self._baseline = obs_metrics.default_registry().series(
            _STATS_FAMILIES)
        self._started = time.perf_counter()
        self._draining = threading.Event()
        self._conn_threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(128)
        self.address: tuple[str, int] = self._sock.getsockname()
        # optional HTTP GET /metrics endpoint (plain-text exposition of
        # the process-wide registry; scrapers never touch the wire
        # protocol).  Bound here so metrics_address is known immediately.
        self._metrics_httpd: http.server.ThreadingHTTPServer | None = None
        self.metrics_address: tuple[str, int] | None = None
        if metrics_port is not None:
            self._metrics_httpd = http.server.ThreadingHTTPServer(
                (host, metrics_port), _MetricsHandler)
            self._metrics_httpd.daemon_threads = True
            self.metrics_address = \
                self._metrics_httpd.server_address[:2]
            threading.Thread(
                target=self._metrics_httpd.serve_forever, daemon=True,
                name="repro-serve-metrics").start()

    # ------------------------------------------------------------- tables
    def table_names(self) -> list[str]:
        """Discover every servable table under ``root``: the
        directories holding at least one published generation."""
        if Table.versions(self.root):
            return [os.path.basename(os.path.abspath(self.root))]
        return sorted(
            name for name in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, name))
            and Table.versions(os.path.join(self.root, name)))

    def _resolve(self, name) -> tuple[Table, StoreSource]:
        if not isinstance(name, str) or not name or os.sep in name \
                or name in (".", ".."):
            raise ValueError(f"bad table name {name!r}")
        with self._tables_lock:
            entry = self._tables.get(name)
            if entry is not None:
                return entry
            known = self.table_names()
            if name not in known:
                raise ValueError(
                    f"unknown table {name!r}; available: "
                    f"{', '.join(known) or '(none)'}")
            path = self.root if os.path.basename(
                os.path.abspath(self.root)) == name and \
                not os.path.isdir(os.path.join(self.root, name)) \
                else os.path.join(self.root, name)
            table = Table.open(path, cache=self.cache)
            source = StoreSource(table)
            self._tables[name] = (table, source)
            return self._tables[name]

    # ------------------------------------------------------------ request
    def _handle_request(self, req: dict) -> list:
        """Answer one request; returns the reply as a ready-to-write
        frame, so an answer too big for one is an error like any
        other — raised here, before a byte of it is sent."""
        version = req.get("v")
        if version != wire.WIRE_VERSION:
            raise ValueError(
                f"unsupported request version {version!r} (this server "
                f"speaks {wire.WIRE_VERSION})")
        unknown = [field for field in req
                   if field not in wire.REQUEST_FIELDS]
        if unknown:
            raise ValueError(
                f"unknown request field(s) "
                f"{', '.join(map(repr, unknown))}; the server reads: "
                f"{', '.join(wire.REQUEST_FIELDS)}")
        op = req.get("op")
        if op not in wire.OPS:
            raise ValueError(f"unknown op {op!r}; supported: "
                             f"{', '.join(wire.OPS)}")
        if op == "ping":
            return _ok("pong")
        if op == "stats":
            return _ok(self.stats())
        if op == "metrics":
            return _ok(obs_metrics.render_text())
        if op == "list_tables":
            return _ok(self.table_names())
        # query / explain share the execution path; exact types, so
        # JSON's true (a Python bool, hence an int) is neither field
        timeout_s = req.get("timeout_s")
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        elif type(timeout_s) not in (int, float):
            raise ValueError(
                f"timeout_s must be a number, got {timeout_s!r}")
        limit = req.get("limit")
        if limit is not None and (type(limit) is not int or limit < 0):
            raise ValueError(
                f"limit must be an integer >= 0, got {limit!r}")
        table_name = req.get("table")
        _, source = self._resolve(table_name)
        plan = Plan.from_json(req.get("plan"))
        if limit is not None and op == "query" and \
                plan.terminal() is None and plan.row_limit is None:
            # the lanes gather only the rows the reply carries
            plan = plan.limit(limit)
        trace = Trace(op, table=table_name) \
            if self.slow_query_ms is not None else None
        t_query = time.perf_counter()
        try:
            res = plan.execute(source, scheduler=self.scheduler,
                               timeout_s=timeout_s, trace=trace)
        except ExecTimeout:
            # a timed-out query is by definition slow: log it with
            # whatever spans it managed to record
            self._maybe_log_slow(op, table_name, plan, trace,
                                 time.perf_counter() - t_query,
                                 result=None, timed_out=True)
            raise
        self._maybe_log_slow(op, table_name, plan, trace,
                             time.perf_counter() - t_query,
                             result=res, timed_out=False)
        return wire.result_frame(res, limit=limit,
                                 include_rows=(op == "query"))

    def _maybe_log_slow(self, op: str, table: str, plan: Plan, trace,
                        elapsed_s: float, result, timed_out: bool) -> None:
        """Count a query that took at least ``slow_query_ms`` and, when
        there is a slow-query log, append its record: only then is
        ``result`` (``None`` when the query timed out) rendered."""
        if self.slow_query_ms is None or \
                elapsed_s * 1e3 < self.slow_query_ms:
            return
        _M_SLOW_QUERIES.inc()
        if self.slow_query_log is None:
            return
        # which tier served it, and — from the trace's granule spans'
        # ``proc`` attribute — how the granules spread across lanes
        # (driver-run granules count under "driver"); ``pruned`` is what
        # the zone-map split kept from running (on the calling thread or
        # off the lanes), so the two together account for every granule
        # on any tier
        lanes: dict[str, int] = {}
        pruned = 0
        if trace is not None:
            for s in trace.spans:
                if s.name == "granule":
                    proc = str(s.attrs.get("proc", "driver"))
                    lanes[proc] = lanes.get(proc, 0) + 1
                elif s.name == "prune":
                    pruned += s.attrs["pruned"]
        record = {
            "ts": time.time(),
            "op": op,
            "table": table,
            "elapsed_ms": elapsed_s * 1e3,
            "timed_out": timed_out,
            "worker_tier": self.worker_tier,
            "lanes": lanes,
            "pruned": pruned,
            "plan": plan.to_json(),
            "explain": result.explain() if result is not None else None,
            "trace": trace.to_json() if trace is not None else None,
        }
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._slow_lock:
            with open(self.slow_query_log, "a", encoding="utf-8") as fh:
                fh.write(line)

    def _serve_one(self, req: dict) -> list:
        """One request in, one frame out (never an exception)."""
        start = time.perf_counter()
        op = req.get("op")
        if op not in wire.OPS:
            op = "invalid"
        status = "ok"
        try:
            frame = self._handle_request(req)
        except ServerBusy as err:
            status = "busy"
            frame = wire.json_frame(wire.error_response(err))
        except Exception as err:  # typed, one line, server stays up
            status = "error"
            frame = wire.json_frame(wire.error_response(err))
        elapsed = time.perf_counter() - start
        if status == "ok" and op in ("query", "explain"):
            self._latencies.observe(elapsed)
        _M_REQUEST_CHILD[op, status].inc()
        _M_REQUEST_SECONDS.observe(elapsed)
        return frame

    # -------------------------------------------------------------- stats
    def stats(self) -> dict:
        """The ``/stats`` report: load, latency, cache, scheduler.

        Every count is a view of the metrics registry — one read of
        its series, diffed against the one taken at construction — so
        it is what ``/metrics`` says, process-tree-wide (lane workers'
        cache traffic included), since this server started, and frozen
        while instrumentation is switched off.  Only occupancy,
        configuration and the sample-exact latency reservoir are this
        object's own state.
        """
        uptime = time.perf_counter() - self._started
        now = obs_metrics.default_registry().series(_STATS_FAMILIES)

        def since(family: str, **where) -> int:
            def total(read: dict) -> float:
                return sum(value for labels, value in read.get(family, ())
                           if where.items() <= labels.items())
            return int(max(0.0, total(now) - total(self._baseline)))

        ok = sum(since(_M_REQUESTS.name, op=op, status="ok")
                 for op in ("query", "explain"))
        hits = since("repro_cache_lookups_total", outcome="hit")
        misses = since("repro_cache_lookups_total", outcome="miss")
        p50, p90, p99 = self._latencies.quantiles(0.50, 0.90, 0.99)
        sched = self.scheduler.stats()
        if self.worker_tier == "process":
            sched["respawns"] = since("repro_par_respawns_total",
                                      sched=self.scheduler.name)
        return {
            "uptime_s": uptime,
            "queries_total": since(_M_REQUESTS.name),
            "queries_ok": ok,
            "queries_err": since(_M_REQUESTS.name, status="error"),
            "rejected_busy": since(_M_REQUESTS.name, status="busy"),
            "qps": ok / uptime if uptime else 0.0,
            "inflight": sched["inflight"],
            "queue_depth": sched["parked"],
            "latency_ms": {
                "p50": p50 * 1e3,
                "p90": p90 * 1e3,
                "p99": p99 * 1e3,
                # reservoir sample size + lifetime observation count —
                # O(1) memory no matter how long the server runs
                "window": len(self._latencies),
                "observed": self._latencies.count,
            },
            "cache": {
                **self.cache.stats(),
                "hits": hits,
                "misses": misses,
                "evictions": since("repro_cache_evictions_total"),
                "hit_rate": hits / (hits + misses)
                if hits + misses else 0.0,
            },
            "scheduler": sched,
            "tables": self.table_names(),
        }

    # ---------------------------------------------------------- lifecycle
    def start(self) -> "TableServer":
        """Accept connections on a background thread (in-process use)."""
        if self._accept_thread is not None:
            raise ValueError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-serve-accept")
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections on the calling thread (``__main__`` use)."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        self._sock.settimeout(0.25)
        while not self._draining.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us: shutting down
            thread = threading.Thread(
                target=self._connection, args=(conn,), daemon=True,
                name="repro-serve-conn")
            thread.start()
            self._conn_threads.append(thread)
            # reap finished handlers so the list stays bounded
            self._conn_threads = [t for t in self._conn_threads
                                  if t.is_alive()]

    def _connection(self, conn: socket.socket) -> None:
        # the timeout only wakes the read to look at the drain flag: a
        # pause between frames and a pause inside one are the same wait
        conn.settimeout(0.25)

        def keep_waiting() -> bool:
            return not self._draining.is_set()

        try:
            while True:
                try:
                    req = wire.recv_frame(conn, keep_waiting)
                except socket.timeout:
                    return  # idle or stalled at shutdown: drop it
                except wire.WireError:
                    # the byte stream is unusable — nothing sane to
                    # answer on it; drop the connection, keep serving
                    return
                if req is None:
                    return  # peer closed cleanly
                conn.settimeout(None)  # don't tear mid-response
                try:
                    wire.write_frame(conn, self._serve_one(req))
                except OSError:
                    return  # peer vanished mid-response
                conn.settimeout(0.25)
                if self._draining.is_set():
                    return  # response delivered; drain this connection
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful drain: finish in-flight requests, refuse new ones,
        then close every socket and the scheduler."""
        self._draining.set()
        if self._metrics_httpd is not None:
            self._metrics_httpd.shutdown()
            self._metrics_httpd.server_close()
            self._metrics_httpd = None
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
            self._accept_thread = None
        deadline = time.perf_counter() + timeout
        for thread in self._conn_threads:
            thread.join(timeout=max(deadline - time.perf_counter(), 0.1))
        self.scheduler.close(drain=True, timeout=timeout)
        with self._tables_lock:
            for table, _ in self._tables.values():
                table.close()
            self._tables.clear()

    def __enter__(self) -> "TableServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
