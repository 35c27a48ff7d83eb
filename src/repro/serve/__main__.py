"""``python -m repro.serve --root DIR`` — run a table server.

Prints ``listening on HOST:PORT`` once the socket is bound (port 0
picks a free port — scripts parse this line), serves until SIGINT or
SIGTERM, then drains gracefully: in-flight requests finish, new ones
are refused, exit status 0.  ``--worker-tier process`` workers start
by ``REPRO_PAR_START_METHOD`` (``fork`` where available, else
``spawn``).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from repro.serve.server import DEFAULT_TIMEOUT_S, TableServer
from repro.store.cache import DEFAULT_CAPACITY_BYTES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the store tables under --root to concurrent "
                    "socket clients (length-prefixed JSON protocol).")
    parser.add_argument("--root", required=True,
                        help="directory holding table directories "
                             "(or itself a table)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (printed on stdout)")
    parser.add_argument("--workers", type=int, default=None,
                        help="scheduler worker threads (default: auto)")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="concurrent queries admitted at once")
    parser.add_argument("--queue-depth", type=int, default=16,
                        help="queries parked beyond that before "
                             "ServerBusy rejections")
    parser.add_argument("--cache-mb", type=float,
                        default=DEFAULT_CAPACITY_BYTES / (1 << 20),
                        help="shared chunk-cache budget in MiB")
    parser.add_argument("--timeout-s", type=float,
                        default=DEFAULT_TIMEOUT_S,
                        help="default per-request deadline")
    parser.add_argument("--worker-tier", choices=("thread", "process"),
                        default="thread",
                        help="where granules execute: 'thread' (one "
                             "GIL) or 'process' (N worker processes, "
                             "true multi-core decode; "
                             "REPRO_PAR_START_METHOD picks how they "
                             "start, fork where available)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        help="also serve HTTP GET /metrics on this "
                             "port (0 picks a free port)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="trace every query and record ones "
                             "slower than this to the slow-query log")
    parser.add_argument("--slow-query-log", default=None,
                        help="JSONL file for slow queries (plan + "
                             "explain + trace; requires "
                             "--slow-query-ms)")
    args = parser.parse_args(argv)

    server = TableServer(
        args.root, host=args.host, port=args.port, workers=args.workers,
        max_inflight=args.max_inflight, queue_depth=args.queue_depth,
        cache_bytes=int(args.cache_mb * (1 << 20)),
        default_timeout_s=args.timeout_s,
        worker_tier=args.worker_tier,
        metrics_port=args.metrics_port,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log)
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    if server.metrics_address is not None:
        mhost, mport = server.metrics_address
        print(f"metrics on http://{mhost}:{mport}/metrics", flush=True)
    print(f"tables: {', '.join(server.table_names()) or '(none)'}",
          flush=True)

    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    server.start()
    stop.wait()
    print("draining...", flush=True)
    server.shutdown()
    print("bye", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
