"""CLI: ``python -m repro.obs render trace.json`` / ``... top URL``.

``render`` pretty-prints a trace file — either a plain
:meth:`Trace.to_json` payload or a slow-query-log JSONL line (it picks
the ``trace`` field out of log records automatically, along with the
record's ``worker_tier`` and per-lane granule counts).  ``--chrome``
re-emits the Chrome ``trace_event`` JSON instead, for chrome://tracing.

``top`` is the live view: it diffs two ``/metrics`` scrapes into QPS,
latency quantiles, cache hit rate, and per-lane worker activity — from
a running server (``top http://host:port/metrics``) or from a saved
snapshot pair (``top --snapshots before.txt after.txt --dt 5``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.trace import Trace, dump_chrome, render_trace


def _load_payloads(path: str) -> list[dict]:
    """Trace payloads from ``path``: a single JSON document, or JSONL
    where each line is a trace or a slow-query record wrapping one."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        docs = [json.loads(text)]
    except json.JSONDecodeError:
        docs = [json.loads(line) for line in text.splitlines()
                if line.strip()]
    payloads = []
    for doc in docs:
        if "spans" in doc:
            payloads.append(doc)
        elif isinstance(doc.get("trace"), dict):  # slow-query record
            payload = doc["trace"]
            payload.setdefault("attrs", {})
            for key in ("table", "op", "elapsed_ms", "worker_tier",
                        "pruned"):
                if key in doc:
                    payload["attrs"].setdefault(key, doc[key])
            lanes = doc.get("lanes")
            if isinstance(lanes, dict) and lanes:
                payload["attrs"].setdefault(
                    "lanes", " ".join(f"{proc}:{count:.0f}"
                                      for proc, count
                                      in sorted(lanes.items())))
            payloads.append(payload)
        else:
            raise SystemExit(f"{path}: no trace found in record "
                             f"with keys {sorted(doc)}")
    return payloads


def _cmd_render(args: argparse.Namespace) -> int:
    for payload in _load_payloads(args.path):
        if args.chrome:
            print(dump_chrome(Trace.from_json(payload)))
        else:
            print(render_trace(payload, width=args.width))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import top as obs_top
    from repro.obs.metrics import parse_text

    if args.snapshots:
        before_path, after_path = args.snapshots
        scrapes = []
        for path in (before_path, after_path):
            with open(path, "r", encoding="utf-8") as fh:
                scrapes.append(parse_text(fh.read()))
        view = obs_top.compute_view(scrapes[0], scrapes[1], args.dt)
        print(obs_top.format_view(view))
        return 0
    if not args.url:
        raise SystemExit("top: give a /metrics URL or --snapshots")
    try:
        return obs_top.run_top(args.url, interval=args.interval,
                               iterations=args.iterations)
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability utilities")
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser(
        "render", help="pretty-print a trace JSON / slow-query JSONL file")
    render.add_argument("path", help="trace .json or slow-query .jsonl")
    render.add_argument("--width", type=int, default=72,
                        help="gantt bar width in characters")
    render.add_argument("--chrome", action="store_true",
                        help="emit Chrome trace_event JSON instead")
    render.set_defaults(fn=_cmd_render)

    top = sub.add_parser(
        "top", help="live rates view computed from /metrics scrapes")
    top.add_argument("url", nargs="?",
                     help="metrics endpoint, e.g. "
                          "http://127.0.0.1:9100/metrics")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between scrapes (live mode)")
    top.add_argument("--iterations", type=int, default=0,
                     help="frames to print before exiting (0 = forever)")
    top.add_argument("--snapshots", nargs=2,
                     metavar=("BEFORE", "AFTER"),
                     help="diff two saved exposition files instead of "
                          "scraping a server")
    top.add_argument("--dt", type=float, default=1.0,
                     help="seconds between the snapshot files "
                          "(--snapshots mode)")
    top.set_defaults(fn=_cmd_top)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
