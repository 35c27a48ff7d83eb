"""Command-line interface of the store: ``python -m repro.store``.

Read-side subcommands::

    python -m repro.store ingest --out DIR --fixture sensors --rows 100000
    python -m repro.store info DIR [--chunks]
    python -m repro.store scan DIR --columns id,val --where ts:1000:2000

and the mutation layer (:mod:`repro.mutate`)::

    python -m repro.store append DIR --fixture sensors --rows 10000
    python -m repro.store delete DIR --where ts:1000:2000
    python -m repro.store compact DIR [--threshold 0.5]
    python -m repro.store versions DIR
    python -m repro.store scrub DIR [--version G] [--json]

``ingest`` materialises one of the named dataset fixtures (any table from
``repro.datasets.load_table`` or the ``sensors`` stream) into a table
directory; ``scan`` runs :meth:`Table.scan` — a :class:`repro.exec.Plan`
on the unified execution layer, morsel-parallel with pruning +
pushdown — and prints the work accounting next to the first result
rows (pass ``--explain`` for the annotated plan).  ``append``/``delete``
log through the WAL and flush a new generation (``--no-flush`` leaves
the mutation buffered for a later commit); ``versions`` lists every
published generation a reader can time-travel to (``scan --version G``).  Unknown projection or predicate
columns exit with a clean one-line error naming the available columns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.exec import ExecTimeout
from repro.store.table import Table
from repro.store.writer import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_SHARD_ROWS,
    TableWriter,
)


def _cmd_ingest(args) -> int:
    from repro.datasets.store_fixtures import ingest_fixture

    columns = ingest_fixture(args.fixture, n=args.rows, seed=args.seed)
    start = time.perf_counter()
    with TableWriter(args.out, codec=args.codec,
                     shard_rows=args.shard_rows,
                     chunk_rows=args.chunk_rows,
                     overwrite=args.overwrite) as writer:
        writer.append(columns)
    elapsed = time.perf_counter() - start
    with Table.open(args.out) as table:
        info = table.info()
    raw = sum(col.nbytes for col in columns.values())
    print(f"ingested {info['n_rows']} rows x "
          f"{len(info['columns'])} columns -> {args.out}")
    print(f"  shards: {info['n_shards']}  stored: {info['stored_bytes']} B "
          f"({info['stored_bytes'] / max(raw, 1):.1%} of raw)  "
          f"codecs: {info['chunk_codec_mix']}  {elapsed:.2f}s")
    return 0


def _cmd_info(args) -> int:
    with Table.open(args.table) as table:
        print(json.dumps(table.info(), indent=2))
        if args.chunks:
            for idx, shard in enumerate(table.shards):
                print(f"shard {idx} ({shard.path}): "
                      f"rows [{shard.row_start}, "
                      f"{shard.row_start + shard.footer.n_rows})")
                for c in shard.footer.chunks:
                    print(f"  {c.column:>16} rows {c.row_start:>8}+"
                          f"{c.n_rows:<7} {c.codec:>6} {c.nbytes:>8} B  "
                          f"zone [{c.zmin}, {c.zmax}] ({c.bounds})")
    return 0


def _parse_where(text: str) -> tuple[str, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"--where wants column:lo:hi, got {text!r}")
    return parts[0], int(parts[1]), int(parts[2])


def _cmd_append(args) -> int:
    from repro.datasets.store_fixtures import ingest_fixture
    from repro.mutate import MutableTable

    columns = ingest_fixture(args.fixture, n=args.rows, seed=args.seed)
    with MutableTable.open(args.table) as table:
        appended = table.append(columns)
        print(f"appended {appended} rows "
              f"({table.pending_rows} buffered in the memtable)")
        if not args.no_flush:
            generation = table.flush()
            print(f"flushed: generation {generation}, "
                  f"{table.n_rows} live rows")
    return 0


def _cmd_delete(args) -> int:
    from repro.mutate import MutableTable

    with MutableTable.open(args.table) as table:
        column, lo, hi = args.where
        if column not in table.schema:
            print(f"error: unknown predicate column {column!r}; "
                  f"available: {', '.join(table.schema)}",
                  file=sys.stderr)
            return 2
        deleted = table.delete((column, lo, hi))
        print(f"deleted {deleted} rows "
              f"({table.pending_deletes} pending against the snapshot)")
        if not args.no_flush:
            generation = table.flush()
            print(f"flushed: generation {generation}, "
                  f"{table.n_rows} live rows")
    return 0


def _cmd_compact(args) -> int:
    from repro.mutate import MutableTable, live_fractions

    with MutableTable.open(args.table) as table:
        with table.snapshot() as snap:
            before = snap.info()
        generation = table.compact(threshold=args.threshold)
        if generation is None:
            print(f"nothing to compact: every shard is above "
                  f"{args.threshold:.0%} live")
            return 0
        with table.snapshot() as snap:
            after = snap.info()
            fractions = live_fractions(snap)
        print(f"compacted -> generation {generation}: "
              f"{before['n_rows']} physical rows -> {after['n_rows']} "
              f"({after['live_rows']} live), "
              f"{before['stored_bytes']} B -> {after['stored_bytes']} B")
        print("  shard live fractions: "
              + ", ".join(f"{f:.0%}" for f in fractions))
    return 0


def _cmd_versions(args) -> int:
    versions = Table.versions(args.table)
    for generation in versions:
        with Table.open(args.table, version=generation) as table:
            mark = "*" if generation == versions[-1] else " "
            print(f"{mark} generation {generation:>4}: "
                  f"{table.live_rows:>10} live / {table.n_rows:>10} "
                  f"physical rows, {len(table.shards):>3} shards, "
                  f"{table.stored_bytes():>10} B")
    return 0


def _cmd_scrub(args) -> int:
    from dataclasses import asdict

    from repro.store.scrub import scrub_table

    try:
        report = scrub_table(args.table, version=args.version)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = asdict(report)
        # asdict only walks dataclass fields; surface the derived
        # totals CI log-diffs watch for regressions
        payload["ok"] = report.ok
        payload["bytes_walked"] = report.bytes_walked
        payload["elapsed_s"] = report.elapsed_s
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_scan(args) -> int:
    with Table.open(args.table, version=args.version) as table:
        columns = args.columns.split(",") if args.columns else None
        # validate names here so a typo is one clean line, while
        # unexpected internal errors keep their tracebacks
        requested = list(columns or [])
        if args.where is not None:
            requested.append(args.where[0])
        unknown = [c for c in requested if c not in table.column_names]
        if unknown:
            print("error: unknown column(s) "
                  + ", ".join(repr(c) for c in unknown)
                  + f"; available: {', '.join(table.column_names)}",
                  file=sys.stderr)
            return 2
        try:
            result = table.scan(columns=columns, where=args.where,
                                prune=not args.no_prune,
                                timeout_s=args.timeout_s)
        except ExecTimeout as exc:
            stats = exc.stats
            print(f"error: {exc}", file=sys.stderr)
            if stats is not None:
                print(f"  partial work before the deadline: "
                      f"{stats.chunks_scanned} chunks scanned, "
                      f"{stats.granules_pruned} pruned, "
                      f"{stats.bytes_read} bytes read in "
                      f"{stats.wall_s * 1e3:.1f} ms", file=sys.stderr)
            return 1
        stats = result.stats
        rate = result.n_rows / max(stats.wall_s, 1e-9)
        print(f"{result.n_rows} rows in {stats.wall_s * 1e3:.1f} ms "
              f"({rate:,.0f} rows/s, {stats.rows_masked} deleted rows "
              "masked)")
        print(f"  chunks: {stats.granules_pruned} pruned / "
              f"{stats.chunks_scanned} scanned  "
              f"bytes read: {stats.bytes_read}  "
              f"(scanned: {stats.bytes_scanned}, cache: "
              f"{stats.cache_hits} hits, {stats.cache_misses} misses, "
              f"{stats.cache_evictions} evicted)")
        if args.explain:
            print(result.explain())
        names = list(result.columns)
        head = min(args.limit, result.n_rows)
        if head:
            print("  row_id  " + "  ".join(f"{n:>12}" for n in names))
            for i in range(head):
                cells = "  ".join(f"{int(result.columns[n][i]):>12}"
                                  for n in names)
                print(f"  {int(result.row_ids[i]):>6}  {cells}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="persistent sharded columnar table store")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="materialise a dataset fixture")
    ingest.add_argument("--out", required=True, help="table directory")
    ingest.add_argument("--fixture", default="sensors",
                        help="fixture name (sensors or a datasets table)")
    ingest.add_argument("--rows", type=int, default=100_000)
    ingest.add_argument("--codec", default="auto")
    ingest.add_argument("--shard-rows", type=int,
                        default=DEFAULT_SHARD_ROWS)
    ingest.add_argument("--chunk-rows", type=int,
                        default=DEFAULT_CHUNK_ROWS)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--overwrite", action="store_true")
    ingest.set_defaults(func=_cmd_ingest)

    info = sub.add_parser("info", help="print the table catalog")
    info.add_argument("table", help="table directory")
    info.add_argument("--chunks", action="store_true",
                      help="list every chunk with its zone map")
    info.set_defaults(func=_cmd_info)

    scan = sub.add_parser("scan", help="run a pruned parallel scan")
    scan.add_argument("table", help="table directory")
    scan.add_argument("--columns", default=None,
                      help="comma-separated projection (default: all)")
    scan.add_argument("--where", type=_parse_where, default=None,
                      metavar="COL:LO:HI",
                      help="range predicate lo <= col < hi")
    scan.add_argument("--version", type=int, default=None,
                      help="time-travel to a published generation")
    scan.add_argument("--timeout-s", type=float, default=None,
                      help="cancel the scan after this many seconds "
                           "(prints partial stats, exits 1)")
    scan.add_argument("--no-prune", action="store_true",
                      help="disable zone-map pruning (baseline)")
    scan.add_argument("--explain", action="store_true",
                      help="print the executed plan with pruning counts")
    scan.add_argument("--limit", type=int, default=5,
                      help="result rows to print")
    scan.set_defaults(func=_cmd_scan)

    append = sub.add_parser(
        "append", help="append fixture rows through the mutation layer")
    append.add_argument("table", help="table directory")
    append.add_argument("--fixture", default="sensors")
    append.add_argument("--rows", type=int, default=10_000)
    append.add_argument("--seed", type=int, default=0)
    append.add_argument("--no-flush", action="store_true",
                        help="leave the batch buffered (WAL + memtable)")
    append.set_defaults(func=_cmd_append)

    delete = sub.add_parser(
        "delete", help="delete rows matching a range predicate")
    delete.add_argument("table", help="table directory")
    delete.add_argument("--where", type=_parse_where, required=True,
                        metavar="COL:LO:HI",
                        help="delete rows with lo <= col < hi")
    delete.add_argument("--no-flush", action="store_true",
                        help="leave the deletes pending (WAL + memtable)")
    delete.set_defaults(func=_cmd_delete)

    compact = sub.add_parser(
        "compact", help="rewrite shards below a live-row threshold")
    compact.add_argument("table", help="table directory")
    compact.add_argument("--threshold", type=float, default=0.5,
                         help="rewrite shards below this live fraction")
    compact.set_defaults(func=_cmd_compact)

    versions = sub.add_parser(
        "versions", help="list published (time-travelable) generations")
    versions.add_argument("table", help="table directory")
    versions.set_defaults(func=_cmd_versions)

    scrub = sub.add_parser(
        "scrub",
        help="verify every checksum and zone-map invariant, per shard")
    scrub.add_argument("table", help="table directory")
    scrub.add_argument("--version", type=int, default=None,
                       help="scrub a pinned published generation")
    scrub.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    scrub.set_defaults(func=_cmd_scrub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
