"""Mutation-layer benchmark: churn ingestion, DV scans, compaction.

Drives the ``repro.mutate`` subsystem through the churn fixture — a
base telemetry table plus a stream of appends, range/targeted deletes,
and update-by-key status flips — and measures the three costs that
matter for a mutable store:

* **write path** — rows/s through WAL + memtable, and flush wall time
  (encode + deletion-vector sidecars + manifest commit);
* **read-under-churn** — the same selective and full scans on the
  delete-heavy snapshot (deletion vectors masking dead rows) vs after
  compaction folded the vectors away;
* **compaction** — wall time, physical rows and stored bytes reclaimed.

Writes a ``BENCH_mutable.json`` trajectory with pass/fail checks (the
DV scan equals the post-compaction scan and a plain-numpy reference;
compaction shrinks physical rows and stored bytes; reopening after an
unflushed tail loses nothing)::

    python benchmarks/bench_mutate.py [--quick] [--json PATH] [--dir D]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.datasets import apply_churn_op, churn_fixture
from repro.mutate import MutableTable, live_fractions
from repro.store import Table

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

FULL_N = 200_000
QUICK_N = 40_000
FULL_OPS = 120
QUICK_OPS = 40
#: flush after this many churn ops (commit cadence under load)
FLUSH_EVERY = 10


def _scan_entry(result, wall_s: float) -> dict:
    stats = result.stats
    return {
        "wall_ms": wall_s * 1e3,
        "rows_out": result.n_rows,
        "rows_masked": stats.rows_masked,
        "chunks_pruned": stats.granules_pruned,
        "chunks_scanned": stats.chunks_scanned,
        "bytes_read": stats.bytes_read,
    }


def _measure(fn, repeats: int = 3):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run(directory: str, n: int, n_ops: int) -> dict:
    base, ops = churn_fixture(n, n_ops=n_ops, seed=0)

    # ---------------------------------------------------------- write path
    table = MutableTable.create(directory, schema=tuple(base),
                                shard_rows=max(n // 8, 1024),
                                chunk_rows=2048)
    start = time.perf_counter()
    table.append(base)
    append_s = time.perf_counter() - start
    start = time.perf_counter()
    table.flush()
    base_flush_s = time.perf_counter() - start

    touched = 0
    flush_s = 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        touched += apply_churn_op(table, op)
        if (i + 1) % FLUSH_EVERY == 0:
            t0 = time.perf_counter()
            table.flush()
            flush_s += time.perf_counter() - t0
    churn_s = time.perf_counter() - start

    # leave a WAL tail unflushed, prove reopen replays it, then commit
    rng = np.random.default_rng(1)
    tail_ts = int(table.scan(columns=["ts"]).columns["ts"].max()) + 1
    table.append({"ts": tail_ts + np.arange(500),
                  "sensor_id": rng.integers(0, 64, 500),
                  "reading": rng.integers(800, 1200, 500),
                  "status": np.zeros(500, dtype=np.int64)})
    table.delete(("sensor_id", 63, 64))
    tail_rows = table.pending_rows
    live_before = table.scan().columns["ts"]
    table.close()
    table = MutableTable.open(directory)
    recovered = np.array_equal(table.scan().columns["ts"], live_before)
    table.flush()

    write = {
        "base_rows": n,
        "base_append_rows_per_s": n / max(append_s, 1e-9),
        "base_flush_ms": base_flush_s * 1e3,
        "churn_ops": n_ops,
        "churn_rows_touched": touched,
        "churn_wall_ms": churn_s * 1e3,
        "churn_flush_ms": flush_s * 1e3,
        "wal_tail_rows_recovered": tail_rows,
    }

    # ------------------------------------------------- scans under deletes
    with table.snapshot() as snap:
        reference = dict(snap.scan().columns)
        dv_stats = {
            "generation": snap.generation,
            "physical_rows": snap.n_rows,
            "live_rows": snap.live_rows,
            "stored_bytes": snap.stored_bytes(),
            "min_shard_live_fraction": min(live_fractions(snap)),
        }
    # scan order is not ts order (updates move rows to the tail): pick a
    # ~0.5%-of-rows window from the sorted value domain instead
    ts = reference["ts"]
    ts_sorted = np.sort(ts)
    mid = len(ts_sorted) // 2
    lo = int(ts_sorted[mid])
    hi = max(int(ts_sorted[min(mid + max(len(ts_sorted) // 200, 1),
                               len(ts_sorted) - 1)]), lo + 1)

    def scans():
        with Table.open(directory, cache_bytes=0) as snap:
            t_full, full = _measure(lambda: snap.scan())
            t_sel, sel = _measure(
                lambda: snap.scan(columns=["sensor_id", "reading"],
                                  where=(("ts"), lo, hi)))
        return {"full": _scan_entry(full, t_full),
                "selective": _scan_entry(sel, t_sel)}, full, sel

    with_dv, full_dv, sel_dv = scans()

    # ------------------------------------------------------------ compact
    start = time.perf_counter()
    # threshold 1.0 = rewrite every shard carrying a deletion vector, so
    # the post-compaction scans measure a fully-folded table
    compacted_gen = table.compact(threshold=1.0)
    compact_s = time.perf_counter() - start
    with table.snapshot() as snap:
        compact_stats = {
            "generation": snap.generation,
            "wall_ms": compact_s * 1e3,
            "physical_rows": snap.n_rows,
            "live_rows": snap.live_rows,
            "stored_bytes": snap.stored_bytes(),
        }
    post, full_post, sel_post = scans()
    versions = table.versions()
    table.close()

    # ------------------------------------------------------------- checks
    sel_mask = (ts >= lo) & (ts < hi)
    checks = {
        "wal_tail_recovered_on_reopen": bool(recovered
                                             and tail_rows > 0),
        "dv_scan_matches_reference": bool(
            np.array_equal(full_dv.columns["ts"], ts)
            and np.array_equal(sel_dv.columns["reading"],
                               reference["reading"][sel_mask])),
        "post_compaction_scan_identical": bool(
            np.array_equal(full_post.columns["ts"],
                           full_dv.columns["ts"])
            and np.array_equal(sel_post.columns["reading"],
                               sel_dv.columns["reading"])),
        "compaction_shrinks_physical_rows": bool(
            compacted_gen is not None
            and compact_stats["physical_rows"]
            < dv_stats["physical_rows"]),
        "compaction_reclaims_bytes": bool(
            compact_stats["stored_bytes"] < dv_stats["stored_bytes"]),
        "post_compaction_masks_nothing": bool(
            post["full"]["rows_masked"] == 0),
        "every_version_still_opens": all(
            Table.open(directory, version=g).close() or True
            for g in versions),
    }

    rows = [
        ["with deletion vectors", "full", f"{with_dv['full']['wall_ms']:.2f}",
         f"{with_dv['full']['rows_out']}",
         f"{with_dv['full']['rows_masked']}",
         f"{with_dv['full']['bytes_read']}"],
        ["", "selective", f"{with_dv['selective']['wall_ms']:.2f}",
         f"{with_dv['selective']['rows_out']}",
         f"{with_dv['selective']['rows_masked']}",
         f"{with_dv['selective']['bytes_read']}"],
        ["post-compaction", "full", f"{post['full']['wall_ms']:.2f}",
         f"{post['full']['rows_out']}",
         f"{post['full']['rows_masked']}",
         f"{post['full']['bytes_read']}"],
        ["", "selective", f"{post['selective']['wall_ms']:.2f}",
         f"{post['selective']['rows_out']}",
         f"{post['selective']['rows_masked']}",
         f"{post['selective']['bytes_read']}"],
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    emit(f"write path: base {n} rows at "
         f"{write['base_append_rows_per_s'] / 1e6:.1f}M rows/s, "
         f"{n_ops} churn ops touched {touched} rows in "
         f"{churn_s * 1e3:.0f} ms (+{flush_s * 1e3:.0f} ms flushing)")
    emit(f"snapshot: {dv_stats['live_rows']} live / "
         f"{dv_stats['physical_rows']} physical rows, min shard "
         f"liveness {dv_stats['min_shard_live_fraction']:.0%}")
    emit(f"compaction: -> gen {compact_stats['generation']} in "
         f"{compact_s * 1e3:.0f} ms, physical "
         f"{dv_stats['physical_rows']} -> "
         f"{compact_stats['physical_rows']} rows, "
         f"{dv_stats['stored_bytes']} -> "
         f"{compact_stats['stored_bytes']} B; "
         f"{len(versions)} versions openable")
    for r in rows:
        emit("  ".join(f"{c:>{w}}" for c, w in zip(r, widths)))
    emit("checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))

    return {
        "n": n, "n_ops": n_ops, "write": write,
        "snapshot_with_dv": dv_stats, "scans_with_dv": with_dv,
        "compaction": compact_stats, "scans_post_compaction": post,
        "versions": versions, "checks": checks,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default="BENCH_mutable.json")
    parser.add_argument("--dir", default=None,
                        help="table directory (default: a temp dir)")
    args = parser.parse_args(argv)
    n = QUICK_N if args.quick else FULL_N
    n_ops = QUICK_OPS if args.quick else FULL_OPS
    emit(headline(
        "Mutable table benchmark",
        f"churn fixture, base n={n}, {n_ops} append/delete/update ops, "
        "scan with deletion vectors vs post-compaction"))
    directory = args.dir or tempfile.mkdtemp(prefix="repro_mutate_bench_")
    directory = f"{directory}/table"
    try:
        payload = run(directory, n, n_ops)
    finally:
        if args.dir is None:
            shutil.rmtree(directory.rsplit("/", 1)[0],
                          ignore_errors=True)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
    emit(f"\nwrote {args.json}")
    failed = [name for name, ok in payload["checks"].items() if not ok]
    if failed:  # the CI smoke step must go red, not just record it
        raise SystemExit(f"mutate bench checks failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
