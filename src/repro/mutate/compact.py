"""Compaction: fold deletion vectors away by rewriting shards.

Deletion vectors make deletes cheap but leave dead rows on the scan
path — every query pays to mask them.  The compactor rewrites shards
whose **live fraction** dropped below a threshold: contiguous runs of
qualifying shards decode their surviving rows and re-encode through the
codec registry (per-chunk ``"auto"``, so the freshly-compacted value
distribution picks the smallest envelope again), fully-dead shards
simply leave the chain, and everything else carries over untouched.
The result is an ordinary generation commit — concurrent readers keep
their snapshots, time travel keeps the uncompacted history.

:class:`BackgroundCompactor` wraps the same logic in a daemon thread
that wakes periodically and compacts whenever flushed deletes have
pushed a shard below the threshold — compaction-under-load without the
writer having to think about it.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro import faults
from repro.faults import SimulatedCrash
from repro.mutate import manifest as chain
from repro.obs import metrics as obs_metrics
from repro.store.writer import TableWriter

#: rewrite shards whose live-row fraction falls below this
DEFAULT_THRESHOLD = 0.5

_M_PASSES = obs_metrics.counter(
    "repro_mutate_compact_passes_total",
    "compaction passes that committed a generation")
_M_SECONDS = obs_metrics.histogram(
    "repro_mutate_compact_seconds", "committed compaction pass duration")
_M_ROWS_RECLAIMED = obs_metrics.counter(
    "repro_mutate_compact_rows_reclaimed_total",
    "dead rows folded away by compaction")
_M_BYTES_RECLAIMED = obs_metrics.counter(
    "repro_mutate_compact_bytes_reclaimed_total",
    "shard-file bytes reclaimed by compaction")
_M_COMPACTOR_ERRORS = obs_metrics.counter(
    "repro_mutate_compactor_errors_total",
    "BackgroundCompactor passes that raised (surfaced via .errors)")
_M_COMPACTOR_CRASHES = obs_metrics.counter(
    "repro_mutate_compactor_crashes_total",
    "BackgroundCompactor threads killed by an injected crash")


def live_fractions(table) -> list[float]:
    """Per-shard fraction of rows the deletion vector leaves live."""
    out = []
    for shard in table.shards:
        n = shard.footer.n_rows
        dead = int(shard.deleted.sum()) if shard.deleted is not None else 0
        out.append((n - dead) / n if n else 1.0)
    return out


def _decode_live(table, shard_idx: int) -> dict[str, np.ndarray]:
    """One shard's surviving rows, fully decoded (compaction input)."""
    shard = table.shards[shard_idx]
    keep = ~shard.deleted
    columns = {}
    for name in table.column_names:
        parts = [table.revive_chunk(shard_idx, meta).decode_all()
                 for meta in shard.by_column[name]]
        values = parts[0] if len(parts) == 1 else np.concatenate(parts)
        columns[name] = np.asarray(values, dtype=np.int64)[keep]
    return columns


def compact_table(table, threshold: float = DEFAULT_THRESHOLD
                  ) -> int | None:
    """Rewrite ``table``'s low-liveness shards into a new generation.

    ``table`` is the *published* snapshot (pending mutations must be
    flushed first — :meth:`MutableTable.compact` does).  Returns the new
    generation, or ``None`` when every shard is above ``threshold``.
    Rewritten chunks always trial-encode with ``"auto"``.
    """
    fractions = live_fractions(table)
    qualify = [frac < threshold and table.shards[i].deleted is not None
               for i, frac in enumerate(fractions)]
    if not any(qualify):
        return None
    t_pass = time.perf_counter()
    rows_rewritten = sum(table.manifest.shards[i]["n_rows"]
                         for i, q in enumerate(qualify) if q)
    bytes_dropped = 0
    for i, q in enumerate(qualify):
        if q:
            try:
                bytes_dropped += os.path.getsize(table.shards[i].path)
            except OSError:
                pass
    rows_kept = 0
    bytes_written = 0
    generation = table.generation + 1
    entries: list[dict] = []
    rows_before = 0
    i = 0
    while i < len(table.shards):
        if not qualify[i]:
            entries.append(dict(table.manifest.shards[i]))
            rows_before += table.manifest.shards[i]["n_rows"]
            i += 1
            continue
        # a contiguous run of qualifying shards rewrites through one
        # writer, so undersized survivors also merge back together
        run = []
        while i < len(table.shards) and qualify[i]:
            run.append(i)
            i += 1
        live = [_decode_live(table, j) for j in run]
        live = [batch for batch in live
                if len(batch[table.column_names[0]])]
        if not live:
            continue  # the whole run was dead rows
        faults.fire("compact.rewrite", shards=tuple(run))
        writer = TableWriter(
            table.path, codec="auto",
            shard_rows=table.manifest.shard_rows,
            chunk_rows=table.manifest.chunk_rows,
            schema=table.column_names, publish_manifest=False,
            start_row=rows_before, generation=generation)
        try:
            for batch in live:
                writer.append(batch)
            writer.close()
        except SimulatedCrash:
            raise  # a dead process cleans nothing; reopen repairs
        except BaseException:
            writer.abort()
            raise
        entries.extend(writer.shard_entries)
        run_rows = sum(e["n_rows"] for e in writer.shard_entries)
        rows_before += run_rows
        rows_kept += run_rows
        for e in writer.shard_entries:
            try:
                bytes_written += os.path.getsize(
                    os.path.join(table.path, e["file"]))
            except OSError:
                pass
    faults.fire("compact.commit", generation=generation)
    chain.commit(table.path, table.manifest, entries, generation)
    _M_PASSES.inc()
    _M_SECONDS.observe(time.perf_counter() - t_pass)
    _M_ROWS_RECLAIMED.inc(max(rows_rewritten - rows_kept, 0))
    _M_BYTES_RECLAIMED.inc(max(bytes_dropped - bytes_written, 0))
    return generation


class BackgroundCompactor:
    """Daemon thread compacting a :class:`MutableTable` under load.

    Wakes every ``interval_s`` seconds (and immediately on
    :meth:`trigger`), compacts when any published shard's live fraction
    is below ``threshold``, and records every pass in :attr:`history`.
    Start/stop it explicitly or use it as a context manager.
    """

    def __init__(self, table, threshold: float = DEFAULT_THRESHOLD,
                 interval_s: float = 0.5):
        self.table = table
        self.threshold = threshold
        self.interval_s = interval_s
        self.history: list[int] = []  # generations committed
        self.errors: list[Exception] = []
        self.crashed: SimulatedCrash | None = None  # fault-injected death
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "BackgroundCompactor":
        if self._thread is not None:
            raise ValueError("compactor already started")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-mutate-compactor")
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.interval_s)
            self._wake.clear()
            if self._stop.is_set():
                break
            try:
                generation = self.table.compact(self.threshold)
            except SimulatedCrash as crash:
                # the injected crash kills THIS thread, like a process
                # dying mid-compaction: no cleanup, no retry — recovery
                # happens on the next open, never here
                self.crashed = crash
                _M_COMPACTOR_CRASHES.inc()
                self._stop.set()
                return
            except Exception as exc:  # surfaced via .errors, not lost
                self.errors.append(exc)
                _M_COMPACTOR_ERRORS.inc()
            else:
                if generation is not None:
                    self.history.append(generation)

    def trigger(self) -> None:
        """Wake the thread now (e.g. right after a delete-heavy flush)."""
        self._wake.set()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "BackgroundCompactor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
