"""``MutableTable`` — the write path over the persistent columnar store.

The LSM-flavoured lifecycle::

    append/update/delete ──▶ WAL (durability) ──▶ memtable (visibility)
                                                     │ flush()
                                                     ▼
                    shards (TableWriter) + deletion-vector sidecars
                                                     │ commit
                                                     ▼
                  _table.<gen>.json  +  CURRENT swap (snapshot point)

* **Reads are snapshot-isolated**: :meth:`scan` runs any exec-layer plan
  over the published snapshot chained with the memtable tail
  (read-your-writes); plain :class:`repro.store.Table` readers — even in
  other processes — pin whatever generation ``CURRENT`` named when they
  opened and never see a torn table.  ``Table.open(path, version=g)``
  time-travels to any published generation.
* **Deletes are deletion vectors**: flushed deletes become per-shard
  bitmap sidecars the executor applies as a positional ``Bitmap`` filter
  term — no rewrite of the shard, no new operator, and ``explain()``
  reports the masked rows.
* **Updates are delete + re-append**: the matched rows move to the tail
  with the new values (their columns re-encode at next flush).
* **Compaction** (:meth:`compact`, or the background thread in
  :mod:`repro.mutate.compact`) folds deletion vectors away by rewriting
  low-liveness shards through the codec registry.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.exec import ArraySource, ChainSource, Plan, Range
from repro.obs import metrics as obs_metrics
from repro.exec.expr import Expr
from repro.faults import SimulatedCrash
from repro.mutate import manifest as chain
from repro.mutate.memtable import MemTable, validate_batch
from repro.mutate.wal import (
    WriteAheadLog,
    recover_with_report,
    wal_file_name,
)
from repro.store.executor import StoreSource
from repro.store.table import Table
from repro.store.writer import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_SHARD_ROWS,
    TableWriter,
)


_M_FLUSH_SECONDS = obs_metrics.histogram(
    "repro_mutate_flush_seconds", "memtable flush duration")
_M_FLUSH_ROWS = obs_metrics.counter(
    "repro_mutate_flush_rows_total", "memtable rows published by flushes")


def _as_expr(where) -> Expr:
    """Accept an Expr or the legacy ``(column, lo, hi)`` range tuple."""
    if isinstance(where, Expr):
        return where
    if isinstance(where, tuple) and len(where) == 3:
        column, lo, hi = where
        return Range(column, int(lo), int(hi))
    raise TypeError(
        f"predicate must be an Expr or a (column, lo, hi) tuple, "
        f"got {where!r}")


class MutableTable:
    """One writer's handle on a mutable table directory.

    Use :meth:`create` for a new, empty table or :meth:`open` on an
    existing one — anything :class:`~repro.store.TableWriter` published
    included.  One ``MutableTable`` per directory — writes are
    serialised through an internal lock, readers are unlimited.
    """

    def __init__(self, path: str, codec="auto", sync: bool = False):
        self.path = path
        self._lock = threading.RLock()
        generation = chain.adopt(path)
        chain.clean_orphans(path, generation)
        self._base = Table.open(path)
        self._base_source = StoreSource(self._base)
        self._retired: list[Table] = []  # superseded snapshots readers
        #                                  may still be scanning
        self._codec = codec if codec is not None \
            else self._manifest_codec()
        self._memtable = MemTable(self._base.column_names,
                                  self._base.n_rows)
        wal_path = os.path.join(path, wal_file_name(generation))
        records, self.last_recovery = recover_with_report(wal_path)
        self._wal = WriteAheadLog(wal_path, sync=sync)
        self._closed = False
        # replay = re-run the acknowledged operations on the snapshot
        # they were logged against; same code paths, no re-logging
        for record in records:
            if record[0] == "append":
                self._apply_append(validate_batch(self.schema, record[1]))
            elif record[0] == "update":
                self._apply_update(record[1], record[2], record[3])
            else:
                self._apply_delete(record[1])

    # ------------------------------------------------------------ factory
    @classmethod
    def create(cls, path: str, schema, codec="auto",
               shard_rows: int = DEFAULT_SHARD_ROWS,
               chunk_rows: int = DEFAULT_CHUNK_ROWS,
               sync: bool = False) -> "MutableTable":
        """Initialise an empty mutable table (generation 0, no shards)."""
        schema = TableWriter._validate_schema(schema, codec)
        if schema is None:
            raise ValueError("create() needs an explicit schema")
        os.makedirs(path, exist_ok=True)
        if Table.versions(path):
            raise ValueError(
                f"{path!r} already holds a store table (open it with "
                "MutableTable.open)")
        from repro.codecs.spec import CodecSpec
        from repro.store.format import Manifest

        def label(spec) -> str:
            return spec.codec if isinstance(spec, CodecSpec) else str(spec)

        labels = {name: label(codec[name] if isinstance(codec, dict)
                              else codec) for name in schema}
        chain.commit(path, Manifest(
            columns=schema, n_rows=0, shard_rows=shard_rows,
            chunk_rows=chunk_rows, codecs=labels), [], 0)
        return cls(path, codec=codec, sync=sync)

    @classmethod
    def open(cls, path: str, codec=None,
             sync: bool = False) -> "MutableTable":
        """Open an existing table for mutation."""
        return cls(path, codec=codec, sync=sync)

    def _manifest_codec(self):
        labels = dict(self._base.manifest.codecs)
        if not labels:
            return "auto"
        if len(set(labels.values())) == 1:
            return next(iter(labels.values()))
        return labels

    # ------------------------------------------------------------ catalog
    @property
    def schema(self) -> tuple[str, ...]:
        return self._base.column_names

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._base.column_names

    @property
    def generation(self) -> int:
        """The published generation this handle currently builds on."""
        return self._base.generation

    @property
    def n_rows(self) -> int:
        """Live rows visible to :meth:`scan` (read-your-writes)."""
        return (self._base.live_rows - self._memtable.pending_deletes
                + self._memtable.n_rows)

    @property
    def pending_rows(self) -> int:
        """Unflushed tail rows buffered in the memtable."""
        return self._memtable.n_rows

    @property
    def pending_deletes(self) -> int:
        """Unflushed deletions marked against the published snapshot."""
        return self._memtable.pending_deletes

    def versions(self) -> list[int]:
        """Published generations, oldest first (time-travel targets)."""
        return Table.versions(self.path)

    def snapshot(self, version: int | None = None) -> Table:
        """An independent read snapshot (caller closes it) of the
        published tip, or of a pinned ``version``: a successor of this
        handle's snapshot, so it maps only the shard files this handle
        does not already hold (see :meth:`Table.successor`)."""
        return self._base.successor(version)

    # ------------------------------------------------------------ writes
    def append(self, batch: dict) -> int:
        """Append one batch of rows; returns the rows appended."""
        with self._lock:
            self._check_open()
            staged = validate_batch(self.schema, batch)
            self._wal.log_append(staged)
            return self._apply_append(staged)

    def _apply_append(self, staged: dict[str, np.ndarray]) -> int:
        self._memtable.append(staged)
        return len(staged[self.schema[0]])

    def delete(self, where) -> int:
        """Delete every live row matching the predicate; returns the
        count.  ``where`` is an :class:`~repro.exec.Expr`
        (Range/InSet/And/Or — serialisable into the WAL) or a
        ``(column, lo, hi)`` tuple."""
        with self._lock:
            self._check_open()
            expr = _as_expr(where)
            self._check_columns(expr.columns())
            self._wal.log_delete(expr)
            return self._apply_delete(expr)

    def _apply_delete(self, expr: Expr) -> int:
        deleted = 0
        row_ids = self._match_base_rows(expr)
        if row_ids is not None and row_ids.size:
            deleted += self._memtable.mark_base_deleted(row_ids)
        if self._memtable.n_rows:
            cols = self._memtable.columns()
            mask = expr.evaluate(
                cols, np.arange(self._memtable.n_rows, dtype=np.int64))
            deleted += self._memtable.drop_tail_rows(mask)
        return deleted

    def update(self, key_column: str, key: int, values: dict) -> int:
        """Set ``values`` on every live row whose ``key_column`` equals
        ``key``; returns the count.  Matched rows move to the tail (the
        relational content is what snapshots preserve, not physical
        positions)."""
        with self._lock:
            self._check_open()
            self._check_columns({key_column}, role="key")
            self._check_columns(set(values), role="updated")
            values = {name: int(v) for name, v in values.items()}
            self._wal.log_update(key_column, int(key), values)
            return self._apply_update(key_column, int(key), values)

    def _apply_update(self, key_column: str, key: int,
                      values: dict) -> int:
        expr = Range(key_column, key, key + 1)
        moved: list[dict[str, np.ndarray]] = []
        row_ids = self._match_base_rows(expr, want_columns=True)
        if row_ids is not None:
            ids, columns = row_ids
            if ids.size:
                self._memtable.mark_base_deleted(ids)
                moved.append(columns)
        if self._memtable.n_rows:
            cols = self._memtable.columns()
            mask = expr.evaluate(
                cols, np.arange(self._memtable.n_rows, dtype=np.int64))
            if mask.any():
                moved.append(self._memtable.take_tail_rows(mask))
        updated = 0
        for columns in moved:
            n = len(columns[self.schema[0]])
            updated += n
            staged = {}
            for name in self.schema:
                col = np.asarray(columns[name], dtype=np.int64)
                if name in values:
                    col = np.full(n, values[name], dtype=np.int64)
                staged[name] = col
            self._memtable.append(staged)
        return updated

    def _match_base_rows(self, expr: Expr, want_columns: bool = False):
        """Live base-snapshot rows matching ``expr`` (excluding rows
        already pending deletion); physical row ids, optionally with the
        matched rows' full columns (for update's re-append)."""
        if self._base.n_rows == 0:
            return None
        from repro.exec.expr import Bitmap

        pending = self._memtable.base_deleted
        if pending.any():
            expr = expr & Bitmap(~pending)
        plan = Plan.scan(None if want_columns else
                         (self.schema[0],)).where(expr)
        result = plan.execute(self._base_source)
        if want_columns:
            return result.row_ids, result.columns
        return result.row_ids

    def _check_columns(self, names, role: str = "predicate") -> None:
        unknown = [c for c in names if c not in self.schema]
        if unknown:
            raise KeyError(
                f"unknown {role} column(s) "
                + ", ".join(repr(c) for c in unknown)
                + f"; available: {', '.join(self.schema)}")

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("table handle is closed")

    # ------------------------------------------------------------- reads
    def source(self):
        """A :class:`~repro.exec.ColumnSource` over the live view
        (published snapshot + memtable tail, deletions masked) — run any
        exec-layer plan against it.

        The snapshot's :class:`~repro.store.executor.StoreSource` is
        built once per generation (granules, extents, zone maps and its
        deletion-vector term with it) and returned as it is while
        nothing is pending; a memtable tail or pending deletes chain
        onto it.  A source taken before a commit keeps reading its own
        snapshot."""
        with self._lock:
            self._check_open()
            if self._base.n_rows and not self._memtable.dirty:
                return self._base_source
            parts = []
            if self._base.n_rows:
                parts.append(self._base_source)
            if self._memtable.n_rows:
                parts.append(ArraySource(
                    dict(self._memtable.columns()),
                    morsel_rows=self._base.chunk_rows,
                    name="memtable"))
            if not parts:
                parts.append(ArraySource(
                    {name: np.empty(0, dtype=np.int64)
                     for name in self.schema}, name="memtable"))
            live_mask = None
            if self._memtable.base_deleted.any():
                live_mask = np.ones(sum(p.n_rows for p in parts),
                                    dtype=bool)
                live_mask[:self._base.n_rows] = \
                    ~self._memtable.base_deleted
            return ChainSource(parts, live_mask=live_mask,
                               name=f"mutable:{self.path}")

    def scan(self, columns=None, where=None, **opts):
        """Read-your-writes scan of the live view (an
        :class:`~repro.exec.ExecResult`); ``opts`` are forwarded to
        :func:`repro.exec.run.execute`."""
        plan = Plan.scan(tuple(columns) if columns is not None else None)
        if where is not None:
            plan = plan.where(_as_expr(where))
        return plan.execute(self.source(), **opts)

    def read_column(self, name: str, **opts) -> np.ndarray:
        return self.scan(columns=[name], **opts).columns[name]

    # ------------------------------------------------------------- flush
    def flush(self) -> int:
        """Publish the memtable as a new manifest generation.

        New rows encode into ordinary shards through the codec
        registry; pending deletions become deletion-vector sidecars;
        the commit point is the atomic ``CURRENT`` swap, after which the
        WAL rotates.  A no-op (returns the current generation) when
        nothing is pending.
        """
        with self._lock:
            self._check_open()
            if not self._memtable.dirty:
                return self.generation
            t_flush = time.perf_counter()
            flushed_rows = self._memtable.n_rows
            generation = self.generation + 1
            entries = chain.base_shard_entries(
                self._base, self._memtable.base_deleted, generation,
                self.path)
            if self._memtable.n_rows:
                base_rows = sum(e["n_rows"] for e in entries)
                writer = TableWriter(
                    self.path, codec=self._codec,
                    shard_rows=self._base.manifest.shard_rows,
                    chunk_rows=self._base.chunk_rows,
                    schema=self.schema, publish_manifest=False,
                    start_row=base_rows, generation=generation)
                try:
                    writer.append(self._memtable.columns())
                    writer.close()
                except SimulatedCrash:
                    raise  # a dead process cleans nothing; reopen repairs
                except BaseException:
                    writer.abort()
                    raise
                entries.extend(writer.shard_entries)
            chain.commit(self.path, self._base.manifest, entries,
                         generation)
            self._reopen(generation)
            _M_FLUSH_SECONDS.observe(time.perf_counter() - t_flush)
            _M_FLUSH_ROWS.inc(flushed_rows)
            return generation

    def compact(self, threshold: float = 0.5) -> int | None:
        """Rewrite shards whose live fraction dropped below
        ``threshold`` (see :func:`repro.mutate.compact.compact_table`);
        pending mutations are flushed first.  Returns the new generation
        or ``None`` when no shard qualified."""
        from repro.mutate.compact import compact_table

        with self._lock:
            self._check_open()
            self.flush()
            generation = compact_table(self._base, threshold)
            if generation is None:
                return None
            self._reopen(generation)
            return generation

    def _reopen(self, generation: int) -> None:
        """Swing this handle onto the just-committed generation.

        The new snapshot is the old one's :meth:`Table.successor`: it
        shares every shard file (and deletion vector) the commit did not
        replace, so a commit opens only the files it wrote.  The
        superseded snapshot is *retired*, not closed: scans that grabbed
        a source from :meth:`source` before this commit may still be
        reading through it on other threads (that is the whole point of
        snapshot isolation).  Retired snapshots close when the handle
        does; a shard file closes with the last snapshot naming it.
        """
        sync = self._wal.sync
        self._wal.close()
        self._retired.append(self._base)
        self._base = self._base.successor()
        assert self._base.generation == generation
        self._base_source = StoreSource(self._base)
        self._memtable = MemTable(self.schema, self._base.n_rows)
        self._wal = WriteAheadLog(
            os.path.join(self.path, wal_file_name(generation)),
            sync=sync)

    # --------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._wal.close()
            self._base.close()
            for retired in self._retired:
                retired.close()
            self._retired = []
            self._closed = True

    def __enter__(self) -> "MutableTable":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return self.n_rows
