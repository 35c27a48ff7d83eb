"""The store's execution adapter: :class:`StoreSource`.

The store has no private scan executor: scans run through the unified
:mod:`repro.exec` layer (:meth:`Table.scan` builds a one-predicate
:class:`~repro.exec.Plan` and returns its
:class:`~repro.exec.ExecResult`).  This module contributes
:class:`StoreSource` — the :class:`~repro.exec.source.ColumnSource`
over an open :class:`~repro.store.table.Table`.  Granules are the
column-aligned chunks (morsel = one chunk row range across all
columns); zone maps come straight from the footer catalog, as one pair
of arrays per column; loads revive
envelopes through the table's bounded LRU chunk cache, and the hot
paths release the GIL, so the executor may fan granules out on a
scheduler.
"""

from __future__ import annotations

import os
from functools import cached_property

from repro.exec.source import ColumnSource, Granule, zone_arrays


class StoreSource(ColumnSource):
    """:class:`ColumnSource` over an open persistent-store table."""

    def __init__(self, table):
        self.table = table
        granules: list[Granule] = []
        chunks: list[tuple[int, int]] = []  # granule -> (shard, chunk idx)
        first = table.column_names[0]
        for shard_idx, shard in enumerate(table.shards):
            for chunk_idx, meta in enumerate(shard.by_column[first]):
                granules.append(Granule(
                    len(granules), shard.row_start + meta.row_start,
                    meta.n_rows))
                chunks.append((shard_idx, chunk_idx))
        self._granules = tuple(granules)
        self._chunks = tuple(chunks)
        # column -> zone-map arrays, read from the footer metas once,
        # on a column's first zone-map test: a plan tests one or two
        # columns
        self._zones: dict[str, tuple] = {}

    def implicit_filter(self):
        """The snapshot's deletion vectors as one positional Bitmap term
        (``None`` when every physical row is live), built on first use:
        the snapshot is immutable."""
        return self._deletion_term

    @cached_property
    def _deletion_term(self):
        mask = self.table.live_mask()
        if mask is None:
            return None
        from repro.exec.expr import Bitmap

        return Bitmap(mask)

    @property
    def column_names(self) -> tuple:
        return self.table.column_names

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    def granules(self) -> tuple:
        return self._granules

    def _meta(self, granule: Granule, column: str):
        shard_idx, chunk_idx = self._chunks[granule.index]
        return shard_idx, \
            self.table.shards[shard_idx].by_column[column][chunk_idx]

    def granule_shard(self, granule: Granule) -> str:
        """Shard file holding this granule (executor error context)."""
        shard_idx, _ = self._chunks[granule.index]
        return os.path.basename(self.table.shards[shard_idx].path)

    def zone_maps(self, column: str) -> tuple:
        zones = self._zones.get(column)
        if zones is None:
            zones = self._zones[column] = zone_arrays(
                (meta.zmin, meta.zmax) for shard in self.table.shards
                for meta in shard.by_column[column])
        return zones

    def load(self, granule: Granule, column: str, stats):
        """Revive one chunk through the table's cache, charging stats."""
        shard_idx, meta = self._meta(granule, column)
        table = self.table
        if stats is not None:
            stats.chunks_scanned += 1
            stats.bytes_scanned += meta.nbytes

        def loader():
            return table.revive_chunk(shard_idx, meta)

        if table.cache is None:
            if stats is not None:
                stats.bytes_read += meta.nbytes
                stats.reads += 1
            return loader()
        # the key is (shard *path*, offset), not (index, offset): a
        # server-shared cache spans many tables, and shard indices —
        # unlike generation-suffixed shard file paths — collide
        seq, hit, evicted = table.cache.get_or_load(
            (table.shards[shard_idx].path, meta.offset),
            loader, meta.nbytes)
        if stats is not None:
            if hit:
                stats.cache_hits += 1
            else:
                stats.cache_misses += 1
                stats.cache_evictions += evicted
                stats.bytes_read += meta.nbytes
                stats.reads += 1
        return seq

    def describe(self) -> str:
        return f"store:{self.table.path}"

    def wire_descriptor(self) -> dict:
        """The fields a :class:`repro.par.QueryDescriptor` needs to
        rebuild this exact snapshot in a worker process: the table
        directory plus the pinned generation, and the row/granule
        counts the worker cross-checks against its own open to detect
        generation drift before running anything."""
        return {
            "table_path": os.path.abspath(self.table.path),
            "version": self.table.generation,
            "cache_bytes": self.table.cache.capacity_bytes
            if self.table.cache is not None else 0,
            "n_rows": self.table.n_rows,
            "n_granules": len(self._granules),
        }

