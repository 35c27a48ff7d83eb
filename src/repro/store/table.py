"""``Table`` — the mmap-backed read side of the persistent store.

Opening a table reads one manifest — the generation ``CURRENT`` names,
or a ``version=`` pinned older one (time travel) — memory-maps every
shard file it names, parses each shard's footer catalog (schema, codec
ids, row counts, zone maps), and loads any deletion-vector sidecars the
manifest references.  A :class:`Table` is therefore an immutable *snapshot*:
commits publish new manifests and swap ``CURRENT`` atomically, so a
concurrent reader never sees a torn table.  No chunk bytes are touched
until a scan asks for them, and zone-map-pruned chunks are never touched
at all — the page cache plus the bounded LRU chunk cache are the only
state between scans.
"""

from __future__ import annotations

import mmap
import os
import time
import zlib

import numpy as np

from repro import codecs, faults
from repro.exec import ExecResult, Plan, Range
from repro.exec.errors import CorruptChunkError
from repro.obs import metrics as obs_metrics
from repro.store.cache import DEFAULT_CAPACITY_BYTES, ChunkCache
from repro.store.executor import StoreSource
from repro.store.format import (
    ChunkMeta,
    Manifest,
    ShardFooter,
    list_versions,
    read_manifest,
    unpack_deletion_vector,
    unpack_footer,
)

_M_TABLES_OPENED = obs_metrics.counter(
    "repro_store_tables_opened_total", "table snapshots opened")
_M_SHARDS_OPENED = obs_metrics.counter(
    "repro_store_shards_opened_total", "shard files opened (mmap)")


class Shard:
    """One opened shard file: mmap + parsed footer catalog.

    ``row_start`` is the shard's *global* first row in the snapshot it
    was opened for (manifest-assigned — compaction can shift a shard's
    position in the chain without rewriting its footer);
    ``deleted`` is the generation's deletion vector for this shard
    (shard-local boolean mask, ``None`` when every row is live).
    """

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "rb")
        try:
            self.mmap = mmap.mmap(self._file.fileno(), 0,
                                  access=mmap.ACCESS_READ)
            try:
                self.footer: ShardFooter = unpack_footer(self.mmap)
            except BaseException:
                self.mmap.close()
                raise
        except BaseException:
            self._file.close()
            raise
        self.row_start: int = self.footer.row_start
        self.deleted: np.ndarray | None = None
        self.by_column: dict[str, tuple[ChunkMeta, ...]] = {}
        for chunk in self.footer.chunks:
            self.by_column.setdefault(chunk.column, ())
        for column in self.by_column:
            self.by_column[column] = self.footer.column_chunks(column)

    def close(self) -> None:
        self.mmap.close()
        self._file.close()


class Table:
    """Read-only snapshot of one store directory (use :meth:`open`)."""

    def __init__(self, path: str, cache_bytes: int = DEFAULT_CAPACITY_BYTES,
                 version: int | None = None,
                 cache: ChunkCache | None = None):
        self.path = path
        self.manifest: Manifest = read_manifest(path, version=version)
        self.shards: list[Shard] = []
        try:
            row_start = 0
            for entry in self.manifest.shards:
                t_open = time.perf_counter()
                shard = Shard(os.path.join(path, entry["file"]))
                shard.open_s = time.perf_counter() - t_open
                _M_SHARDS_OPENED.inc()
                self.shards.append(shard)
                if shard.footer.n_rows != entry["n_rows"] or \
                        entry["row_start"] != row_start:
                    raise ValueError(
                        f"shard {entry['file']!r} footer disagrees with "
                        "the manifest (mixed table versions?)")
                shard.row_start = row_start
                row_start += entry["n_rows"]
                if entry.get("dv"):
                    with open(os.path.join(path, entry["dv"]), "rb") as fh:
                        deleted = unpack_deletion_vector(fh.read())
                    if len(deleted) != entry["n_rows"]:
                        raise ValueError(
                            f"deletion vector {entry['dv']!r} covers "
                            f"{len(deleted)} rows, shard holds "
                            f"{entry['n_rows']}")
                    shard.deleted = deleted
            if row_start != self.manifest.n_rows:
                raise ValueError(
                    f"manifest declares {self.manifest.n_rows} rows, "
                    f"shards hold {row_start}")
        except BaseException:
            for shard in self.shards:
                shard.close()
            raise
        # a caller-supplied cache is *shared* (the table server hands one
        # cache to every table it opens) and survives this table's close
        self._owns_cache = cache is None
        self.cache: ChunkCache | None = cache if cache is not None else (
            ChunkCache(cache_bytes) if cache_bytes else None)
        self._live_mask: np.ndarray | None = None
        _M_TABLES_OPENED.inc()

    @classmethod
    def open(cls, path: str, cache_bytes: int = DEFAULT_CAPACITY_BYTES,
             version: int | None = None,
             cache: ChunkCache | None = None) -> "Table":
        """Open the current snapshot, or pin an older published
        ``version`` (time travel).

        ``cache`` injects a shared :class:`ChunkCache` (the table server
        gives every open table one cache); it overrides ``cache_bytes``
        and is left intact when this table closes.
        """
        return cls(path, cache_bytes=cache_bytes, version=version,
                   cache=cache)

    @staticmethod
    def versions(path: str) -> list[int]:
        """Published generations, oldest first — exactly the values
        ``open(path, version=)`` accepts."""
        return list_versions(path)

    # ------------------------------------------------------------ catalog
    @property
    def column_names(self) -> tuple[str, ...]:
        return self.manifest.columns

    @property
    def n_rows(self) -> int:
        return self.manifest.n_rows

    @property
    def chunk_rows(self) -> int:
        return self.manifest.chunk_rows

    @property
    def generation(self) -> int:
        return self.manifest.generation

    @property
    def live_rows(self) -> int:
        """Rows visible after deletion vectors (= ``n_rows`` when no
        shard carries one)."""
        return self.n_rows - self.deleted_rows

    @property
    def deleted_rows(self) -> int:
        return sum(int(s.deleted.sum()) for s in self.shards
                   if s.deleted is not None)

    def live_mask(self) -> np.ndarray | None:
        """Table-global boolean mask of live rows, or ``None`` when every
        physical row is live (no deletion vectors in this snapshot).
        Built once and cached — the snapshot is immutable, and every
        executed plan asks for it.  Treat the array as read-only."""
        if self._live_mask is None:
            if all(s.deleted is None for s in self.shards):
                return None
            mask = np.ones(self.n_rows, dtype=bool)
            for shard in self.shards:
                if shard.deleted is not None:
                    mask[shard.row_start: shard.row_start
                         + shard.footer.n_rows] = ~shard.deleted
            self._live_mask = mask
        return self._live_mask

    def stored_bytes(self) -> int:
        """Stored chunk bytes across all shards (excluding footers)."""
        return sum(c.nbytes for s in self.shards for c in s.footer.chunks)

    def info(self) -> dict:
        """Catalog summary (the CLI's ``info`` payload)."""
        codec_mix: dict[str, int] = {}
        for shard in self.shards:
            for chunk in shard.footer.chunks:
                codec_mix[chunk.codec] = codec_mix.get(chunk.codec, 0) + 1
        return {
            "path": self.path,
            "columns": list(self.column_names),
            "generation": self.generation,
            "n_rows": self.n_rows,
            "live_rows": self.live_rows,
            "n_shards": len(self.shards),
            "shard_rows": self.manifest.shard_rows,
            "chunk_rows": self.chunk_rows,
            "requested_codecs": dict(self.manifest.codecs),
            "chunk_codec_mix": codec_mix,
            "stored_bytes": self.stored_bytes(),
            # per-shard open cost — CI logs diff these, so a shard that
            # got slow or fat between runs is visible at a glance
            "shards": [
                {"file": os.path.basename(shard.path),
                 "n_rows": shard.footer.n_rows,
                 "stored_bytes": sum(c.nbytes
                                     for c in shard.footer.chunks),
                 "deleted_rows": int(shard.deleted.sum())
                 if shard.deleted is not None else 0,
                 "open_ms": round(
                     getattr(shard, "open_s", 0.0) * 1e3, 3)}
                for shard in self.shards],
        }

    # ------------------------------------------------------------- access
    def chunk_bytes(self, shard_idx: int, meta: ChunkMeta) -> bytes:
        """Raw envelope bytes of one chunk (an mmap copy)."""
        shard = self.shards[shard_idx]
        faults.fire("chunk.read", file=shard.path, column=meta.column)
        return shard.mmap[meta.offset: meta.offset + meta.nbytes]

    def revive_chunk(self, shard_idx: int, meta: ChunkMeta):
        """Revive one chunk's encoded sequence from its envelope.

        On a cache miss this is the end-to-end verification point: the
        envelope's crc32 (format v2) is checked against the bytes that
        actually came back from storage, so bit rot anywhere between the
        writer and the mmap raises :class:`CorruptChunkError` instead of
        decoding into silently wrong rows.  v1 shards carry no chunk crc
        and skip the check.
        """
        blob = self.chunk_bytes(shard_idx, meta)
        if meta.crc is not None and zlib.crc32(blob) != meta.crc:
            raise CorruptChunkError(
                "chunk envelope checksum mismatch",
                file=os.path.basename(self.shards[shard_idx].path),
                column=meta.column, row_start=meta.row_start,
                n_rows=meta.n_rows)
        return codecs.from_bytes(blob)

    def scan(self, columns: list[str] | tuple[str, ...] | None = None,
             where: tuple[str, int, int] | None = None, prune: bool = True,
             threads: int | None = None, **opts) -> ExecResult:
        """Projection + predicate-pushdown scan: a one-predicate
        :class:`~repro.exec.Plan` over this snapshot, returned as the
        executor's :class:`~repro.exec.ExecResult` (``columns``,
        ``row_ids``, ``stats`` — an :class:`~repro.exec.ExecStats`).

        Parameters
        ----------
        columns:
            Projected column names (``None`` = all columns).
        where:
            Optional ``(column, lo, hi)`` range predicate selecting rows
            with ``lo <= value < hi``.  The predicate is pushed down:
            zone maps prune whole chunks, survivors filter through the
            codecs' vectorised ``filter_range``, and projected columns
            ``gather`` only surviving positions.
        prune:
            Disable to force the filter onto every chunk (the unpruned
            reference the tests compare against); results are identical.
        threads:
            ``1`` pins the scan to the calling thread; otherwise chunks
            fan out on the shared scheduler.
        **opts:
            Resilience knobs forwarded to the executor —
            ``on_corruption="raise"|"skip"``, ``timeout_s`` (see
            :func:`repro.exec.run.execute`).
        """
        projection = tuple(columns) if columns is not None \
            else self.column_names
        available = ", ".join(self.column_names)
        for name in projection:
            if name not in self.column_names:
                raise KeyError(f"unknown projection column {name!r}; "
                               f"available: {available}")
        plan = Plan.scan(projection)
        if where is not None:
            pred_col, lo, hi = where
            if pred_col not in self.column_names:
                raise KeyError(f"unknown predicate column {pred_col!r}; "
                               f"available: {available}")
            plan = plan.where(Range(pred_col, int(lo), int(hi)))
        return plan.execute(StoreSource(self), threads=threads,
                            prune=prune, **opts)

    def read_column(self, name: str, threads: int | None = None
                    ) -> np.ndarray:
        """Decode one full column (naive no-predicate scan)."""
        return self.scan(columns=[name], threads=threads).columns[name]

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        for shard in self.shards:
            shard.close()
        self.shards = []
        if self.cache is not None and self._owns_cache:
            self.cache.clear()

    def __enter__(self) -> "Table":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return self.n_rows
