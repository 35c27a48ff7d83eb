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

A snapshot is a placement (:class:`Shard`: global ``row_start`` and
deletion vector) over reference-counted open files (:class:`ShardFile`:
mmap, verified footer).  Shard files are write-once, so
:meth:`Table.successor` opens the next generation by sharing every file
it has in common with the snapshot it replaces — the LSM way, where a
new version keeps the readers of every file it did not change — and a
commit opens only the files it wrote.
"""

from __future__ import annotations

import mmap
import os
import threading
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

#: guards every :class:`ShardFile` reference count (snapshots of one
#: table may be opened and closed on different threads)
_REFS_LOCK = threading.Lock()


def _identity(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_dev, st.st_ino, st.st_size


class ShardFile:
    """One open shard file, shared by every snapshot that names it.

    Holds the file's read-only mmap (the mapping keeps its own
    descriptor, so the file object closes as soon as it is mapped), the
    footer catalog — its crc32 verified once, here, when the file is
    first opened — and the footer's per-column chunk index.
    Reference-counted: every :class:`Table` holding it owns one
    reference, and the mapping closes with the last one released.
    ``open_s`` is what that first open cost.
    """

    def __init__(self, path: str):
        t_open = time.perf_counter()
        self.path = path
        with open(path, "rb") as fh:
            self.mmap = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            #: (device, inode, size) of the file as mapped
            self.identity = _identity(os.fstat(fh.fileno()))
        try:
            self.footer: ShardFooter = unpack_footer(self.mmap)
        except BaseException:
            self.mmap.close()
            raise
        self.by_column: dict[str, tuple[ChunkMeta, ...]] = {}
        for chunk in self.footer.chunks:
            self.by_column.setdefault(chunk.column, ())
        for column in self.by_column:
            self.by_column[column] = self.footer.column_chunks(column)
        self._refs = 1
        self.open_s = time.perf_counter() - t_open
        _M_SHARDS_OPENED.inc()

    def acquire(self) -> bool:
        """Take one more reference for another snapshot — only while
        this file is still open and ``os.stat`` of its path still
        matches the file as it was mapped (device, inode, size: a file
        replaced under the same name, or resized in place, fails);
        ``False`` otherwise, and the caller opens the path fresh."""
        try:
            named = _identity(os.stat(self.path))
        except OSError:
            return False
        with _REFS_LOCK:
            if not self._refs or named != self.identity:
                return False
            self._refs += 1
            return True

    def release(self) -> None:
        """Drop one reference; the last one closes the mapping."""
        with _REFS_LOCK:
            self._refs -= 1
            last = self._refs == 0
        if last:
            self.mmap.close()


class Shard:
    """One snapshot's placement of a :class:`ShardFile`.

    ``row_start`` is the shard's *global* first row in this snapshot
    (manifest-assigned — compaction can shift a shard's position in the
    chain without rewriting its footer); ``deleted`` is the generation's
    deletion vector for it (shard-local boolean mask, ``None`` when
    every row is live), loaded from the sidecar ``dv``.  ``path``,
    ``mmap``, ``footer`` and ``by_column`` are the shared file's.
    """

    def __init__(self, file: ShardFile, row_start: int):
        self.file = file
        self.path = file.path
        self.mmap = file.mmap
        self.footer = file.footer
        self.by_column = file.by_column
        self.row_start = row_start
        self.deleted: np.ndarray | None = None
        self.dv: str | None = None


class Table:
    """Read-only snapshot of one store directory (use :meth:`open`, or
    :meth:`successor` to move an open snapshot to a later generation)."""

    def __init__(self, path: str, cache_bytes: int = DEFAULT_CAPACITY_BYTES,
                 version: int | None = None,
                 cache: ChunkCache | None = None):
        self._open(path, read_manifest(path, version=version), (),
                   cache_bytes, cache)

    def _open(self, path: str, manifest: Manifest, held, cache_bytes: int,
              cache: ChunkCache | None) -> None:
        """Open ``manifest``'s snapshot, sharing the open file of every
        shard in ``held`` (another snapshot's) that it names again."""
        self.path = path
        self.manifest = manifest
        self.shards: list[Shard] = []
        reusable = {shard.path: shard for shard in held}
        try:
            row_start = 0
            for entry in manifest.shards:
                file_path = os.path.join(path, entry["file"])
                prev = reusable.get(file_path)
                if prev is not None and prev.file.acquire():
                    file = prev.file
                else:
                    prev, file = None, ShardFile(file_path)
                shard = Shard(file, row_start)
                self.shards.append(shard)
                if shard.footer.n_rows != entry["n_rows"] or \
                        entry["row_start"] != row_start:
                    raise ValueError(
                        f"shard {entry['file']!r} footer disagrees with "
                        "the manifest (mixed table versions?)")
                row_start += entry["n_rows"]
                shard.dv = entry.get("dv")
                if shard.dv and prev is not None and prev.dv == shard.dv:
                    # sidecars are generation-suffixed, never rewritten
                    shard.deleted = prev.deleted
                elif shard.dv:
                    with open(os.path.join(path, shard.dv), "rb") as fh:
                        deleted = unpack_deletion_vector(fh.read())
                    if len(deleted) != entry["n_rows"]:
                        raise ValueError(
                            f"deletion vector {shard.dv!r} covers "
                            f"{len(deleted)} rows, shard holds "
                            f"{entry['n_rows']}")
                    shard.deleted = deleted
            if row_start != manifest.n_rows:
                raise ValueError(
                    f"manifest declares {manifest.n_rows} rows, "
                    f"shards hold {row_start}")
        except BaseException:
            # release only what this snapshot acquired: a file it shares
            # stays open for the snapshot that lent it
            for shard in self.shards:
                shard.file.release()
            raise
        # a caller-supplied cache is *shared* (the table server hands one
        # cache to every table it opens) and survives this table's close
        self._owns_cache = cache is None
        self.cache: ChunkCache | None = cache if cache is not None else (
            ChunkCache(cache_bytes) if cache_bytes else None)
        self._live_mask: np.ndarray | None = None
        self._deleted_rows: int | None = None
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

    def successor(self, version: int | None = None) -> "Table":
        """A new snapshot of the generation ``CURRENT`` names now (or a
        pinned ``version``) that shares this snapshot's open shard files.

        The same open loop as :meth:`open`, with this snapshot's shards
        to reuse: a file the new manifest names again is shared only if
        ``os.stat`` of its path still matches the file as it was mapped
        (device, inode, size) — anything else opens fresh — and a shard
        whose entry names the same deletion-vector sidecar shares its
        mask too.  The checks stay: each footer's crc was verified when
        its file was first opened, each shard's footer is checked against
        the new manifest entry, and every chunk's crc on each cache-miss
        revive.  The successor's cache is this one's if it was injected
        (shared), else a fresh one of the same capacity.  The two
        snapshots are independent: close each; a failed successor
        releases only what it acquired.
        """
        table = type(self).__new__(type(self))
        table._open(self.path, read_manifest(self.path, version=version),
                    self.shards,
                    self.cache.capacity_bytes if self.cache is not None
                    else 0, None if self._owns_cache else self.cache)
        return table

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
        """Rows the deletion vectors mask, counted once per snapshot."""
        if self._deleted_rows is None:
            self._deleted_rows = sum(int(s.deleted.sum())
                                     for s in self.shards
                                     if s.deleted is not None)
        return self._deleted_rows

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
        """Catalog summary (the CLI's ``info`` payload).

        A shard's ``open_ms`` is what opening its file cost; for a file
        this snapshot shares with an earlier one (:meth:`successor`) it
        is the open that first mapped the file — this snapshot paid only
        a stat for it."""
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
                 "open_ms": round(shard.file.open_s * 1e3, 3)}
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
             where: tuple[str, int, int] | None = None,
             **opts) -> ExecResult:
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
        **opts:
            Forwarded to :func:`repro.exec.run.execute` — ``prune``,
            ``on_corruption``, ``timeout_s``, ``scheduler``, ``trace``.
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
        return plan.execute(StoreSource(self), **opts)

    def read_column(self, name: str, **opts) -> np.ndarray:
        """Decode one full column (a no-predicate scan); ``opts``
        as :meth:`scan`'s."""
        return self.scan(columns=[name], **opts).columns[name]

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release this snapshot's shard files (a file another open
        snapshot shares stays open for it) and its own cache; a second
        call is a no-op."""
        shards, self.shards = self.shards, []
        for shard in shards:
            shard.file.release()
        if self.cache is not None and self._owns_cache:
            self.cache.clear()

    def __enter__(self) -> "Table":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return self.n_rows
