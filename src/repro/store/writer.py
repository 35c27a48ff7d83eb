"""``TableWriter`` — ingest columns into a persistent sharded table.

The writer buffers appended batches, partitions them into row-group
*shards* of ``shard_rows`` rows, and within each shard slices every column
into aligned *chunks* of ``chunk_rows`` rows.  Each chunk is encoded
through the codec registry and written as a self-describing envelope, so
the reader revives it with :func:`repro.codecs.from_bytes` without store-
side per-codec knowledge.

Codec selection is :class:`~repro.codecs.CodecSpec`-driven and per
column: pass one spec/name for every column, or a mapping, or ``"auto"``
— the writer then trial-encodes each chunk with the lightweight
candidates and keeps the smallest envelope.

Zone maps follow one rule, uniformly: codecs whose registry entry sets
the ``supports_model_bounds`` capability flag provide their own bounds
via ``model_bounds()`` (LeCo's model + residual-width band, no decode);
for everything else the writer computes exact min/max from the raw
values it is holding anyway.  New codecs therefore get zone maps with
zero store-side special-casing — set the flag only if the format can
bound values cheaper than the computed fallback.  The exec planner
reads the same flag when deriving pruning bounds for in-memory sources.
"""

from __future__ import annotations

import os
import re
import zlib

import numpy as np

from repro import codecs, faults
from repro.codecs.spec import CodecSpec
from repro.faults import SimulatedCrash
from repro.store.format import (
    SHARD_MAGIC,
    VERSION,
    ChunkMeta,
    Manifest,
    ShardFooter,
    list_versions,
    manifest_file_name,
    manifest_generation,
    pack_footer,
    shard_file_name,
    write_current,
    write_manifest,
)

_SHARD_INDEX_RE = re.compile(r"shard-(\d+)\b.*\.rps$")
#: per-generation state an overwrite supersedes along with the shards
_SIDE_STATE_RE = re.compile(r"(.*\.dv|wal-\d+\.log(\.corrupt)?)$")

#: default shard (row group) size in rows
DEFAULT_SHARD_ROWS = 1 << 16
#: default chunk size in rows (aligned across all columns of a shard)
DEFAULT_CHUNK_ROWS = 1 << 12
#: trial candidates for ``codec="auto"`` (smallest envelope wins)
AUTO_CANDIDATES = ("leco", "dict", "plain")


def next_shard_index(path: str) -> int:
    """One past the highest shard index named by any ``.rps`` file, so
    new shards never clobber files a concurrent reader (or an older
    manifest generation) may still reference."""
    highest = -1
    for name in os.listdir(path):
        match = _SHARD_INDEX_RE.fullmatch(name)
        if match:
            highest = max(highest, int(match.group(1)))
    return highest + 1


def _partition_rows(chunk_rows: int) -> int:
    """Rows per partition the store pins inside one chunk."""
    return max(min(1024, chunk_rows), 16)


def _build_codec(spec, chunk_rows: int):
    """Construct one registry codec from a name or a :class:`CodecSpec`.

    A spec means exactly the spec.  A bare name means the store's pinned
    plan: the registry's ``partitioned`` capability says whether the codec
    takes one — ``_partition_rows`` as the partition length, and as the
    ceiling of any length search the name itself implies.
    """
    name = spec.codec if isinstance(spec, CodecSpec) else str(spec)
    if not codecs.info(name).partitioned:
        return codecs.get(name)
    if isinstance(spec, CodecSpec):
        return codecs.get(name, spec=spec)
    part = _partition_rows(chunk_rows)
    return codecs.get(name, partitioner=part, max_partition_size=part)


class TableWriter:
    """Streaming writer for one table directory.

    Usage::

        with TableWriter(path, codec="auto") as w:
            w.append({"ts": ts_batch, "val": val_batch})
        # or the one-shot convenience:
        write_table(path, {"ts": ts, "val": val})

    ``codec`` is a registry name, a :class:`CodecSpec`, ``"auto"``, or a
    per-column mapping of any of those.  ``schema`` optionally declares
    the column names up front: malformed schemas (duplicates, zero
    columns) and per-column codec mappings that do not cover them are
    rejected here, at construction, instead of surfacing when the first
    batch arrives.

    ``publish_manifest=False`` switches the writer into *extend* mode
    for the mutation layer: shards are still staged and renamed into
    place at ``close``, but no manifest is written and nothing existing
    is touched — the caller folds :attr:`shard_entries` into its own
    manifest generation (``start_row`` offsets their global row starts,
    ``generation`` suffixes the file names so commits never collide).
    """

    def __init__(self, path: str, codec="auto",
                 shard_rows: int = DEFAULT_SHARD_ROWS,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 overwrite: bool = False, schema=None,
                 publish_manifest: bool = True, start_row: int = 0,
                 generation: int | None = None):
        if shard_rows <= 0 or chunk_rows <= 0:
            raise ValueError("shard_rows and chunk_rows must be positive")
        if chunk_rows > shard_rows:
            chunk_rows = shard_rows
        schema = self._validate_schema(schema, codec)
        self.path = path
        self.codec = codec
        self.shard_rows = shard_rows
        self.chunk_rows = chunk_rows
        self._publish_manifest = publish_manifest
        self._start_row = start_row
        self._generation = generation
        self._name_base = 0
        self._publish_generation = 0
        os.makedirs(path, exist_ok=True)
        if publish_manifest:
            published = list_versions(path)
            if published:
                if not overwrite:
                    raise ValueError(
                        f"{path!r} already holds a store table "
                        "(pass overwrite=True to replace it)")
                # republish under fresh names and the next generation
                # number: a reader holding the old snapshot keeps
                # resolving the old files until the pointer is swapped
                # and they are reaped, and (directory, generation) never
                # comes to name two different tables
                self._name_base = next_shard_index(path)
                self._publish_generation = published[-1] + 1
            # leftovers of a writer that crashed mid-write or mid-publish
            # are never data
            for stale in os.listdir(path):
                if stale.endswith(".tmp"):
                    os.remove(os.path.join(path, stale))
        else:
            self._name_base = next_shard_index(path)
        self._schema: tuple[str, ...] | None = schema
        self._buffer: dict[str, list[np.ndarray]] = \
            {name: [] for name in schema} if schema else {}
        self._buffered = 0
        self._rows_written = 0
        self._shards: list[dict] = []
        self._codec_cache: dict[object, object] = {}
        self._closed = False

    @staticmethod
    def _validate_schema(schema, codec) -> tuple[str, ...] | None:
        """Construction-time schema checks (duplicates, zero columns)."""
        if schema is None:
            return None
        names = tuple(str(name) for name in schema)
        if not names:
            raise ValueError(
                "zero-column schema: a table needs at least one column")
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ValueError(
                f"duplicate column name(s) in schema: {', '.join(dupes)}")
        if isinstance(codec, dict):
            missing = [n for n in names if n not in codec]
            if missing:
                raise ValueError(
                    "no codec configured for column(s): "
                    + ", ".join(repr(n) for n in missing))
        return names

    # ------------------------------------------------------------- ingest
    def append(self, batch: dict[str, np.ndarray]) -> None:
        """Buffer one batch of equal-length integer columns.

        The whole batch is validated and converted before any column is
        committed to the buffer: a rejected batch leaves the writer
        exactly as it was (no partial, misaligned state).
        """
        if self._closed:
            raise ValueError("writer is closed")
        if not batch:
            raise ValueError("empty batch")
        if self._schema is not None and tuple(batch) != self._schema:
            raise ValueError(
                f"batch columns {tuple(batch)} do not match the schema "
                f"{self._schema}")
        staged: dict[str, np.ndarray] = {}
        n = None
        for name, col in batch.items():
            col = np.asarray(col)
            if col.dtype.kind not in "iu":
                raise TypeError(
                    f"column {name!r}: integer input required, "
                    f"got {col.dtype}")
            if col.dtype.kind == "u" and col.size and \
                    int(col.max()) > np.iinfo(np.int64).max:
                raise ValueError(
                    f"column {name!r}: value {int(col.max())} exceeds the "
                    "int64 range the store encodes")
            col = col.astype(np.int64)
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise ValueError(f"column {name!r} length mismatch")
            staged[name] = col
        if self._schema is None:
            self._schema = tuple(staged)
            self._buffer = {name: [] for name in self._schema}
        for name, col in staged.items():
            self._buffer[name].append(col)
        self._buffered += n
        while self._buffered >= self.shard_rows:
            self._flush_shard(self.shard_rows)

    def close(self) -> None:
        """Publish the table: finalise shards, write the generation's
        manifest, swap ``CURRENT`` — the same two steps a flush or a
        compaction commits through.  A fresh directory publishes
        generation 0, an overwrite ``CURRENT + 1``.

        Shards are staged as ``.rps.tmp`` files and only renamed into
        place here, so a writer that fails before ``close`` (the context
        manager skips it on exceptions) leaves a pre-existing table — and
        its still-current generation — untouched.
        """
        if self._closed:
            return
        if self._buffered:
            self._flush_shard(self._buffered)
        if self._rows_written == 0:
            raise ValueError("cannot close a writer that ingested no rows")
        for entry in self._shards:
            final = os.path.join(self.path, entry["file"])
            faults.fire("shard.publish", src=final + ".tmp", dst=final)
            os.replace(final + ".tmp", final)
        if not self._publish_manifest:
            self._closed = True
            return
        # the pointer swap is the publication point: it lands atomically
        # before any superseded file is reaped, so a concurrent reader
        # resolves either the complete old table or the complete new one
        generation = self._publish_generation
        write_manifest(self.path, Manifest(
            columns=self._schema,
            n_rows=self._rows_written,
            shard_rows=self.shard_rows,
            chunk_rows=self.chunk_rows,
            codecs={name: self._codec_label(name) for name in self._schema},
            shards=tuple(self._shards),
        ), generation=generation)
        write_current(self.path, generation)
        # a full overwrite replaces the whole generation chain, not just
        # its newest snapshot
        keep = {entry["file"] for entry in self._shards}
        keep.add(manifest_file_name(generation))
        for name in os.listdir(self.path):
            if name not in keep and (
                    name.endswith(".rps") or _SIDE_STATE_RE.fullmatch(name)
                    or manifest_generation(name) is not None):
                os.remove(os.path.join(self.path, name))
        self._closed = True

    def abort(self) -> None:
        """Discard the write: remove every staged ``.rps.tmp`` file.

        Leaves a previously published table byte-identical — failure
        paths (batch rejection, ENOSPC mid-shard, ...) call this so no
        staging debris survives the writer.  Idempotent.
        """
        for entry in self._shards:
            tmp = os.path.join(self.path, entry["file"] + ".tmp")
            try:
                os.remove(tmp)
            except OSError:
                pass
        self._shards = []
        self._closed = True

    @property
    def shard_entries(self) -> tuple[dict, ...]:
        """Manifest entries of the published shards (after ``close``)."""
        if not self._closed:
            raise ValueError("shard entries exist only after close()")
        return tuple(self._shards)

    def __enter__(self) -> "TableWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not issubclass(exc_type, SimulatedCrash):
            # real failures clean their staging files; a simulated crash
            # leaves them (the process "died") for recovery to reap
            self.abort()

    # ----------------------------------------------------------- encoding
    def _codec_spec_for(self, column: str):
        if isinstance(self.codec, dict):
            try:
                return self.codec[column]
            except KeyError:
                raise ValueError(
                    f"no codec configured for column {column!r}") from None
        return self.codec

    def _codec_label(self, column: str) -> str:
        spec = self._codec_spec_for(column)
        if isinstance(spec, CodecSpec):
            return spec.codec
        return str(spec)

    def _encode_chunks(self, column: str, chunks: list[np.ndarray]
                       ) -> list[tuple[bytes, str, int, int, str]]:
        """Encode one column's chunks together (``encode_many``: LeCo fits
        their partitions as one matrix); per chunk returns (envelope,
        codec, zmin, zmax, source)."""
        spec = self._codec_spec_for(column)
        if isinstance(spec, str) and spec == "auto":
            trials = [(name, self._cached_codec(name).encode_many(chunks))
                      for name in AUTO_CANDIDATES]
        else:
            trials = [(self._codec_label(column),
                       self._cached_codec(spec).encode_many(chunks))]
        out = []
        for i, values in enumerate(chunks):
            best = None
            for name, seqs in trials:
                blob = seqs[i].to_bytes()
                if best is None or len(blob) < len(best[0]):
                    best = (blob, name, seqs[i])
            blob, name, seq = best
            # the capability flag decides who supplies the zone map: the
            # codec's model (no decode) or the writer's exact computation
            bounds = seq.model_bounds() \
                if codecs.info(name).supports_model_bounds else None
            if bounds is not None:
                zmin, zmax, source = int(bounds[0]), int(bounds[1]), "model"
            else:
                zmin, zmax, source = int(values.min()), int(values.max()), \
                    "computed"
            out.append((blob, name, zmin, zmax, source))
        return out

    def _cached_codec(self, spec):
        """One constructed codec per distinct name/spec (not per name:
        two columns may share a codec name with different CodecSpecs)."""
        try:
            cached = self._codec_cache.get(spec)
        except TypeError:  # spec carries an unhashable selector: no cache
            return _build_codec(spec, self.chunk_rows)
        if cached is None:
            cached = self._codec_cache[spec] = _build_codec(spec,
                                                            self.chunk_rows)
        return cached

    # ------------------------------------------------------------ shards
    def _take_rows(self, n: int) -> dict[str, np.ndarray]:
        out = {}
        for name in self._schema:
            col = (self._buffer[name][0] if len(self._buffer[name]) == 1
                   else np.concatenate(self._buffer[name]))
            out[name] = col[:n]
            self._buffer[name] = [col[n:]] if n < len(col) else []
        self._buffered -= n
        return out

    def _flush_shard(self, n_rows: int) -> None:
        columns = self._take_rows(n_rows)
        out = bytearray(SHARD_MAGIC)
        out.append(VERSION)
        chunks: list[ChunkMeta] = []
        starts = range(0, n_rows, self.chunk_rows)
        for name in self._schema:
            segs = [columns[name][start: start + self.chunk_rows]
                    for start in starts]
            for start, seg, (blob, codec_name, zmin, zmax, src) in zip(
                    starts, segs, self._encode_chunks(name, segs)):
                chunks.append(ChunkMeta(
                    column=name, row_start=start, n_rows=len(seg),
                    offset=len(out), nbytes=len(blob), codec=codec_name,
                    zmin=zmin, zmax=zmax, bounds=src,
                    crc=zlib.crc32(blob)))
                out += blob
        row_start = self._start_row + self._rows_written
        out += pack_footer(ShardFooter(
            row_start=row_start, n_rows=n_rows, chunks=tuple(chunks)))
        fname = shard_file_name(self._name_base + len(self._shards),
                                self._generation)
        tmp = os.path.join(self.path, fname + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                faults.write_through("shard.write", fh, bytes(out))
        except SimulatedCrash:
            raise  # a dead process runs no cleanup; reopen must repair
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise
        self._shards.append({"file": fname, "row_start": row_start,
                             "n_rows": n_rows})
        self._rows_written += n_rows


def write_table(path: str, columns: dict[str, np.ndarray], codec="auto",
                shard_rows: int = DEFAULT_SHARD_ROWS,
                chunk_rows: int = DEFAULT_CHUNK_ROWS,
                overwrite: bool = False) -> None:
    """One-shot ingest of a full in-memory column dict."""
    with TableWriter(path, codec=codec, shard_rows=shard_rows,
                     chunk_rows=chunk_rows, overwrite=overwrite,
                     schema=tuple(columns)) as writer:
        writer.append(columns)
