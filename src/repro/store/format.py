"""On-disk layout of the persistent table store (shards + footer catalog).

A table is a directory holding a *generation chain*: every publish — a
:class:`~repro.store.writer.TableWriter` ingest, a :mod:`repro.mutate`
flush or compaction — writes a fresh immutable ``_table.<gen>.json``
manifest naming the schema and the shard files, then atomically swaps
the ``CURRENT`` pointer to it.  A reader resolves the pointer once, so
it always opens one consistent snapshot; ``(directory, generation)``
names that snapshot forever, because a generation number is never
reused — an overwrite publishes ``CURRENT + 1`` and reaps what it
superseded.  Generations a mutation left behind stay readable for time
travel::

    table_dir/
      CURRENT              text file naming the live generation
      _table.000000.json   one immutable manifest per published generation
      _table.000001.json
      shard-00000.rps
      shard-00001.g000001.rps
      shard-00000.rps.000001.dv   deletion-vector sidecar (bit = deleted)
      wal-000001.log       (mutated tables) the live generation's WAL

Directories written before the chain existed hold a lone ``_table.json``
and no pointer.  They stay readable through this module alone —
:func:`read_manifest`, :func:`list_versions` and
:func:`manifest_generation` treat that file as the manifest of
generation 0 — and nothing writes one any more.

Each shard file is self-describing — concatenated codec envelopes
(:mod:`repro.codecs.envelope`, so any chunk revives via
``codecs.from_bytes``) followed by a footer catalog (layout version 2)::

    +------+-----+----------------------+-------------+-----+-----+------+
    | RPSH | ver | chunk envelopes      | footer JSON | crc | len | RPSF |
    | 4 B  | 1 B | RPRC... RPRC... ...  | utf-8       | 4 B | 8 B | 4 B  |
    +------+-----+----------------------+-------------+-----+-----+------+

The footer carries, per column chunk: byte extent, row extent, the codec
that encoded it, its **zone map** — conservative ``[zmin, zmax]`` value
bounds taken from the codec's ``model_bounds()`` where exposed (LeCo's
model + residual-width band) and computed from the raw values otherwise
— and the **crc32 of its envelope bytes**, verified when the chunk is
revived on a cache miss.  The 4-byte crc32 of the footer JSON itself
sits between the body and its length, so a corrupted catalog (flipped
zone maps would silently mis-prune) is detected before it is trusted.
Version-1 files — no chunk or footer checksums — remain fully readable;
their chunks simply skip verification.  Readers parse the footer from
the end of the file, so a scan never touches chunk bytes the zone maps
prune.  Everything malformed raises :class:`ValueError`.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from repro import faults

#: shard file leading magic
SHARD_MAGIC = b"RPSH"
#: shard file trailing magic (after the footer length)
FOOTER_MAGIC = b"RPSF"
#: deletion-vector sidecar magic
DV_MAGIC = b"RPDV"
#: current shard layout version (2 = checksummed chunks + footer)
VERSION = 2
#: first shard layout version carrying crc32 checksums
CHECKSUM_VERSION = 2
#: deletion-vector sidecar layout version
DV_VERSION = 1
#: generation pointer file name
CURRENT_NAME = "CURRENT"
#: manifest format identifier
MANIFEST_FORMAT = "repro.store"

#: leading header: magic + version byte
HEADER_LEN = len(SHARD_MAGIC) + 1
#: trailing bytes after the footer body: 8-byte LE length + magic
TRAILER_LEN = 8 + len(FOOTER_MAGIC)
#: extra trailing bytes in checksummed (v2+) shards: footer-body crc32
FOOTER_CRC_LEN = 4
#: dv sidecar header: magic + version + 8-byte LE row count + 4-byte crc
DV_HEADER_LEN = len(DV_MAGIC) + 1 + 8 + 4

_GEN_MANIFEST_RE = re.compile(r"_table\.(\d{6})\.json$")
#: the lone manifest of a directory written before the generation chain
_LEGACY_MANIFEST_NAME = "_table.json"


@dataclass(frozen=True)
class ChunkMeta:
    """Catalog entry for one encoded column chunk inside a shard."""

    column: str
    row_start: int        # first row, local to the shard
    n_rows: int
    offset: int           # byte offset of the envelope inside the file
    nbytes: int           # envelope length in bytes
    codec: str            # registry name that encoded the chunk
    zmin: int             # zone map: conservative minimum value
    zmax: int             # zone map: conservative maximum value
    bounds: str           # "model" (codec-derived) or "computed"
    crc: int | None = None  # crc32 of the envelope bytes (None: v1 file,
    #                         written before checksums — never verified)


#: a chunk's catalog entry is its fields, in order, all JSON scalars
_CHUNK_FIELDS = tuple(f.name for f in fields(ChunkMeta))


@dataclass(frozen=True)
class ShardFooter:
    """Parsed footer catalog of one shard file."""

    row_start: int        # first row, global to the table
    n_rows: int
    chunks: tuple[ChunkMeta, ...]

    def column_chunks(self, column: str) -> tuple[ChunkMeta, ...]:
        return tuple(c for c in self.chunks if c.column == column)


def pack_footer(footer: ShardFooter) -> bytes:
    """Serialise the footer catalog + trailer (appended after the chunks).

    The body's crc32 sits between the JSON and its length (v2 layout),
    so a reader validates the catalog before trusting a single zone map.
    """
    doc = {
        "version": VERSION,
        "row_start": footer.row_start,
        "n_rows": footer.n_rows,
        "chunks": [{name: getattr(chunk, name) for name in _CHUNK_FIELDS}
                   for chunk in footer.chunks],
    }
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return (body + zlib.crc32(body).to_bytes(4, "little")
            + len(body).to_bytes(8, "little") + FOOTER_MAGIC)


def unpack_footer(blob: bytes) -> ShardFooter:
    """Parse a whole shard image's footer (header is validated too)."""
    if len(blob) < HEADER_LEN + TRAILER_LEN:
        raise ValueError(
            f"truncated shard: {len(blob)} bytes is shorter than the "
            f"{HEADER_LEN + TRAILER_LEN}-byte minimum")
    if blob[:4] != SHARD_MAGIC:
        raise ValueError(
            f"not a repro store shard (magic {bytes(blob[:4])!r}, "
            f"expected {SHARD_MAGIC!r})")
    version = blob[4]
    if version > VERSION:
        raise ValueError(
            f"shard format version {version} is newer than the supported "
            f"version {VERSION}; upgrade the reader")
    if blob[-4:] != FOOTER_MAGIC:
        raise ValueError("shard trailer magic missing (truncated file?)")
    body_len = int.from_bytes(blob[-TRAILER_LEN:-4], "little")
    body_end = len(blob) - TRAILER_LEN
    crc_len = FOOTER_CRC_LEN if version >= CHECKSUM_VERSION else 0
    if body_len > body_end - HEADER_LEN - crc_len:
        raise ValueError(
            f"footer declares {body_len} bytes, shard too short")
    body = bytes(blob[body_end - crc_len - body_len: body_end - crc_len])
    if crc_len:
        crc = int.from_bytes(blob[body_end - crc_len: body_end], "little")
        if zlib.crc32(body) != crc:
            raise ValueError(
                "shard footer checksum mismatch (corrupt catalog: "
                "zone maps and chunk extents are not trustworthy)")
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt shard footer: {exc}") from None
    chunks = tuple(ChunkMeta(**c) for c in doc["chunks"])
    return ShardFooter(row_start=doc["row_start"], n_rows=doc["n_rows"],
                       chunks=chunks)


@dataclass(frozen=True)
class Manifest:
    """The table-level catalog (one immutable generation of it).

    ``shards`` entries are ``{"file", "row_start", "n_rows"}`` dicts; a
    mutated table's entries may additionally carry ``"dv"`` — the name
    of the shard's deletion-vector sidecar for this generation — and
    ``"live_rows"`` (rows the vector leaves visible).
    """

    columns: tuple[str, ...]
    n_rows: int
    shard_rows: int
    chunk_rows: int
    codecs: dict[str, str] = field(default_factory=dict)  # requested, per col
    shards: tuple[dict, ...] = ()
    generation: int = 0

    @property
    def live_rows(self) -> int:
        """Rows visible after deletion vectors (physical when none)."""
        return sum(entry.get("live_rows", entry["n_rows"])
                   for entry in self.shards)


def shard_file_name(index: int, generation: int | None = None) -> str:
    """Shard file name; generation-suffixed names never collide across
    the commits of a table's manifest chain."""
    if generation is None:
        return f"shard-{index:05d}.rps"
    return f"shard-{index:05d}.g{generation:06d}.rps"


def dv_file_name(shard_file: str, generation: int) -> str:
    """Deletion-vector sidecar name for one shard at one generation."""
    return f"{shard_file}.{generation:06d}.dv"


def manifest_file_name(generation: int) -> str:
    return f"_table.{generation:06d}.json"


def manifest_generation(name: str) -> int | None:
    """The generation whose manifest the file ``name`` is (``None`` for
    every other file); the pre-chain ``_table.json`` is generation 0."""
    if name == _LEGACY_MANIFEST_NAME:
        return 0
    match = _GEN_MANIFEST_RE.fullmatch(name)
    return int(match.group(1)) if match else None


def write_atomic(path: str, data: bytes, point: str = "atomic") -> None:
    """Publish ``data`` at ``path`` via a same-directory rename, so a
    concurrent reader sees the old file or the new one, never a torn
    half-written mix.

    ``point`` names the fault-injection hooks (``{point}.write`` /
    ``.fsync`` / ``.rename``) so the crash-matrix suite can kill the
    protocol between any two of its steps.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        faults.write_through(f"{point}.write", fh, data)
        fh.flush()
        faults.fire(f"{point}.fsync", path=tmp)
        os.fsync(fh.fileno())
    faults.fire(f"{point}.rename", src=tmp, dst=path)
    os.replace(tmp, path)


def write_manifest(directory: str, manifest: Manifest,
                   generation: int) -> None:
    """Write the immutable ``_table.<gen>.json`` of one generation
    (atomically).  The publish only becomes visible once
    :func:`write_current` swaps the pointer to it."""
    doc = {
        "format": MANIFEST_FORMAT,
        "version": VERSION,
        "generation": generation,
        "columns": list(manifest.columns),
        "n_rows": manifest.n_rows,
        "shard_rows": manifest.shard_rows,
        "chunk_rows": manifest.chunk_rows,
        "codecs": dict(manifest.codecs),
        "shards": list(manifest.shards),
    }
    body = json.dumps(doc, indent=1).encode("utf-8")
    write_atomic(os.path.join(directory, manifest_file_name(generation)),
                 body, point="manifest")


def read_current(directory: str) -> int | None:
    """The generation the ``CURRENT`` pointer names (``None``: the
    directory has no pointer — a pre-chain table, or not a table)."""
    path = os.path.join(directory, CURRENT_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().strip()
    except FileNotFoundError:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"corrupt {CURRENT_NAME} pointer {text!r} in {directory!r}"
        ) from None


def write_current(directory: str, generation: int) -> None:
    """Atomically point ``CURRENT`` at ``generation`` — the commit."""
    write_atomic(os.path.join(directory, CURRENT_NAME),
                  f"{generation}\n".encode("utf-8"), point="current")


def list_versions(directory: str) -> list[int]:
    """Published generations, oldest first — exactly the ``version=``
    values :func:`read_manifest` opens (empty: not a table).

    Only generations the ``CURRENT`` pointer has reached count: a
    manifest staged by a publish that crashed before the pointer swap is
    an orphan, not a version (the next mutable open reaps it).
    """
    current = read_current(directory)
    if current is None:
        legacy = os.path.join(directory, _LEGACY_MANIFEST_NAME)
        return [0] if os.path.exists(legacy) else []
    gens = []
    for name in os.listdir(directory):
        match = _GEN_MANIFEST_RE.fullmatch(name)
        if match and int(match.group(1)) <= current:
            gens.append(int(match.group(1)))
    return sorted(gens)


def read_manifest(directory: str, version: int | None = None) -> Manifest:
    """Read one published manifest: a pinned ``version`` generation,
    else whatever ``CURRENT`` points at."""
    current = read_current(directory)
    name = None
    if current is None:
        # a pre-chain directory: its lone manifest is generation 0
        current, name = 0, _LEGACY_MANIFEST_NAME
    if version is None:
        version = current
    path = os.path.join(directory, name or manifest_file_name(version))
    if version > current or not os.path.exists(path):
        published = ", ".join(str(g) for g in list_versions(directory))
        if not published:
            raise ValueError(f"{directory!r} is not a store table "
                             "(no published generation)")
        raise ValueError(f"no manifest for version {version} in "
                         f"{directory!r} (published: {published})")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"foreign manifest format {doc.get('format')!r}")
    if doc.get("version", 0) > VERSION:
        raise ValueError(
            f"manifest format version {doc.get('version')} is newer than "
            f"the supported version {VERSION}; upgrade the reader")
    return Manifest(
        columns=tuple(doc["columns"]),
        n_rows=doc["n_rows"],
        shard_rows=doc["shard_rows"],
        chunk_rows=doc["chunk_rows"],
        codecs=dict(doc.get("codecs", {})),
        shards=tuple(doc.get("shards", ())),
        generation=int(doc.get("generation", version)),
    )


# ------------------------------------------------------- deletion vectors
def pack_deletion_vector(deleted: np.ndarray) -> bytes:
    """Serialise a shard-local deleted-row bitmap (bit set = deleted)."""
    deleted = np.asarray(deleted, dtype=bool)
    payload = np.packbits(deleted).tobytes()
    return (DV_MAGIC + bytes([DV_VERSION])
            + len(deleted).to_bytes(8, "little")
            + zlib.crc32(payload).to_bytes(4, "little")
            + payload)


def unpack_deletion_vector(blob: bytes) -> np.ndarray:
    """Parse a sidecar back into a boolean deleted mask."""
    if len(blob) < DV_HEADER_LEN or blob[:4] != DV_MAGIC:
        raise ValueError(
            f"not a deletion-vector sidecar (magic {bytes(blob[:4])!r}, "
            f"expected {DV_MAGIC!r})")
    if blob[4] > DV_VERSION:
        raise ValueError(
            f"deletion-vector version {blob[4]} is newer than the "
            f"supported version {DV_VERSION}; upgrade the reader")
    n_rows = int.from_bytes(blob[5:13], "little")
    crc = int.from_bytes(blob[13:17], "little")
    payload = blob[DV_HEADER_LEN:]
    if len(payload) != (n_rows + 7) // 8:
        raise ValueError(
            f"deletion vector for {n_rows} rows wants "
            f"{(n_rows + 7) // 8} payload bytes, found {len(payload)}")
    if zlib.crc32(payload) != crc:
        raise ValueError("deletion-vector checksum mismatch (corrupt "
                         "sidecar)")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                         count=n_rows)
    return bits.astype(bool)
