"""``repro.store`` — persistent sharded columnar table store (§5.1 on disk).

The reproduction's first real persistence layer: a table is a directory of
row-group *shard* files, each a sequence of codec-registry envelopes plus
a footer catalog carrying schema, codec ids, row counts, and per-chunk
zone maps.  Reads go through ``mmap``; scans prune whole chunks on zone
maps, push range predicates into the codecs' vectorised paths, gather
projected columns late, and keep revived chunks in a bounded LRU
cache::

    from repro.store import Table, write_table

    write_table("t", {"ts": ts, "id": ids, "val": vals}, codec="auto")
    with Table.open("t") as table:
        res = table.scan(columns=["id", "val"], where=("ts", lo, hi))
        res.columns["val"], res.row_ids, res.stats.bytes_read

Tables mutated through :mod:`repro.mutate` carry a manifest generation
chain: ``Table.open(path, version=g)`` pins any published snapshot
(time travel), ``table.successor()`` opens a later one sharing every
shard file both name, and deletion-vector sidecars mask deleted rows
through the executor's positional ``Bitmap`` machinery.

Since the v2 shard layout every chunk envelope and footer catalog is
crc32-checksummed end to end: a cache-miss revive that fails
verification raises :class:`CorruptChunkError` (or quarantines the
chunk under ``scan(..., on_corruption="skip")``), and the offline
``python -m repro.store scrub`` walks every invariant per shard.

``python -m repro.store`` exposes ``ingest`` / ``scan`` / ``info`` plus
the mutation cycle ``append`` / ``delete`` / ``compact`` / ``versions``
and the integrity check ``scrub``.
"""

from repro.exec.errors import CorruptChunkError
from repro.store.cache import ChunkCache
from repro.store.executor import StoreSource
from repro.store.format import ChunkMeta, Manifest, ShardFooter
from repro.store.scrub import ScrubReport, ShardReport, scrub_table
from repro.store.table import Shard, Table
from repro.store.writer import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_SHARD_ROWS,
    TableWriter,
    write_table,
)

__all__ = [
    "ChunkCache",
    "ChunkMeta",
    "CorruptChunkError",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_SHARD_ROWS",
    "Manifest",
    "ScrubReport",
    "Shard",
    "ShardReport",
    "StoreSource",
    "ShardFooter",
    "Table",
    "TableWriter",
    "scrub_table",
    "write_table",
]
