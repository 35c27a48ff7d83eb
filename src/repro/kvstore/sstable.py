"""SSTables and the mini LSM store with a block cache (paper §5.2).

A :class:`MiniLSM` holds a sorted run of SSTables.  Each SSTable has 4KB
data blocks, an index block (pluggable codec), and fence keys.  ``seek``
follows RocksDB's path: route to the SSTable, search its (pinned) index
block, fetch the data block through the LRU cache — misses charge the
block-read model — and binary-search inside the block.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.kvstore.blocks import (
    DEFAULT_BLOCK_SIZE,
    block_lower_bound,
    parse_block,
    serialize_block,
    shortest_separator,
    split_into_blocks,
)
from repro.kvstore.index_codecs import IndexBlock, LecoIndex, RestartDeltaIndex


@dataclass
class IOModel:
    """Block reads charged as ``bytes / bandwidth`` plus a per-read
    latency (the paper's Fig. 22 runs on a local NVMe SSD; these
    defaults are ~2 GB/s sequential and 100 us per I/O)."""

    bandwidth_bytes_per_s: float = 2e9
    latency_s: float = 100e-6
    bytes_read: int = field(default=0, init=False)
    reads: int = field(default=0, init=False)

    def charge(self, nbytes: int) -> None:
        """Record one read of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        self.bytes_read += nbytes
        self.reads += 1

    @property
    def seconds(self) -> float:
        return (self.bytes_read / self.bandwidth_bytes_per_s
                + self.reads * self.latency_s)


class LRUBlockCache:
    """Byte-budgeted LRU over (table id, block id)."""

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self._entries: OrderedDict[tuple[int, int], tuple[list, int]] = (
            OrderedDict())
        self._used = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple[int, int]):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: tuple[int, int], value, nbytes: int) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = (value, nbytes)
        self._used += nbytes
        while self._used > self.capacity and self._entries:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._used -= evicted

    @property
    def used_bytes(self) -> int:
        return self._used


class SSTable:
    """One immutable sorted table."""

    def __init__(self, table_id: int, pairs: list[tuple[bytes, bytes]],
                 index_codec: str, restart_interval: int = 1,
                 block_size: int = DEFAULT_BLOCK_SIZE):
        self.table_id = table_id
        blocks = split_into_blocks(pairs, block_size)
        self._raw_blocks = [serialize_block(b) for b in blocks]
        self.first_key = pairs[0][0]
        self.last_key = pairs[-1][0]

        # RocksDB index keys: shortest separator between adjacent blocks
        separators = []
        for prev, nxt in zip(blocks, blocks[1:]):
            separators.append(shortest_separator(prev[-1][0], nxt[0][0]))
        separators.append(self.last_key)

        if index_codec == "leco":
            self.index: IndexBlock = LecoIndex(separators)
        elif index_codec.startswith("restart"):
            self.index = RestartDeltaIndex(separators, restart_interval)
        else:
            raise ValueError(f"unknown index codec {index_codec!r}")

        # offsets contribute to the index-block size for both schemes
        offsets = []
        acc = 0
        for raw in self._raw_blocks:
            offsets.append(acc)
            acc += len(raw)
        self._offsets = offsets

    @property
    def n_blocks(self) -> int:
        return len(self._raw_blocks)

    def index_bytes(self) -> int:
        return self.index.size_bytes() + 4 * len(self._offsets)

    def block_bytes(self, block_id: int) -> int:
        return len(self._raw_blocks[block_id])

    def read_block(self, block_id: int) -> list[tuple[bytes, bytes]]:
        """Parse a data block from "disk" bytes (real CPU cost)."""
        return parse_block(self._raw_blocks[block_id])


@dataclass
class SeekStats:
    operations: int
    cpu_seconds: float
    io_seconds: float
    cache_hits: int
    cache_misses: int

    @property
    def throughput_mops(self) -> float:
        total = self.cpu_seconds + self.io_seconds
        return self.operations / total / 1e6 if total > 0 else 0.0


class MiniLSM:
    """A sorted run of SSTables with a shared block cache."""

    def __init__(self, pairs: list[tuple[bytes, bytes]], index_codec: str,
                 restart_interval: int = 1,
                 table_records: int = 50_000,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 cache_bytes: int = 8 << 20):
        pairs = sorted(pairs)
        self.tables: list[SSTable] = []
        for tid, start in enumerate(range(0, len(pairs), table_records)):
            chunk = pairs[start: start + table_records]
            self.tables.append(SSTable(tid, chunk, index_codec,
                                       restart_interval, block_size))
        self._fences = [t.first_key for t in self.tables]
        # index blocks are pinned in the cache (the paper's RocksDB config:
        # pin_l0_filter_and_index_blocks_in_cache); whatever budget remains
        # serves data blocks — this is how a smaller index buys throughput
        data_budget = max(cache_bytes - self.index_bytes(), 4096)
        self.cache = LRUBlockCache(data_budget)
        self.io = IOModel()

    def index_bytes(self) -> int:
        return sum(t.index_bytes() for t in self.tables)

    def raw_index_bytes(self) -> int:
        """Uncompressed index layout: whole separator keys + raw handles."""
        total = 0
        for table in self.tables:
            block_count = table.n_blocks
            # whole key (~separator length) + 8-byte offset + 4-byte size
            total += sum(len(table.last_key) + 12 for _ in range(block_count))
        return total

    def seek(self, key: bytes) -> tuple[bytes, bytes] | None:
        """First pair with pair.key >= key (RocksDB Seek semantics)."""
        from bisect import bisect_right

        tid = max(bisect_right(self._fences, key) - 1, 0)
        while tid < len(self.tables):
            table = self.tables[tid]
            if key > table.last_key:
                tid += 1
                continue
            block_id = table.index.lookup(key)
            pairs = self._load_block(table, block_id)
            hit = block_lower_bound(pairs, key)
            if hit is not None:
                return hit
            tid += 1
        return None

    def _load_block(self, table: SSTable, block_id: int
                    ) -> list[tuple[bytes, bytes]]:
        cache_key = (table.table_id, block_id)
        cached = self.cache.get(cache_key)
        if cached is not None:
            return cached
        self.io.charge(table.block_bytes(block_id))
        pairs = table.read_block(block_id)
        self.cache.put(cache_key, pairs, table.block_bytes(block_id))
        return pairs

    def run_seeks(self, keys: list[bytes]) -> SeekStats:
        """Execute seeks, returning this call's CPU/IO/cache breakdown
        (the store's block-read model keeps running totals)."""
        io0 = self.io.seconds
        hits0, misses0 = self.cache.hits, self.cache.misses
        start = time.perf_counter()
        for key in keys:
            self.seek(key)
        cpu = time.perf_counter() - start
        return SeekStats(
            operations=len(keys),
            cpu_seconds=cpu,
            io_seconds=self.io.seconds - io0,
            cache_hits=self.cache.hits - hits0,
            cache_misses=self.cache.misses - misses0,
        )
