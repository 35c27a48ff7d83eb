"""Paper §5.2 LSM key-value substrate for Fig. 22; not on the serving path."""

from repro.kvstore.blocks import (
    DEFAULT_BLOCK_SIZE,
    parse_block,
    serialize_block,
    shortest_separator,
    split_into_blocks,
)
from repro.kvstore.index_codecs import (
    IndexBlock,
    LecoIndex,
    RestartDeltaIndex,
)
from repro.kvstore.sstable import (
    IOModel,
    LRUBlockCache,
    MiniLSM,
    SeekStats,
    SSTable,
)
from repro.kvstore.ycsb import make_records, skewed_seek_keys

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "parse_block",
    "serialize_block",
    "shortest_separator",
    "split_into_blocks",
    "IndexBlock",
    "LecoIndex",
    "RestartDeltaIndex",
    "IOModel",
    "LRUBlockCache",
    "MiniLSM",
    "SeekStats",
    "SSTable",
    "make_records",
    "skewed_seek_keys",
]
