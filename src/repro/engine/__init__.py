"""Paper §5.1 engine substrate for Figs. 14, 18–21; not on the serving path."""

from repro.engine.array import ENCODINGS, EncodedColumn
from repro.engine.blockzstd import block_compress, block_decompress
from repro.engine.dictjoin import ProbeResult, run_hash_probe
from repro.engine.io import IOModel
from repro.engine.ops import zipf_cluster_bitmap
from repro.engine.parquet import (
    ColumnChunk,
    ParquetLikeFile,
    ParquetSource,
    RowGroup,
)
from repro.engine.queries import (
    QueryResult,
    run_bitmap_aggregation,
    run_filter_groupby_query,
)

__all__ = [
    "ENCODINGS",
    "EncodedColumn",
    "block_compress",
    "block_decompress",
    "ProbeResult",
    "run_hash_probe",
    "IOModel",
    "zipf_cluster_bitmap",
    "ColumnChunk",
    "ParquetLikeFile",
    "ParquetSource",
    "RowGroup",
    "QueryResult",
    "run_bitmap_aggregation",
    "run_filter_groupby_query",
]
