"""Encoder/Decoder and the self-describing storage format (paper §3.3)."""

from repro.core.encoding.encoder import LecoEncoder, encode_rows
from repro.core.encoding.format import (
    CompressedArray,
    Rows,
    accumulate_predictions,
    partition_record,
)

__all__ = [
    "LecoEncoder",
    "encode_rows",
    "CompressedArray",
    "Rows",
    "accumulate_predictions",
    "partition_record",
]
