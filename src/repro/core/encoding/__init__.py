"""Encoder/Decoder and the self-describing storage format (paper §3.3)."""

from repro.core.encoding.encoder import (
    LecoEncoder,
    encode_partition,
    encode_rows,
)
from repro.core.encoding.format import (
    CompressedArray,
    Partition,
    accumulate_predictions,
)

__all__ = [
    "LecoEncoder",
    "encode_partition",
    "encode_rows",
    "CompressedArray",
    "Partition",
    "accumulate_predictions",
]
