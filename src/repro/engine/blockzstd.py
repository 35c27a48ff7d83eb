"""Block compression layer standing in for zstd (paper §5.1.3).

The environment is offline, so instead of zstd we use the standard
library's DEFLATE (zlib) — a real general-purpose block compressor with a
genuine CPU cost, exercising exactly the code path the paper studies:
block compression stacked on top of lightweight encodings, buying extra
ratio at a decompression-CPU price.
"""

from __future__ import annotations

import zlib


def block_compress(data: bytes, level: int = 3) -> bytes:
    """Compress one block (zstd stand-in)."""
    return zlib.compress(data, level)


def block_decompress(data: bytes) -> bytes:
    return zlib.decompress(data)
