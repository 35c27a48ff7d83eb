"""Figure 20 — file sizes with block compression stacked on top (§5.1.3).

Writes normal/booksale/poisson/ml columns into the store under Default,
FOR, and LeCo encodings, then DEFLATEs (the zstd stand-in: the standard
library's zlib, a real general-purpose block compressor) each stored chunk,
reporting the additional improvement block compression brings.  The
paper's observation: LeCo + zstd still improves (serial redundancy removal
is complementary to general-purpose block compression).
"""

import zlib

from repro.bench import cold_table
from repro.datasets import load

TITLE = "Figure 20: Parquet with block compression"
CAPTION = ("file sizes without/with the zstd stand-in; last column is the "
           "additional improvement from block compression")
COLUMNS = (("dataset", "{}"), ("encoding", "{}"), ("plain", "{:.3f}MB"),
           ("+zstd", "{:.3f}MB"), ("gain", "{:.1f}x"))
N = 60_000
DATASETS = ("normal", "booksale", "poisson", "ml")
ENCODINGS = ("dict", "for", "leco")
#: the zstd stand-in's compression level
LEVEL = 3


def rows() -> list[tuple]:
    out = []
    for name in DATASETS:
        values = load(name, n=N).values
        for enc in ENCODINGS:
            with cold_table({"v": values}, enc, chunk_rows=N) as table:
                plain = table.stored_bytes()
                squeezed = sum(
                    len(zlib.compress(table.chunk_bytes(i, meta), LEVEL))
                    for i, shard in enumerate(table.shards)
                    for meta in shard.footer.chunks)
            out.append((name, enc, plain / 1e6, squeezed / 1e6,
                        plain / max(squeezed, 1)))
    return out


def _zstd_size(rows, encoding: str) -> dict:
    return {r[0]: r[3] for r in rows if r[1] == encoding}


CLAIMS = (
    ("LeCo + zstd still improves: block compression shrinks the LeCo file "
     "on every dataset",
     lambda rows: all(r[3] < r[2] for r in rows if r[1] == "leco")),
    ("LeCo + zstd stays smaller than FOR + zstd on every dataset",
     lambda rows: all(size < _zstd_size(rows, "for")[name]
                      for name, size in _zstd_size(rows, "leco").items())),
)
