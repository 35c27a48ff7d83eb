"""Figure 20 — file sizes with block compression stacked on top (§5.1.3).

Writes normal/booksale/poisson/ml columns as files under Default, FOR, and
LeCo encodings, with and without the zstd stand-in (DEFLATE), reporting the
additional improvement block compression brings.  The paper's observation:
LeCo + zstd still improves (serial redundancy removal is complementary to
general-purpose block compression).
"""

from repro.datasets import load
from repro.engine import ParquetLikeFile

TITLE = "Figure 20: Parquet with block compression"
CAPTION = ("file sizes without/with the zstd stand-in; last column is the "
           "additional improvement from block compression")
COLUMNS = (("dataset", "{}"), ("encoding", "{}"), ("plain", "{:.3f}MB"),
           ("+zstd", "{:.3f}MB"), ("gain", "{:.1f}x"))
N = 60_000
DATASETS = ("normal", "booksale", "poisson", "ml")
ENCODINGS = ("dict", "for", "leco")


def rows() -> list[tuple]:
    out = []
    for name in DATASETS:
        values = load(name, n=N).values
        for enc in ENCODINGS:
            plain, squeezed = (
                ParquetLikeFile.write({"v": values}, enc, partition_size=1000,
                                      block_compression=compressed
                                      ).file_size_bytes()
                for compressed in (False, True))
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
