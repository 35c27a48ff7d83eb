"""Figure 21 — CPU/IO breakdown of block compression on the query path.

Repeats the bitmap-selection query (ml, selectivity 0.01%) with block
compression on and off, for Default/FOR/LeCo encodings.  The paper's
finding: zstd's I/O savings are outweighed by its decompression CPU — the
motivation for lightweight compression in §2.
"""

from repro.datasets import load
from repro.engine import (
    ParquetLikeFile,
    run_bitmap_aggregation,
    zipf_cluster_bitmap,
)

TITLE = "Figure 21: time breakdown with block compression"
CAPTION = ("bitmap query on ml at 0.01% selectivity (ms); block "
           "decompression CPU vs I/O savings")
COLUMNS = (("encoding", "{}"), ("zstd", "{}"), ("file", "{:.3f}MB"),
           ("cpu ms", "{:.2f}"), ("io ms", "{:.3f}"), ("total ms", "{:.2f}"))
N = 60_000
ENCODINGS = ("dict", "for", "leco")


def rows() -> list[tuple]:
    values = load("ml", n=N).values
    bitmap = zipf_cluster_bitmap(N, 0.0001, seed=3)
    out = []
    for enc in ENCODINGS:
        for compressed in (False, True):
            file = ParquetLikeFile.write({"v": values}, enc,
                                         row_group_size=10_000,
                                         partition_size=1000,
                                         block_compression=compressed)
            result = run_bitmap_aggregation(file, "v", bitmap)
            out.append((enc, "on" if compressed else "off",
                        file.file_size_bytes() / 1e6,
                        result.cpu_groupby_s * 1e3, result.io_s * 1e3,
                        result.total_s * 1e3))
    return out


def _cell(rows, encoding: str, zstd: str, column: int) -> float:
    return next(r[column] for r in rows if r[:2] == (encoding, zstd))


CLAIMS = (
    ("zstd's I/O saving is outweighed by its decompression CPU where it "
     "compresses most (Default encoding): CPU added exceeds I/O saved",
     lambda rows: _cell(rows, "dict", "on", 3) - _cell(rows, "dict", "off", 3)
     > _cell(rows, "dict", "off", 4) - _cell(rows, "dict", "on", 4)),
)
