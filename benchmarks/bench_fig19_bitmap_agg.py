"""Figure 19 — single-column bitmap aggregation vs selectivity (§5.1.2).

Sum the bitmap-selected entries of one column (normal, booksale, poisson,
ml), with zipf-clustered bitmaps, skipping row groups whose bitmap region is
empty.  LeCo's advantage combines I/O reduction with random-access decode of
only the selected entries.
"""

from repro.datasets import load
from repro.engine import (
    ParquetLikeFile,
    run_bitmap_aggregation,
    zipf_cluster_bitmap,
)

TITLE = "Figure 19: bitmap aggregation"
CAPTION = ("CPU/IO per encoding and selectivity (ms); row groups with empty "
           "bitmap regions are skipped")
COLUMNS = (("dataset", "{}"), ("selectivity", "{:.2%}"), ("encoding", "{}"),
           ("cpu ms", "{:.1f}"), ("io ms", "{:.2f}"), ("total ms", "{:.1f}"))
N = 60_000
DATASETS = ("normal", "booksale", "poisson", "ml")
ENCODINGS = ("dict", "delta", "for", "leco")
SELECTIVITIES = (0.0001, 0.001, 0.01, 0.1)


def rows() -> list[tuple]:
    out = []
    for name in DATASETS:
        values = load(name, n=N).values
        files = {
            enc: ParquetLikeFile.write({"val": values}, enc,
                                       row_group_size=10_000,
                                       partition_size=1000)
            for enc in ENCODINGS
        }
        for sel in SELECTIVITIES:
            bitmap = zipf_cluster_bitmap(N, sel, seed=7)
            reference = None
            for enc in ENCODINGS:
                result = run_bitmap_aggregation(files[enc], "val", bitmap)
                if reference is None:
                    reference = result.answer
                assert result.answer == reference, (name, enc)
                out.append((name, sel, enc, result.cpu_groupby_s * 1e3,
                            result.io_s * 1e3, result.total_s * 1e3))
    return out


def _total(rows, encoding: str, column: int) -> float:
    return sum(r[column] for r in rows if r[2] == encoding)


CLAIMS = (
    ("I/O reduction: LeCo's simulated I/O is below FOR's and Default's on "
     "every dataset and selectivity",
     lambda rows: all(r[4] < other[4] for r in rows if r[2] == "leco"
                      for other in rows
                      if other[:2] == r[:2] and other[2] in ("for", "dict"))),
    ("random-access decode of the selected entries keeps LeCo's CPU within "
     "3x of FOR's, summed over the sweep",
     lambda rows: _total(rows, "leco", 3) <= 3 * _total(rows, "for", 3)),
)
