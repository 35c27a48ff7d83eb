"""Figure 19 — single-column bitmap aggregation vs selectivity (§5.1.2).

Sum the bitmap-selected entries of one column (normal, booksale, poisson,
ml), with zipf-clustered bitmaps, skipping chunks whose bitmap region is
empty.  Each column is written into the store and read cold; a query's I/O
time is the bytes and reads it counted, at the NVMe rates below.  LeCo's
advantage combines I/O reduction with random-access decode of only the
selected entries.
"""

from repro.bench import cold_table
from repro.datasets import load
from repro.datasets.synthetic import zipf_cluster_bitmap
from repro.exec import Bitmap, Plan, execute
from repro.store import StoreSource

TITLE = "Figure 19: bitmap aggregation"
CAPTION = ("CPU/IO per encoding and selectivity (ms); chunks with empty "
           "bitmap regions are skipped")
COLUMNS = (("dataset", "{}"), ("selectivity", "{:.2%}"), ("encoding", "{}"),
           ("cpu ms", "{:.1f}"), ("io ms", "{:.2f}"), ("total ms", "{:.1f}"))
N = 60_000
DATASETS = ("normal", "booksale", "poisson", "ml")
ENCODINGS = ("dict", "delta", "for", "leco")
SELECTIVITIES = (0.0001, 0.001, 0.01, 0.1)
#: the I/O model: ~2 GB/s sequential NVMe reads, 100 us per read
BANDWIDTH = 2e9
LATENCY_S = 100e-6


def rows() -> list[tuple]:
    bitmaps = [zipf_cluster_bitmap(N, sel, seed=7) for sel in SELECTIVITIES]
    out = []
    for name in DATASETS:
        values = load(name, n=N).values
        for enc in ENCODINGS:
            with cold_table({"val": values}, enc,
                            chunk_rows=10_000) as table:
                for sel, bitmap in zip(SELECTIVITIES, bitmaps):
                    plan = (Plan.scan(["val"]).where(Bitmap(bitmap))
                            .aggregate({"total": ("sum", "val")}))
                    res = execute(plan, StoreSource(table))
                    assert res.groups[None]["total"] \
                        == int(values[bitmap].sum()), (name, enc)
                    st = res.stats
                    disk_s = st.bytes_read / BANDWIDTH + st.reads * LATENCY_S
                    out.append((name, sel, enc, st.cpu_s * 1e3, disk_s * 1e3,
                                (st.cpu_s + disk_s) * 1e3))
    # the table in the paper's order: selectivity-major, then encoding
    return sorted(out, key=lambda r: (DATASETS.index(r[0]), r[1],
                                      ENCODINGS.index(r[2])))


def _total(rows, encoding: str, column: int) -> float:
    return sum(r[column] for r in rows if r[2] == encoding)


CLAIMS = (
    ("I/O reduction: LeCo's I/O is below FOR's and Default's on "
     "every dataset and selectivity",
     lambda rows: all(r[4] < other[4] for r in rows if r[2] == "leco"
                      for other in rows
                      if other[:2] == r[:2] and other[2] in ("for", "dict"))),
    ("random-access decode of the selected entries keeps LeCo's CPU within "
     "3x of FOR's, summed over the sweep",
     lambda rows: _total(rows, "leco", 3) <= 3 * _total(rows, "for", 3)),
)
