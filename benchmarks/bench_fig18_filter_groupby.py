"""Figure 18 — filter-groupby-aggregation query time vs selectivity (§5.1.1).

    SELECT AVG(val) FROM T WHERE ts_begin < ts < ts_end GROUP BY id

over a sensor table (ts/id/val) in two flavours — ``random`` (id and val
incompressible) and ``correlated`` (clustered ids, trending vals) — with
Default (dictionary), Delta, FOR, and LeCo column encodings.  Reports the
CPU (filter/groupby) and simulated-I/O breakdown per selectivity.  The
paper's finding: LeCo's smaller file cuts I/O at FOR-like CPU cost, while
Delta pays for decoding sequentially.
"""

import numpy as np

from repro.datasets.synthetic import gen_ml
from repro.engine import ParquetLikeFile, run_filter_groupby_query

TITLE = "Figure 18: filter-groupby-aggregation"
CAPTION = "per-encoding CPU/IO breakdown across selectivities (ms)"
COLUMNS = (("flavour", "{}"), ("selectivity", "{:.2%}"), ("encoding", "{}"),
           ("file", "{:.2f}MB"), ("filter ms", "{:.1f}"),
           ("groupby ms", "{:.1f}"), ("io ms", "{:.2f}"),
           ("total ms", "{:.1f}"))
N = 60_000
SELECTIVITIES = (0.0001, 0.001, 0.01, 0.1)
ENCODINGS = ("dict", "delta", "for", "leco")


def make_sensor_table(n: int, flavour: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    ts = gen_ml(n, seed)
    if flavour == "random":
        ids = rng.integers(1, 10_000, n).astype(np.int64)
        vals = rng.integers(0, 1 << 40, n).astype(np.int64)
    else:  # correlated: clustered ids, vals trending across groups
        ids = (np.arange(n) // 100 % 10_000).astype(np.int64)
        base = (np.arange(n) // 100) * 1000
        vals = base + rng.integers(0, 1000, n)
    return {"ts": ts, "id": ids, "val": vals.astype(np.int64)}


def rows() -> list[tuple]:
    out = []
    for flavour in ("random", "correlated"):
        table = make_sensor_table(N, flavour)
        ts = table["ts"]
        files = {
            enc: ParquetLikeFile.write(table, enc, row_group_size=20_000,
                                       partition_size=1000)
            for enc in ENCODINGS
        }
        for sel in SELECTIVITIES:
            span = max(int(N * sel), 1)
            lo = int(ts[N // 3])
            hi = int(ts[min(N // 3 + span, N - 1)])
            reference = None
            for enc in ENCODINGS:
                result = run_filter_groupby_query(files[enc], lo, hi)
                if reference is None:
                    reference = result.answer
                assert result.answer == reference, enc
                out.append((
                    flavour, sel, enc, files[enc].file_size_bytes() / 1e6,
                    result.cpu_filter_s * 1e3, result.cpu_groupby_s * 1e3,
                    result.io_s * 1e3, result.total_s * 1e3))
    return out


def _total(rows, encoding: str, column: int) -> float:
    return sum(r[column] for r in rows if r[2] == encoding)


CLAIMS = (
    ("LeCo's file is no larger than FOR's or Default's on both tables",
     lambda rows: all(r[3] <= other[3] for r in rows if r[2] == "leco"
                      for other in rows
                      if other[:2] == r[:2] and other[2] in ("for", "dict"))),
    ("Delta pays for decoding sequentially: summed over the sweep its "
     "filter CPU exceeds LeCo's",
     lambda rows: _total(rows, "delta", 4) > _total(rows, "leco", 4)),
)
