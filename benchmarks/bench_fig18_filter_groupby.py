"""Figure 18 — filter-groupby-aggregation query time vs selectivity (§5.1.1).

    SELECT AVG(val) FROM T WHERE ts_begin < ts < ts_end GROUP BY id

over a sensor table (ts/id/val) in two flavours — ``random`` (id and val
incompressible) and ``correlated`` (clustered ids, trending vals) — with
Default (dictionary), Delta, FOR, and LeCo column encodings.  Each table
is written into the store and read cold; a query's I/O time is the bytes
and reads it counted, at the NVMe rates below.  Reports the CPU
(filter/groupby) and I/O breakdown per selectivity.  The paper's finding:
LeCo's smaller file cuts I/O at FOR-like CPU cost, while Delta pays for
decoding sequentially.
"""

import numpy as np

from repro.bench import cold_table
from repro.datasets.synthetic import gen_ml
from repro.exec import Plan, col, execute
from repro.store import StoreSource

TITLE = "Figure 18: filter-groupby-aggregation"
CAPTION = "per-encoding CPU/IO breakdown across selectivities (ms)"
COLUMNS = (("flavour", "{}"), ("selectivity", "{:.2%}"), ("encoding", "{}"),
           ("file", "{:.2f}MB"), ("filter ms", "{:.1f}"),
           ("groupby ms", "{:.1f}"), ("io ms", "{:.2f}"),
           ("total ms", "{:.1f}"))
N = 60_000
SELECTIVITIES = (0.0001, 0.001, 0.01, 0.1)
ENCODINGS = ("dict", "delta", "for", "leco")
#: the I/O model: ~2 GB/s sequential NVMe reads, 100 us per read
BANDWIDTH = 2e9
LATENCY_S = 100e-6


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
        columns = make_sensor_table(N, flavour)
        ts = columns["ts"]
        plans = []
        for sel in SELECTIVITIES:
            span = max(int(N * sel), 1)
            lo = int(ts[N // 3])
            hi = int(ts[min(N // 3 + span, N - 1)])
            plans.append(Plan.scan(["id", "val"])
                         .where(col("ts").between(lo, hi))
                         .aggregate({"avg": ("avg", "val")},
                                    group_by="id"))
        answers = {}
        for enc in ENCODINGS:
            with cold_table(columns, enc, chunk_rows=20_000) as table:
                for sel, plan in zip(SELECTIVITIES, plans):
                    res = execute(plan, StoreSource(table))
                    assert answers.setdefault(sel, res.groups) \
                        == res.groups, enc
                    st = res.stats
                    disk_s = st.bytes_read / BANDWIDTH + st.reads * LATENCY_S
                    out.append((
                        flavour, sel, enc, table.stored_bytes() / 1e6,
                        st.cpu_filter_s * 1e3,
                        (st.cpu_gather_s + st.cpu_aggregate_s) * 1e3,
                        disk_s * 1e3, (st.cpu_s + disk_s) * 1e3))
    # the table in the paper's order: selectivity-major, then encoding
    return sorted(out, key=lambda r: (r[0] == "correlated", r[1],
                                      ENCODINGS.index(r[2])))


def _total(rows, encoding: str, column: int) -> float:
    return sum(r[column] for r in rows if r[2] == encoding)


CLAIMS = (
    ("LeCo's file is no larger than FOR's or Default's on both tables",
     lambda rows: all(r[3] <= other[3] for r in rows if r[2] == "leco"
                      for other in rows
                      if other[:2] == r[:2] and other[2] in ("for", "dict"))),
    ("Delta pays for decoding sequentially: summed over the sweep its "
     "filter CPU is at least twice LeCo's",
     lambda rows: _total(rows, "delta", 4) >= 2 * _total(rows, "leco", 4)),
)
