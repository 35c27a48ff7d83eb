"""Columnar analytics on LeCo-encoded sensor data (paper §5.1).

The paper's motivating query: 10k sensors log (timestamp, id, reading);
analysts run highly selective filter-groupby-aggregation queries.  This
example writes the table into the persistent store (in a temporary
directory) under different encodings, opens it cold, and compares the full
query pipeline — zone-map pruning, filter pushdown, late-materialised
groupby — including the bytes each query read.

Run:  python examples/sensor_analytics.py
"""

import numpy as np

from repro.bench import cold_table
from repro.datasets.synthetic import gen_ml
from repro.exec import Plan, col, execute
from repro.store import StoreSource

N = 80_000
rng = np.random.default_rng(7)

print("building sensor table:", N, "rows (ts, id, val)")
ids = (np.arange(N) // 100 % 10_000).astype(np.int64)     # clustered ids
vals = (np.arange(N) // 100) * 1000 + rng.integers(0, 1000, N)
columns = {"ts": gen_ml(N), "id": ids, "val": vals.astype(np.int64)}

# a one-hour-style window: ~0.5% of the rows
ts = columns["ts"]
lo, hi = int(ts[N // 2]), int(ts[N // 2 + N // 200])
plan = (Plan.scan(["id", "val"])
        .where(col("ts").between(lo, hi))
        .aggregate({"avg": ("avg", "val")}, group_by="id"))

print(f"\nquery: SELECT AVG(val) WHERE {lo} <= ts < {hi} GROUP BY id\n")
print(f"{'encoding':>8}  {'file':>9}  {'filter':>9}  {'groupby':>9}  "
      f"{'read':>9}  {'chunks':>6}")
reference = None
for encoding in ("dict", "delta", "for", "leco"):
    with cold_table(columns, encoding, chunk_rows=20_000) as table:
        result = execute(plan, StoreSource(table))
        stored = table.stored_bytes()
    if reference is None:
        reference = result.groups
    assert result.groups == reference, "encodings must agree"
    st = result.stats
    print(f"{encoding:>8}  {stored / 1e6:7.2f}MB  "
          f"{st.cpu_filter_s * 1e3:7.1f}ms  "
          f"{(st.cpu_gather_s + st.cpu_aggregate_s) * 1e3:7.1f}ms  "
          f"{st.bytes_read / 1e3:7.1f}kB  {st.chunks_scanned:>6}")

print(f"\nanswer: {len(reference)} sensor groups; e.g. "
      + str({key: round(row["avg"], 1)
             for key, row in sorted(reference.items())[:3]}))
print("\nLeCo gets the dictionary-free file size of Delta with the "
      "random-access groupby speed of FOR — the paper's §5.1 result.")
