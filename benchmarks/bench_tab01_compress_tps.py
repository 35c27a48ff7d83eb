"""Table 1 — compression throughput (GB/s), weighted mean ± std.

Six schemes over the twelve integer datasets — a view of Fig. 10's matrix.
The paper's finding: the fixed-partition schemes compress at comparable
speed, while the variable-length partitioners (Delta-var, LeCo-var) are an
order of magnitude slower — the classic ratio-vs-build-time trade.
"""

import numpy as np

from bench_fig10_micro import lineup_by_codec

TITLE = "Table 1: compression throughput (GB/s)"
CAPTION = "mean +- std across the twelve integer datasets"
COLUMNS = (("codec", "{}"), ("mean GB/s", "{:.4f}"), ("std", "{:.4f}"))


def rows() -> list[tuple]:
    out = []
    for label, measurements in lineup_by_codec().items():
        speeds = np.array([m.compress_gbps for m in measurements])
        out.append((label, float(speeds.mean()), float(speeds.std())))
    return out


def _mean(rows) -> dict:
    return {r[0]: r[1] for r in rows}


def _fixed(rows) -> list:
    return [_mean(rows)[c] for c in ("for", "delta-fix", "leco-fix")]


CLAIMS = (
    ("the fixed-partition schemes (FOR, Delta-fix, LeCo-fix) compress "
     "within 3x of each other",
     lambda rows: max(_fixed(rows)) <= 3 * min(_fixed(rows))),
    ("LeCo-var is slower to build than LeCo-fix",
     lambda rows: _mean(rows)["leco-var"] < _mean(rows)["leco-fix"]),
    ("the variable-length partitioners are an order of magnitude slower "
     "than their fixed variants",
     lambda rows: 10 * _mean(rows)["leco-var"] <= _mean(rows)["leco-fix"]
     and 10 * _mean(rows)["delta-var"] <= _mean(rows)["delta-fix"]),
)
