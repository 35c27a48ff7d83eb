"""Ablation (§3.2.2 claim) — split–merge greedy vs the DP optimum.

The paper reports the greedy variable-length partitioner within 3% of the
dynamic-programming optimal plan.  We measure the gap on four dataset
shapes, both plans scored by exact per-partition fits, plus the
wall-clock advantage.
"""

import time

from repro.core.partitioners import (
    OptimalPartitioner,
    SplitMergePartitioner,
    plan_cost_bits,
)
from repro.core.regressors import LinearRegressor
from repro.datasets import load

TITLE = "Ablation: greedy split-merge vs DP optimum"
CAPTION = "compressed-size gap of the greedy plan (paper claims < 3%)"
COLUMNS = (("dataset", "{}"), ("greedy parts", "{}"), ("optimal parts", "{}"),
           ("gap", "{:+.2%}"), ("greedy time", "{:.2f}s"),
           ("DP time", "{:.2f}s"))
N = 4000
DATASETS = ("booksale", "movieid", "house_price", "ml")


def _timed(partitioner, values, regressor):
    start = time.perf_counter()
    bounds = partitioner.partition(values, regressor)
    return bounds, time.perf_counter() - start


def rows() -> list[tuple]:
    reg = LinearRegressor()
    out = []
    for name in DATASETS:
        values = load(name, n=N).values
        greedy, greedy_s = _timed(SplitMergePartitioner(tau=0.05), values,
                                  reg)
        optimal, optimal_s = _timed(OptimalPartitioner(window=N), values,
                                    reg)
        gap = (plan_cost_bits(values, greedy, reg, exact=True)
               / plan_cost_bits(values, optimal, reg, exact=True) - 1.0)
        out.append((name, len(greedy), len(optimal), gap, greedy_s,
                    optimal_s))
    return out


CLAIMS = (
    ("the greedy plan is within 3% of the DP plan on every dataset",
     lambda rows: all(r[3] < 0.03 for r in rows)),
    ("the greedy search is at least 3x faster than the DP on every dataset",
     lambda rows: all(3 * r[4] <= r[5] for r in rows)),
)
