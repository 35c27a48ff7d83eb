"""Table 1 — compression throughput (GB/s), weighted mean ± std.

Six schemes over the twelve integer datasets.  The paper's finding: the
fixed-partition schemes compress at comparable speed, while the
variable-length partitioners (Delta-var, LeCo-var) are an order of
magnitude slower — the classic ratio-vs-build-time trade.
"""

import sys

import numpy as np

from repro import codecs
from repro.bench import measure_codec, render_table
from repro.datasets import FIG10_DATASETS, load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, BENCH_N, LINEUP, headline


def run_experiment(n: int = min(BENCH_N, 20_000)) -> str:
    per_codec: dict[str, list[float]] = {}
    for name in FIG10_DATASETS:
        ds = load(name, n=n)
        for codec in LINEUP + (("elias-fano",) if ds.sorted else ()):
            m = measure_codec(codecs.get(codec), ds, n_random=5, repeats=1)
            per_codec.setdefault(m.codec, []).append(m.compress_gbps)
    rows = []
    for name, values in per_codec.items():
        arr = np.array(values)
        rows.append([name, f"{arr.mean():.4f}", f"{arr.std():.4f}"])
    return headline(
        "Table 1: compression throughput (GB/s)",
        "mean +- std across the twelve integer datasets",
    ) + render_table(["codec", "mean GB/s", "std"], rows)


def test_tab01_compress_tps(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
