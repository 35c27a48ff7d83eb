"""Figure 2 — the Pareto frontier: compression ratio vs random access.

Weighted-average ratio and random-access latency over the twelve integer
datasets for FOR, Elias-Fano, Delta, LeCo(-fix) and LeCo-var.  The paper's
claim: LeCo variants sit on the Pareto frontier — better ratio than
FOR/Elias-Fano at comparable access speed, and orders of magnitude faster
access than Delta at comparable ratio.
"""

import sys

from repro import codecs
from repro.bench import measure_codec, render_table, weighted_average
from repro.datasets import FIG10_DATASETS, load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, BENCH_N, BENCH_PROBES, headline

CODECS = ("for", "elias-fano", "delta", "leco-fix", "leco-var")


def run_experiment(n: int = min(BENCH_N, 20_000)) -> str:
    per_codec: dict[str, list] = {}
    for name in FIG10_DATASETS:
        ds = load(name, n=n)
        for codec in CODECS:
            if codecs.info(codec).requires_sorted and not ds.sorted:
                continue
            m = measure_codec(codecs.get(codec), ds, n_random=BENCH_PROBES,
                              repeats=1)
            per_codec.setdefault(m.codec, []).append(m)
    rows = []
    for name, ms in per_codec.items():
        rows.append([
            name,
            f"{weighted_average(ms, 'compression_ratio'):.1%}",
            f"{weighted_average(ms, 'random_access_ns'):.0f}",
        ])
    return headline(
        "Figure 2: performance-space trade-offs",
        "weighted average over the twelve Fig. 10 datasets",
    ) + render_table(["codec", "avg ratio", "avg RA ns"], rows)


def test_fig02_pareto(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)
    # Pareto claims: LeCo-fix compresses better than FOR at comparable RA;
    # checked numerically in tests/test_integration.py


if __name__ == "__main__":
    emit(run_experiment())
