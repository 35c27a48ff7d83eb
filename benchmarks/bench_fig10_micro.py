"""Figure 10 — the main integer microbenchmark.

Twelve datasets x {rANS, FOR, Elias-Fano, Delta-fix, Delta-var, LeCo-fix,
LeCo-var}: compression ratio (with the model-size share), random-access
latency, and full-decompression throughput.  Elias-Fano is skipped on the
unsorted sets (poisson, movieid), as in the paper; rANS runs on a reduced
slice because its Python decode is strictly sequential.
"""

import sys

from repro import codecs
from repro.bench import measure_codec, render_table
from repro.datasets import FIG10_DATASETS, load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, BENCH_N, BENCH_PROBES, LINEUP, headline

_RANS_N = min(BENCH_N, 8000)


def collect(n: int = BENCH_N):
    rows = []
    for name in FIG10_DATASETS:
        ds = load(name, n=n)
        for codec in LINEUP + (("elias-fano",) if ds.sorted else ()):
            rows.append(measure_codec(codecs.get(codec), ds,
                                      n_random=BENCH_PROBES, repeats=1))
        rows.append(measure_codec(codecs.get("rans"), load(name, n=_RANS_N),
                                  n_random=10, repeats=1))
    return rows


def run_experiment(n: int = BENCH_N) -> str:
    measurements = collect(n)
    by_ds: dict[str, list] = {}
    for m in measurements:
        by_ds.setdefault(m.dataset, []).append(m)
    table_rows = []
    for name in FIG10_DATASETS:
        for m in by_ds[name]:
            table_rows.append([
                name, m.codec, f"{m.compression_ratio:.1%}",
                f"{m.model_ratio:.2%}", f"{m.random_access_ns:.0f}",
                f"{m.decode_gbps:.3f}", f"{m.compress_gbps:.4f}",
            ])
    return headline(
        "Figure 10: compression microbenchmark",
        "ratio (model share) / random access / decode and compress "
        "throughput on the twelve integer datasets",
    ) + render_table(
        ["dataset", "codec", "ratio", "model", "RA ns", "dec GB/s",
         "enc GB/s"], table_rows)


def test_fig10_micro(benchmark):
    """Representative kernel: LeCo-fix encode+decode on booksale."""
    ds = load("booksale", n=min(BENCH_N, 20_000))

    def kernel():
        enc = codecs.get("leco-fix").encode(ds.values)
        enc.decode_all()
        return enc

    benchmark.pedantic(kernel, rounds=1, iterations=1)
    emit(run_experiment())


if __name__ == "__main__":
    emit(run_experiment())
