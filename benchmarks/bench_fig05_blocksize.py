"""Figure 5 — compression ratio vs fixed partition size (the U-shape).

Sweeps the fixed block size on ``booksale`` and ``normal`` and prints the
ratio trend; the paper's point is the U-shape that motivates the sampling
search of §3.2.1.
"""

import sys

from repro import codecs
from repro.bench import render_table
from repro.datasets import load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, BENCH_N, headline

SIZES = [4, 16, 64, 256, 1024, 4096, 16384]


def run_experiment(n: int = BENCH_N) -> str:
    rows = []
    for name in ("booksale", "normal"):
        ds = load(name, n=n)
        for size in SIZES:
            if size > n:
                continue
            enc = codecs.get("leco", partitioner=size).encode(ds.values)
            ratio = enc.compressed_size_bytes() / ds.uncompressed_bytes
            rows.append([name, size, f"{ratio:.1%}"])
    return headline(
        "Figure 5: compression ratio vs block size",
        "the U-shape motivating the sampling-based size search (§3.2.1)",
    ) + render_table(["dataset", "block size", "ratio"], rows)


def test_fig05_blocksize(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
