"""Ablation (§3.3) — serial-accumulation range decoding.

Full-sequence decode via the direct per-position model inference vs the
slope-accumulation path with its correction list.  The paper reports
10–20% higher range-decompression throughput from saving the per-position
multiplication; we verify losslessness and report the measured speedup on
our substrate.
"""

import sys
import time

import numpy as np

from repro import codecs
from repro.bench import render_table
from repro.datasets import load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

DATASETS = ("linear", "booksale", "ml")


def run_experiment(n: int = 100_000, repeats: int = 5) -> str:
    rows = []
    for name in DATASETS:
        values = load(name, n=n).values
        arr = codecs.get("leco", partitioner=10_000).encode(values)
        assert np.array_equal(arr.decode_all_serial(), values)
        direct = min(_time(arr.decode_all) for _ in range(repeats))
        serial = min(_time(arr.decode_all_serial) for _ in range(repeats))
        corrections = sum(len(p.corrections) for p in arr.partitions)
        rows.append([
            name, f"{direct * 1e3:.1f}", f"{serial * 1e3:.1f}",
            f"{direct / serial - 1:+.1%}", corrections,
        ])
    return headline(
        "Ablation: serial range-decode optimisation (§3.3)",
        "direct vs accumulation decode, bit-identical output",
    ) + render_table(["dataset", "direct ms", "serial ms", "speedup",
                      "corrections"], rows)


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_ablation_serial_decode(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
