"""Ablation (§3.3) — serial-accumulation range decoding.

Full-sequence decode via the direct per-position model inference vs the
slope-accumulation path with its correction list.  The paper reports
10–20% higher range-decompression throughput from saving the per-position
multiplication; we verify losslessness and report the measured speedup on
our substrate.
"""

import time

import numpy as np

from repro import codecs
from repro.datasets import load

TITLE = "Ablation: serial range-decode optimisation (§3.3)"
CAPTION = "direct vs accumulation decode, bit-identical output"
COLUMNS = (("dataset", "{}"), ("direct ms", "{:.1f}"), ("serial ms", "{:.1f}"),
           ("speedup", "{:+.1%}"), ("corrections", "{}"))
N = 100_000
REPEATS = 5
DATASETS = ("linear", "booksale", "ml")


def _best_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def rows() -> list[tuple]:
    out = []
    for name in DATASETS:
        values = load(name, n=N).values
        arr = codecs.get("leco", partitioner=10_000).encode(values)
        assert np.array_equal(arr.decode_all_serial(), values)
        direct = _best_ms(arr.decode_all)
        serial = _best_ms(arr.decode_all_serial)
        out.append((name, direct, serial, direct / serial - 1,
                    len(arr.corrections)))
    return out


CLAIMS = (
    ("the correction lists are sparse: under one position in a thousand",
     lambda rows: all(1000 * r[4] < N for r in rows)),
    ("serial decoding is at least 10% faster than direct on every dataset",
     lambda rows: all(r[3] >= 0.10 for r in rows)),
)
