"""Figure 16 — partitioner quality (§4.8).

normal / house_price / booksale / movieid compressed with the linear
regressor under five partitioning schemes: LeCo-fix, LeCo-PLA, LeCo-la-vec,
Sim-Piece, and LeCo-var.  The paper's claim: the split–merge Partitioner
(LeCo-var) dominates the time-series partitioners, whose fixed global error
bounds or model-count-blind shortest paths misfire on columnar data.
"""

import sys

import numpy as np

from repro import codecs
from repro.bench import render_table
from repro.core.partitioners import (
    LaVectorPartitioner,
    PLAPartitioner,
    SimPiecePartitioner,
)
from repro.datasets import load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

DATASETS = ("normal", "house_price", "booksale", "movieid")


def _configs():
    return [
        ("leco-fix", codecs.get("leco-fix")),
        ("leco-pla", codecs.get(
            "leco", partitioner=PLAPartitioner(epsilon=64))),
        ("leco-la-vec", codecs.get(
            "leco", partitioner=LaVectorPartitioner())),
        ("sim-piece", codecs.get(
            "leco", partitioner=SimPiecePartitioner(epsilon=64))),
        ("leco-var", codecs.get("leco-var", tau=0.05)),
    ]


def run_experiment(n: int = 20_000) -> str:
    rows = []
    for name in DATASETS:
        ds = load(name, n=n)
        entry = [name]
        for label, codec in _configs():
            enc = codec.encode(ds.values)
            assert np.array_equal(enc.decode_all(), ds.values), label
            ratio = enc.compressed_size_bytes() / ds.uncompressed_bytes
            parts = len(enc.partitions)
            entry.append(f"{ratio:.1%} ({parts}p)")
        rows.append(entry)
    return headline(
        "Figure 16: partitioner efficiency",
        "compression ratio (and partition count) with the linear regressor",
    ) + render_table(
        ["dataset", "leco-fix", "leco-pla", "leco-la-vec", "sim-piece",
         "leco-var"], rows)


def test_fig16_partitioners(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
