"""Figure 11 — Regressor Selector vs FOR / LeCo-linear / optimal.

On the eight non-linear datasets (§4.4) compare compression ratios of:
FOR, LeCo with the linear regressor, the CART-recommended regressor per
partition, and the exhaustive-search optimum.  The paper's claim:
``recommend`` tracks ``optimal`` closely and beats plain linear LeCo where
higher-order patterns exist.
"""

import sys

import numpy as np

from repro import codecs
from repro.bench import render_table
from repro.core.advisor import RegressorSelector, optimal_regressor_name
from repro.core.encoding import CompressedArray, encode_partition
from repro.core.partitioners import fixed_bounds
from repro.core.regressors import get_regressor
from repro.datasets import NONLINEAR_DATASETS, load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, BENCH_N, headline

PARTITION = 1000


def _encode_with(values: np.ndarray, chooser) -> int:
    partitions = []
    for start, end in fixed_bounds(len(values), PARTITION):
        seg = values[start:end]
        reg = get_regressor(chooser(seg))
        if len(seg) < reg.min_partition_size:
            reg = get_regressor("constant")
        partitions.append(encode_partition(seg, start, reg,
                                           build_corrections=False))
    arr = CompressedArray(len(values), partitions, PARTITION, "linear")
    return arr.compressed_size_bytes()


def run_experiment(n: int = min(BENCH_N, 20_000)) -> str:
    selector = RegressorSelector()
    rows = []
    for name in NONLINEAR_DATASETS:
        ds = load(name, n=n)
        values = ds.values
        raw = ds.uncompressed_bytes
        for_size = codecs.get("for", partitioner=PARTITION).encode(
            values).compressed_size_bytes()
        linear = _encode_with(values, lambda seg: "linear")
        recommend = _encode_with(values, selector.recommend_name)
        optimal = _encode_with(values, optimal_regressor_name)
        rows.append([
            name, f"{for_size / raw:.1%}", f"{linear / raw:.1%}",
            f"{recommend / raw:.1%}", f"{optimal / raw:.1%}",
        ])
    return headline(
        "Figure 11: regressor selection",
        "FOR vs LeCo-linear vs CART-recommended vs exhaustive optimum",
    ) + render_table(["dataset", "FOR", "LeCo(lin)", "recommend",
                      "optimal"], rows)


def test_fig11_selector(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
