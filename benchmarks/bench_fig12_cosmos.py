"""Figure 12 — higher-order and domain-specific models on ``cosmos``.

Compression ratio of rANS, FOR, LeCo-fix/var (linear), LeCo-Poly-fix/var,
and the domain-extended sine regressors: one sine term, two sine terms, and
two sine terms with known frequencies.  The paper's point: LeCo's framework
accepts domain knowledge, and every extra term buys compression.
"""

import sys

import numpy as np

from repro import codecs
from repro.bench import render_table
from repro.core.regressors import PolynomialRegressor, SinusoidalRegressor
from repro.datasets import load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, BENCH_N, headline

#: the generator's true angular frequencies (see datasets.synthetic)
TRUE_FREQS = np.array([1.0 / (60 * np.pi), 3.0 / (60 * np.pi)])


def run_experiment(n: int = min(BENCH_N, 30_000)) -> str:
    ds = load("cosmos", n=n)
    raw = ds.uncompressed_bytes
    configs = [
        ("rans", codecs.get("rans")),
        ("for", codecs.get("for")),
        ("leco-fix", codecs.get("leco-fix")),
        ("leco-var", codecs.get("leco-var")),
        ("leco-poly-fix", codecs.get(
            "leco", regressor=PolynomialRegressor(3), partitioner=2000)),
        ("sin", codecs.get("leco-fix", regressor=SinusoidalRegressor(1))),
        ("2sin", codecs.get("leco-fix", regressor=SinusoidalRegressor(2))),
        ("2sin-freq", codecs.get(
            "leco-fix", regressor=SinusoidalRegressor(2, freqs=TRUE_FREQS))),
    ]
    rows = []
    for label, codec in configs:
        data = ds.values if label != "rans" else ds.values[:8000]
        denom = raw if label != "rans" else 8000 * ds.width_bytes
        enc = codec.encode(data)
        assert np.array_equal(enc.decode_all(), data), label
        rows.append([label, f"{enc.compressed_size_bytes() / denom:.1%}"])
    return headline(
        "Figure 12: compression ratio on cosmos",
        "domain models (sine terms) extend the LeCo framework",
    ) + render_table(["config", "ratio"], rows)


def test_fig12_cosmos(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
