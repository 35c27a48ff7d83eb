"""Figure 17 — hyperparameter robustness: tau (LeCo-var) vs epsilon (PLA).

Sweeps the split threshold tau in [0, 0.2] and PLA's error-bound exponent
in [3, 13] on booksale.  The paper's claim: LeCo-var's ratio is flat in tau
while LeCo-PLA's swings with epsilon — the greedy split–merge needs no
tuning.
"""

import sys

import numpy as np

from repro import codecs
from repro.bench import render_table
from repro.core.partitioners import PLAPartitioner
from repro.datasets import load

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

TAUS = [0.0, 0.04, 0.08, 0.12, 0.16, 0.20]
EPS_EXPONENTS = [3, 5, 7, 9, 11, 13]


def run_experiment(n: int = 20_000) -> str:
    ds = load("booksale", n=n)
    raw = ds.uncompressed_bytes
    rows = []
    var_ratios = []
    for tau in TAUS:
        enc = codecs.get("leco-var", tau=tau).encode(ds.values)
        ratio = enc.compressed_size_bytes() / raw
        var_ratios.append(ratio)
        rows.append(["leco-var", f"tau={tau:.2f}", f"{ratio:.1%}"])
    pla_ratios = []
    for exp in EPS_EXPONENTS:
        enc = codecs.get(
            "leco", partitioner=PLAPartitioner(epsilon=2.0 ** exp)
        ).encode(ds.values)
        ratio = enc.compressed_size_bytes() / raw
        pla_ratios.append(ratio)
        rows.append(["leco-pla", f"eps=2^{exp}", f"{ratio:.1%}"])
    spread_var = max(var_ratios) - min(var_ratios)
    spread_pla = max(pla_ratios) - min(pla_ratios)
    caption = (f"ratio spread across the sweep: leco-var {spread_var:.1%}, "
               f"leco-pla {spread_pla:.1%}")
    return headline("Figure 17: hyperparameter robustness", caption
                    ) + render_table(["scheme", "hyperparameter", "ratio"],
                                     rows)


def test_fig17_robustness(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
