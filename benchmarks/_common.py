"""Shared configuration for the benchmark suite.

Every ``bench_*.py`` file reproduces one table or figure from the paper.
Each defines ``run_experiment() -> str`` (the printed rows/series) plus a
pytest-benchmark entry that times the experiment's representative kernel and
prints the full table.  Run everything with::

    pytest benchmarks/ --benchmark-only

or a single experiment standalone::

    python benchmarks/bench_fig10_micro.py

Sizes are scaled down from the paper's 10^8 rows (pure-Python substrate);
set ``REPRO_BENCH_N`` to override the default per-dataset row count.
"""

from __future__ import annotations

import os

#: default rows per dataset in benchmark runs
BENCH_N = int(os.environ.get("REPRO_BENCH_N", "30000"))
#: random-access probes per (codec, dataset) pair
BENCH_PROBES = int(os.environ.get("REPRO_BENCH_PROBES", "300"))
#: the paper's Fig. 10 line-up, by registry name (rANS and Elias-Fano are
#: added by the scripts where they apply)
LINEUP = ("for", "delta", "delta-var", "leco-fix", "leco-var")


def headline(title: str, caption: str) -> str:
    bar = "=" * len(title)
    return f"\n{title}\n{bar}\n{caption}\n"


def emit(text: str) -> None:
    """Print experiment tables past pytest's output capture.

    ``pytest benchmarks/ --benchmark-only`` captures stdout; the whole point
    of these benches is the printed rows/series, so they write to the real
    stdout handle.
    """
    import sys

    print(text, file=sys.__stdout__, flush=True)
