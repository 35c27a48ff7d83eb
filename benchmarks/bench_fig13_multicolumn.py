"""Figure 13 — multi-column tabular compression.

Nine tables (TPC-H/TPC-DS-like + real-world shapes), each sorted by its
primary key: compression ratio of FOR, Delta-fix/var, LeCo-fix/var averaged
over (a) all numeric columns and (b) only high-cardinality columns
(NDV > 10% rows), plus each table's sortedness.  The paper's claim: LeCo
beats FOR on every table, most on highly sorted ones.
"""

import sys

import numpy as np

from repro import codecs
from repro.bench import render_table
from repro.datasets import TABLE_NAMES, load_table

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import emit, headline

#: column label -> registry name
CODECS = [("for", "for"), ("delta-fix", "delta"), ("delta-var", "delta-var"),
          ("leco-fix", "leco-fix"), ("leco-var", "leco-var")]


def _table_ratio(columns: dict[str, np.ndarray], codec: str) -> float:
    total_raw = 0
    total_compressed = 0
    for col in columns.values():
        enc = codecs.get(codec).encode(col)
        total_raw += col.nbytes
        total_compressed += enc.compressed_size_bytes()
    return total_compressed / max(total_raw, 1)


def run_experiment(n: int = 6000) -> str:
    rows = []
    for name in TABLE_NAMES:
        table = load_table(name, n=n)
        high = table.high_cardinality_columns()
        entry = [name, f"{table.average_sortedness():.2f}",
                 f"{len(high)}/{table.numeric_column_count}"]
        for _, codec in CODECS:
            entry.append(f"{_table_ratio(table.columns, codec):.1%}")
        if high:
            leco_high = _table_ratio(high, "leco-fix")
            for_high = _table_ratio(high, "for")
            entry.append(f"{leco_high:.1%} vs {for_high:.1%}")
        else:
            entry.append("-")
        rows.append(entry)
    return headline(
        "Figure 13: multi-column benchmark",
        "per-table ratios (all numeric columns); last column: LeCo-fix vs "
        "FOR on high-cardinality columns only",
    ) + render_table(
        ["table", "sortedness", "high-card", "for", "delta-fix",
         "delta-var", "leco-fix", "leco-var", "highcard leco/for"], rows)


def test_fig13_multicolumn(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(result)


if __name__ == "__main__":
    emit(run_experiment())
