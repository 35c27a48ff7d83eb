"""Figure 13 — multi-column tabular compression.

Nine tables (TPC-H/TPC-DS-like + real-world shapes), each sorted by its
primary key: compression ratio of FOR, Delta-fix/var, LeCo-fix/var averaged
over (a) all numeric columns and (b) only high-cardinality columns
(NDV > 10% rows), plus each table's sortedness.  The paper's claim: LeCo
beats FOR on every table, most on highly sorted ones.
"""

import numpy as np

from repro import codecs
from repro.datasets import TABLE_NAMES, load_table

TITLE = "Figure 13: multi-column benchmark"
CAPTION = ("per-table ratios (all numeric columns); last column: LeCo-fix "
           "vs FOR on high-cardinality columns only")
COLUMNS = (
    ("table", "{}"), ("sortedness", "{:.2f}"), ("high-card", "{0[0]}/{0[1]}"),
    ("for", "{:.1%}"), ("delta-fix", "{:.1%}"), ("delta-var", "{:.1%}"),
    ("leco-fix", "{:.1%}"), ("leco-var", "{:.1%}"),
    ("highcard leco/for",
     lambda pair: "{:.1%} vs {:.1%}".format(*pair) if pair else "-"))
N = 6000
#: registry names of the ratio columns, in COLUMNS order
CODECS = ("for", "delta", "delta-var", "leco-fix", "leco-var")


def _table_ratio(columns: dict[str, np.ndarray], codec: str) -> float:
    total_raw = 0
    total_compressed = 0
    for col in columns.values():
        enc = codecs.get(codec).encode(col)
        total_raw += col.nbytes
        total_compressed += enc.compressed_size_bytes()
    return total_compressed / max(total_raw, 1)


def rows() -> list[tuple]:
    out = []
    for name in TABLE_NAMES:
        table = load_table(name, n=N)
        high = table.high_cardinality_columns()
        out.append((
            name, table.average_sortedness(),
            (len(high), table.numeric_column_count),
            *(_table_ratio(table.columns, codec) for codec in CODECS),
            (_table_ratio(high, "leco-fix"), _table_ratio(high, "for"))
            if high else None))
    return out


def _gain(row) -> float:
    """LeCo-fix's relative saving over FOR."""
    return 1 - row[6] / row[3]


CLAIMS = (
    ("LeCo-fix beats FOR on every table",
     lambda rows: all(r[6] < r[3] for r in rows)),
    ("the gain over FOR is largest on the highly sorted tables: the three "
     "most sorted tables show the three largest gains",
     lambda rows: {r[0] for r in sorted(rows, key=lambda r: -r[1])[:3]}
     == {r[0] for r in sorted(rows, key=_gain)[-3:]}),
)
