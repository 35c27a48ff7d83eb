"""Multi-column tabular datasets (paper §4.6, Fig. 13).

Nine tables mirroring the paper's TPC-H / TPC-DS extracts and real-world
tables, each sorted by its primary-key column.  Non-key columns carry
varying degrees of correlation with the sorting key, so each table lands
near its published average "sortedness" (portion of non-inverted pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.registry import sortedness


@dataclass
class Table:
    """A columnar table: named int64 columns, sorted by the first column."""

    name: str
    columns: dict[str, np.ndarray]
    total_column_count: int  # including non-numeric columns we don't store

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def numeric_column_count(self) -> int:
        return len(self.columns)

    def average_sortedness(self) -> float:
        scores = [sortedness(col) for col in self.columns.values()]
        return float(np.mean(scores))

    def high_cardinality_columns(self, threshold: float = 0.1
                                 ) -> dict[str, np.ndarray]:
        """Columns with NDV > threshold * rows (Fig. 13 bottom row)."""
        out = {}
        for name, col in self.columns.items():
            if len(np.unique(col)) > threshold * len(col):
                out[name] = col
        return out

    field = None  # avoid accidental dataclasses.field leak in repr


def _col(rng, kind: str, n: int, pk: np.ndarray) -> np.ndarray:
    """One column of the given kind, relative to the sorted key ``pk``."""
    if kind == "pk":
        return pk
    if kind == "corr-tight":      # strongly follows the key
        return (pk * 3 + rng.integers(0, 50, n)).astype(np.int64)
    if kind == "corr-loose":      # follows the key with wide noise
        spread = max(int(pk[-1] - pk[0]) // 4, 10)
        return (pk + rng.integers(-spread, spread, n)).astype(np.int64)
    if kind == "grouped":         # constant within key groups (sorted-ish)
        return ((pk // max(int(pk[-1]) // 500 + 1, 1)) * 7).astype(np.int64)
    if kind == "cat-small":
        return rng.integers(0, 8, n).astype(np.int64)
    if kind == "cat-medium":
        return rng.integers(0, 1000, n).astype(np.int64)
    if kind == "uniform":
        return rng.integers(0, 1 << 30, n).astype(np.int64)
    if kind == "price":
        return np.round(np.exp(rng.normal(7, 1, n)) * 100).astype(np.int64)
    if kind == "date":
        return (738000 + rng.integers(0, 2500, n)).astype(np.int64)
    if kind == "date-sorted":
        return np.sort(738000 + rng.integers(0, 2500, n)).astype(np.int64)
    if kind == "quantity":
        return rng.integers(1, 51, n).astype(np.int64)
    raise ValueError(f"unknown column kind {kind!r}")


#: table -> (default rows, total columns, [(name, kind), ...])
_TABLE_SPECS: dict[str, tuple[int, int, list[tuple[str, str]]]] = {
    "lineitem": (60_000, 16, [
        ("l_orderkey", "pk"), ("l_partkey", "uniform"),
        ("l_suppkey", "cat-medium"), ("l_linenumber", "cat-small"),
        ("l_quantity", "quantity"), ("l_extendedprice", "price"),
        ("l_shipdate", "date"), ("l_commitdate", "date")]),
    "partsupp": (40_000, 5, [
        ("ps_partkey", "pk"), ("ps_suppkey", "corr-loose"),
        ("ps_supplycost", "price")]),
    "orders": (30_000, 9, [
        ("o_orderkey", "pk"), ("o_custkey", "corr-loose"),
        ("o_totalprice", "price"), ("o_orderdate", "date-sorted")]),
    "inventory": (50_000, 4, [
        ("inv_date_sk", "pk"), ("inv_item_sk", "corr-tight"),
        ("inv_quantity", "grouped")]),
    "catalog_sales": (40_000, 34, [
        ("cs_order_number", "pk")]
        + [(f"cs_attr_{i}", "uniform") for i in range(15)]
        + [(f"cs_dim_{i}", "cat-medium") for i in range(10)]
        + [(f"cs_amt_{i}", "price") for i in range(5)]),
    "date_dim": (25_000, 28, [
        ("d_date_sk", "pk"), ("d_date_id", "corr-tight"),
        ("d_month_seq", "grouped"), ("d_week_seq", "grouped"),
        ("d_year", "grouped"), ("d_dom", "cat-small")]),
    "geo": (50_000, 17, [
        ("geonameid", "pk"), ("population", "price"),
        ("elevation", "corr-loose"), ("admin_code", "cat-medium")]),
    "stock": (20_000, 6, [
        ("ts", "pk"), ("open", "corr-tight"), ("high", "corr-tight"),
        ("low", "corr-tight"), ("close", "corr-tight")]),
    "course_info": (15_000, 6, [
        ("course_id", "pk"), ("num_subscribers", "uniform"),
        ("num_reviews", "uniform"), ("num_lectures", "cat-medium"),
        ("price", "cat-medium"), ("duration", "cat-medium")]),
}

TABLE_NAMES = tuple(_TABLE_SPECS)


def load_table(name: str, n: int | None = None, seed: int = 0) -> Table:
    """Generate the named table, sorted by its first (key) column."""
    if name not in _TABLE_SPECS:
        raise KeyError(f"unknown table {name!r}; known: {TABLE_NAMES}")
    default_n, total_cols, cols = _TABLE_SPECS[name]
    if n is None:
        n = default_n
    rng = np.random.default_rng(seed)
    pk = np.sort(rng.integers(0, n * 10, n)).astype(np.int64)
    columns = {col_name: _col(rng, kind, n, pk) for col_name, kind in cols}
    return Table(name=name, columns=columns, total_column_count=total_cols)
