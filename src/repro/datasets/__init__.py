"""Benchmark datasets: every data family named in the paper's §4.1."""

from repro.datasets.registry import (
    FIG10_DATASETS,
    NONLINEAR_DATASETS,
    Dataset,
    available_datasets,
    load,
    sortedness,
)
from repro.datasets.strings import (
    STRING_DATASETS,
    gen_email,
    gen_hex,
    gen_word,
    load_strings,
)
from repro.datasets.store_fixtures import (
    ingest_fixture,
    sensor_fixture,
)
from repro.datasets.tabular import TABLE_NAMES, Table, load_table

__all__ = [
    "Dataset",
    "load",
    "available_datasets",
    "sortedness",
    "FIG10_DATASETS",
    "NONLINEAR_DATASETS",
    "Table",
    "load_table",
    "TABLE_NAMES",
    "ingest_fixture",
    "sensor_fixture",
    "load_strings",
    "STRING_DATASETS",
    "gen_email",
    "gen_hex",
    "gen_word",
]
