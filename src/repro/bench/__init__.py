"""Harness for benchmarks/ (Figs. 2–22, Tab. 1); not on the serving path."""

from repro.bench.harness import (
    LINEUP,
    Measurement,
    measure_codec,
    weighted_average,
)
from repro.bench.report import headline, render_table
from repro.bench.tables import cold_table, figure_codec

__all__ = ["LINEUP", "Measurement", "measure_codec", "weighted_average",
           "render_table", "headline", "cold_table", "figure_codec"]
