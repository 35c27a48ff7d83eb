"""Harness for benchmarks/ (Figs. 2–22, Tab. 1); not on the serving path."""

from repro.bench.harness import Measurement, measure_codec, weighted_average
from repro.bench.report import percent, render_table

__all__ = ["Measurement", "measure_codec", "weighted_average",
           "render_table", "percent"]
