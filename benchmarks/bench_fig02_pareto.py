"""Figure 2 — the Pareto frontier: compression ratio vs random access.

Weighted-average ratio and random-access latency over the twelve integer
datasets for FOR, Elias-Fano, Delta, LeCo(-fix) and LeCo-var — a view of
Fig. 10's matrix.  The paper's claim: LeCo variants sit on the Pareto
frontier — better ratio than FOR/Elias-Fano at comparable access speed,
and orders of magnitude faster access than Delta at comparable ratio.
"""

from bench_fig10_micro import lineup_by_codec
from repro.bench import weighted_average

TITLE = "Figure 2: performance-space trade-offs"
CAPTION = "weighted average over the twelve Fig. 10 datasets"
COLUMNS = (("codec", "{}"), ("avg ratio", "{:.1%}"), ("avg RA ns", "{:.0f}"))
CODECS = ("for", "elias-fano", "delta-fix", "leco-fix", "leco-var")


def rows() -> list[tuple]:
    per_codec = lineup_by_codec()
    return [(label,
             weighted_average(per_codec[label], "compression_ratio"),
             weighted_average(per_codec[label], "random_access_ns"))
            for label in CODECS]


def _ratio(rows) -> dict:
    return {r[0]: r[1] for r in rows}


def _access(rows) -> dict:
    return {r[0]: r[2] for r in rows}


CLAIMS = (
    ("LeCo-fix and LeCo-var compress better on average than FOR and "
     "Elias-Fano",
     lambda rows: max(_ratio(rows)["leco-fix"], _ratio(rows)["leco-var"])
     < min(_ratio(rows)["for"], _ratio(rows)["elias-fano"])),
    ("at comparable access speed: LeCo's average random access is within "
     "3x of FOR's",
     lambda rows: max(_access(rows)["leco-fix"], _access(rows)["leco-var"])
     <= 3 * _access(rows)["for"]),
    ("LeCo's average random access is at least 10x faster than Delta-fix's "
     "(paper: orders of magnitude)",
     lambda rows: 10 * max(_access(rows)["leco-fix"],
                           _access(rows)["leco-var"])
     <= _access(rows)["delta-fix"]),
)
