"""Figure 9b — the local/global hardness scatter of the twelve datasets.

Prints H_l and H_g (§3.2.3) per dataset with its quadrant, the grouping
used to organise Fig. 10's x-axis, and the partitioning the scores advise:
variable-length where the data is locally easy but globally hard.
"""

from repro.core.partitioners import advise_partitioning
from repro.datasets import FIG10_DATASETS, load

TITLE = "Figure 9b: dataset hardness"
CAPTION = "local/global hardness scores and the advised partitioning"
COLUMNS = (("dataset", "{}"), ("H_l", "{:.2f}"), ("H_g", "{:.2f}"),
           ("quadrant", "{}"), ("advice", "{}"))
N = 4000


def rows() -> list[tuple]:
    out = []
    for name in FIG10_DATASETS:
        report = advise_partitioning(load(name, n=N).values)
        out.append((name, report.local, report.global_, report.quadrant,
                    "var" if report.recommend_variable else "fix"))
    return out


CLAIMS = (
    ("the twelve datasets cover all four local/global hardness quadrants",
     lambda rows: len({r[3] for r in rows}) == 4),
    ("variable-length partitioning is advised exactly for the "
     "locally-easy/globally-hard datasets",
     lambda rows: all((r[3] == "locally-easy/globally-hard")
                      == (r[4] == "var") for r in rows)),
)
