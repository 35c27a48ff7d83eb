"""Figure 17 — hyperparameter robustness: tau (LeCo-var) vs epsilon (PLA).

Sweeps the split threshold tau in [0, 0.2] and PLA's error-bound exponent
in [3, 13] on booksale.  The paper's claim: LeCo-var's ratio is flat in tau
while LeCo-PLA's swings with epsilon — the greedy split–merge needs no
tuning.
"""

from repro import codecs
from repro.core.partitioners import PLAPartitioner
from repro.datasets import load

TITLE = "Figure 17: hyperparameter robustness"
COLUMNS = (("scheme", "{}"), ("hyperparameter", "{}"), ("ratio", "{:.1%}"))
N = 20_000
TAUS = (0.0, 0.04, 0.08, 0.12, 0.16, 0.20)
EPS_EXPONENTS = (3, 5, 7, 9, 11, 13)


def rows() -> list[tuple]:
    ds = load("booksale", n=N)
    raw = ds.uncompressed_bytes
    out = []
    for tau in TAUS:
        enc = codecs.get("leco-var", tau=tau).encode(ds.values)
        out.append(("leco-var", f"tau={tau:.2f}",
                    enc.compressed_size_bytes() / raw))
    for exp in EPS_EXPONENTS:
        enc = codecs.get(
            "leco", partitioner=PLAPartitioner(epsilon=2.0 ** exp)
        ).encode(ds.values)
        out.append(("leco-pla", f"eps=2^{exp}",
                    enc.compressed_size_bytes() / raw))
    return out


def _spread(rows, scheme: str) -> float:
    ratios = [r[2] for r in rows if r[0] == scheme]
    return max(ratios) - min(ratios)


def CAPTION(rows) -> str:
    return ("ratio spread across the sweep: leco-var {:.1%}, leco-pla {:.1%}"
            .format(_spread(rows, "leco-var"), _spread(rows, "leco-pla")))


CLAIMS = (
    ("LeCo-var's ratio is flat in tau while LeCo-PLA's swings with epsilon: "
     "the spread over tau is under a tenth of the spread over epsilon",
     lambda rows: 10 * _spread(rows, "leco-var") < _spread(rows, "leco-pla")),
)
