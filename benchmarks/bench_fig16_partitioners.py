"""Figure 16 — partitioner quality (§4.8).

normal / house_price / booksale / movieid compressed with the linear
regressor under five partitioning schemes: LeCo-fix, LeCo-PLA, LeCo-la-vec,
Sim-Piece, and LeCo-var.  The paper's claim: the split–merge Partitioner
(LeCo-var) dominates the time-series partitioners, whose fixed global error
bounds or model-count-blind shortest paths misfire on columnar data.
"""

import numpy as np

from repro import codecs
from repro.core.partitioners import (
    LaVectorPartitioner,
    PLAPartitioner,
    SimPiecePartitioner,
)
from repro.datasets import load

TITLE = "Figure 16: partitioner efficiency"
CAPTION = "compression ratio (and partition count) with the linear regressor"
SCHEMES = ("leco-fix", "leco-pla", "leco-la-vec", "sim-piece", "leco-var")
COLUMNS = (("dataset", "{}"),
           *((scheme, "{0[0]:.1%} ({0[1]}p)") for scheme in SCHEMES))
N = 20_000
DATASETS = ("normal", "house_price", "booksale", "movieid")


def _codecs():
    """One codec per SCHEMES entry, in that order."""
    return [
        codecs.get("leco-fix"),
        codecs.get("leco", partitioner=PLAPartitioner(epsilon=64)),
        codecs.get("leco", partitioner=LaVectorPartitioner()),
        codecs.get("leco", partitioner=SimPiecePartitioner(epsilon=64)),
        codecs.get("leco-var", tau=0.05),
    ]


def rows() -> list[tuple]:
    """Each scheme's cell is ``(ratio, partition count)``."""
    out = []
    for name in DATASETS:
        ds = load(name, n=N)
        cells = []
        for scheme, codec in zip(SCHEMES, _codecs()):
            enc = codec.encode(ds.values)
            assert np.array_equal(enc.decode_all(), ds.values), scheme
            cells.append((enc.compressed_size_bytes()
                          / ds.uncompressed_bytes, len(enc.starts)))
        out.append((name, *cells))
    return out


def _var_beats(rows, *schemes: str) -> bool:
    var = 1 + SCHEMES.index("leco-var")
    return all(r[var][0] < r[1 + SCHEMES.index(s)][0]
               for r in rows for s in schemes)


CLAIMS = (
    ("LeCo-var compresses better than LeCo-fix, LeCo-PLA and Sim-Piece on "
     "every dataset",
     lambda rows: _var_beats(rows, "leco-fix", "leco-pla", "sim-piece")),
    ("LeCo-var compresses better than la-vector on every dataset",
     lambda rows: _var_beats(rows, "leco-la-vec")),
)
