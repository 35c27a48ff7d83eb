"""Figure 11 — Regressor Selector vs FOR / LeCo-linear / optimal.

On the eight non-linear datasets (§4.4) compare compression ratios of:
FOR, LeCo with the linear regressor, the CART-recommended regressor per
partition, and the exhaustive-search optimum.  The paper's claim:
``recommend`` tracks ``optimal`` closely and beats plain linear LeCo where
higher-order patterns exist.
"""

import numpy as np

from repro import codecs
from repro.core.advisor import RegressorSelector, optimal_regressor_name
from repro.core.regressors import get_regressor
from repro.datasets import NONLINEAR_DATASETS, load

TITLE = "Figure 11: regressor selection"
CAPTION = "FOR vs LeCo-linear vs CART-recommended vs exhaustive optimum"
COLUMNS = (("dataset", "{}"), ("FOR", "{:.1%}"), ("LeCo(lin)", "{:.1%}"),
           ("recommend", "{:.1%}"), ("optimal", "{:.1%}"))
N = 4000
PARTITION = 1000


class _Chooser:
    """The encoder's selector hook, answering ``chooser(partition)``."""

    def __init__(self, chooser):
        self.chooser = chooser

    def recommend(self, values: np.ndarray):
        return get_regressor(self.chooser(values))


def _encode_with(values: np.ndarray, chooser) -> int:
    codec = codecs.get("leco", regressor="auto", selector=_Chooser(chooser),
                       partitioner=PARTITION, build_corrections=False)
    return codec.encode(values).compressed_size_bytes()


def rows() -> list[tuple]:
    selector = RegressorSelector()
    out = []
    for name in NONLINEAR_DATASETS:
        ds = load(name, n=N)
        values = ds.values
        raw = ds.uncompressed_bytes
        for_size = codecs.get("for", partitioner=PARTITION).encode(
            values).compressed_size_bytes()
        linear = _encode_with(values, lambda seg: "linear")
        recommend = _encode_with(values, selector.recommend_name)
        optimal = _encode_with(values, optimal_regressor_name)
        out.append((name, for_size / raw, linear / raw, recommend / raw,
                    optimal / raw))
    return out


CLAIMS = (
    ("the recommended regressor beats linear LeCo where higher-order "
     "patterns exist (poly, cosmos, exp)",
     lambda rows: all(r[3] < r[2] for r in rows
                      if r[0] in ("poly", "cosmos", "exp"))),
    ("recommend tracks optimal: within 10% of its size on every dataset",
     lambda rows: all(r[3] <= 1.1 * r[4] for r in rows)),
)
