"""Figure 12 — higher-order and domain-specific models on ``cosmos``.

Compression ratio of rANS, FOR, LeCo-fix/var (linear), LeCo-Poly-fix,
and the domain-extended sine regressors: one sine term, two sine terms, and
two sine terms with known frequencies.  The paper's point: LeCo's framework
accepts domain knowledge, and every extra term buys compression.
"""

import numpy as np

from repro import codecs
from repro.core.regressors import PolynomialRegressor, SinusoidalRegressor
from repro.datasets import load

TITLE = "Figure 12: compression ratio on cosmos"
CAPTION = "domain models (sine terms) extend the LeCo framework"
COLUMNS = (("config", "{}"), ("ratio", "{:.1%}"))
N = 4000
#: the generator's true angular frequencies (see datasets.synthetic)
TRUE_FREQS = np.array([1.0 / (60 * np.pi), 3.0 / (60 * np.pi)])


def rows() -> list[tuple]:
    ds = load("cosmos", n=N)
    configs = [
        ("rans", codecs.get("rans")),
        ("for", codecs.get("for")),
        ("leco-fix", codecs.get("leco-fix")),
        ("leco-var", codecs.get("leco-var")),
        ("leco-poly-fix", codecs.get(
            "leco", regressor=PolynomialRegressor(3), partitioner=2000)),
        ("sin", codecs.get("leco-fix", regressor=SinusoidalRegressor(1))),
        ("2sin", codecs.get("leco-fix", regressor=SinusoidalRegressor(2))),
        ("2sin-freq", codecs.get(
            "leco-fix", regressor=SinusoidalRegressor(2, freqs=TRUE_FREQS))),
    ]
    out = []
    for label, codec in configs:
        enc = codec.encode(ds.values)
        assert np.array_equal(enc.decode_all(), ds.values), label
        out.append((label,
                    enc.compressed_size_bytes() / ds.uncompressed_bytes))
    return out


def _ratio(rows) -> dict:
    return dict(rows)


CLAIMS = (
    ("every sine model compresses better than rANS, FOR and linear LeCo",
     lambda rows: max(_ratio(rows)[c] for c in ("sin", "2sin", "2sin-freq"))
     < min(_ratio(rows)[c] for c in ("rans", "for", "leco-fix",
                                     "leco-var"))),
    ("every extra term buys compression: sin > 2sin > 2sin-freq",
     lambda rows: _ratio(rows)["sin"] > _ratio(rows)["2sin"]
     > _ratio(rows)["2sin-freq"]),
)
