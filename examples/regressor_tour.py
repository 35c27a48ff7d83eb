"""A tour of LeCo's regressors and the Hyperparameter-Advisor (paper §3.1, §4.4).

Fits each model family to data it should excel at, shows the residual
bit-widths that drive the compressed size, and lets the CART-based
Regressor Selector pick models automatically — including a domain-extended
sine model on the paper's ``cosmos`` signal.

Run:  python examples/regressor_tour.py
"""

import numpy as np

from repro import codecs, compress
from repro.core.advisor import RegressorSelector, optimal_regressor_name
from repro.core.regressors import SinusoidalRegressor, get_regressor
from repro.datasets import load

rng = np.random.default_rng(0)
x = np.arange(4000, dtype=np.float64)

candidates = {
    "linear ramp": (5_000 + 13 * x + rng.normal(0, 4, 4000)),
    "quadratic": (0.4 * x ** 2 + rng.normal(0, 4, 4000)),
    "exponential": (50 * np.exp(0.002 * x) + rng.normal(0, 4, 4000)),
    "logarithmic": (20_000 * np.log1p(x) + rng.normal(0, 4, 4000)),
}

selector = RegressorSelector()
print(f"{'data':>12}  {'recommended':>12}  {'optimal':>12}  "
      f"{'lin bits':>8}  {'best bits':>9}")
for name, series in candidates.items():
    values = np.round(series).astype(np.int64)
    recommended = selector.recommend_name(values)
    optimal = optimal_regressor_name(values)
    lin_bits = get_regressor("linear").delta_bits(values)
    best_bits = get_regressor(optimal).delta_bits(values)
    print(f"{name:>12}  {recommended:>12}  {optimal:>12}  "
          f"{lin_bits:>8}  {best_bits:>9}")

print("\nresidual bit-width = bits per value in the delta array, so every "
      "bit the right model saves is ~n bits of compressed size.")

# Domain knowledge: the cosmos signal is two sine carriers (paper Fig. 12).
cosmos = load("cosmos", n=20_000)
raw = cosmos.uncompressed_bytes
linear_arr = compress(cosmos.values, mode="fix")
print(f"\ncosmos with linear models: "
      f"{linear_arr.compressed_size_bytes() / raw:.1%}")

freqs = np.array([1.0 / (60 * np.pi), 3.0 / (60 * np.pi)])
sine = codecs.get("leco", regressor=SinusoidalRegressor(2, freqs=freqs),
                  partitioner=5000).encode(cosmos.values)
assert np.array_equal(sine.decode_all(), cosmos.values)
print(f"cosmos with 2 known sine terms: "
      f"{sine.compressed_size_bytes() / raw:.1%} (lossless)")
print("\nany linear combination of terms plugs into the framework — "
      "that is the extensibility argument of §4.4.")
