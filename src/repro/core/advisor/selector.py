"""The Regressor Selector of the Hyperparameter-Advisor (paper §3.1, §4.4).

Trained offline: synthetic sequences are generated for each candidate model
family (constant, linear, poly2, poly3, exponential, logarithm) with random
parameters and noise, their single-pass features extracted, and a CART
classifier fitted.  At runtime the selector recommends a regressor per
partition from the same features.
"""

from __future__ import annotations

import numpy as np

from repro.core.advisor.cart import CartClassifier
from repro.core.advisor.features import extract_features
from repro.core.regressors import Regressor, get_regressor

#: candidate regressors, in classifier label order
CANDIDATES = ("constant", "linear", "poly2", "poly3", "exponential",
              "logarithm")


def _synth_family(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One random training sequence from the given model family."""
    x = np.arange(n, dtype=np.float64)
    # include the (near-)noiseless corner: clean generated data is common
    # in practice and must not fall off the training manifold
    sigma = float(rng.choice([0.0, rng.uniform(0.1, 2.0),
                              rng.uniform(2.0, 20.0)]))
    noise = rng.normal(0, sigma, n) if sigma > 0 else np.zeros(n)
    if name == "constant":
        y = rng.uniform(-1e6, 1e6) + noise
    elif name == "linear":
        y = rng.uniform(-1e5, 1e5) + rng.uniform(-1e3, 1e3) * x + noise
    elif name == "poly2":
        y = (rng.uniform(-1e4, 1e4) + rng.uniform(-100, 100) * x
             + rng.uniform(0.05, 5.0) * np.sign(rng.normal()) * x ** 2
             + noise)
    elif name == "poly3":
        y = (rng.uniform(-1e4, 1e4) + rng.uniform(-10, 10) * x
             + rng.uniform(0.01, 0.5) * x ** 2
             + rng.uniform(0.001, 0.05) * np.sign(rng.normal()) * x ** 3
             + noise)
    elif name == "exponential":
        rate = rng.uniform(0.005, 8.0 / n)
        y = rng.uniform(1, 100) * np.exp(rate * x) + noise
    elif name == "logarithm":
        y = rng.uniform(100, 1e4) * np.log1p(x) + rng.uniform(0, 1e4) + noise
    else:
        raise ValueError(f"unknown family {name!r}")
    return np.round(y).astype(np.int64)


def training_set(samples_per_class: int = 60, length: int = 512,
                 seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic (features, labels) corpus for the selector."""
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for label, name in enumerate(CANDIDATES):
        for _ in range(samples_per_class):
            seq = _synth_family(name, length, rng)
            feats.append(extract_features(seq))
            labels.append(label)
    return np.array(feats), np.array(labels)


class RegressorSelector:
    """CART-backed per-partition regressor recommendation."""

    def __init__(self, max_depth: int = 8, samples_per_class: int = 60,
                 train_length: int = 512, seed: int = 42):
        feats, labels = training_set(samples_per_class, train_length, seed)
        self._cart = CartClassifier(max_depth=max_depth).fit(feats, labels)

    def recommend_name(self, values: np.ndarray) -> str:
        """Recommended regressor name for one partition."""
        label = self._cart.predict_one(extract_features(values))
        return CANDIDATES[label]

    def recommend(self, values: np.ndarray) -> Regressor:
        return get_regressor(self.recommend_name(values))


def optimal_regressor_name(values: np.ndarray,
                           candidates=CANDIDATES) -> str:
    """Exhaustive search: the candidate with the smallest encoded size —
    the bytes of the partition's image record under it.

    This is the paper's "optimal" line in Fig. 11 (per partition).
    """
    from repro.core.encoding import encode_rows, partition_record

    rows = np.asarray(values, dtype=np.int64)[None, :]
    best_name = candidates[0]
    best_size = None
    for name in candidates:
        regressor = get_regressor(name)
        if len(values) < regressor.min_partition_size:
            continue
        size = len(partition_record(
            encode_rows(rows, regressor, build_corrections=False), 0))
        if best_size is None or size < best_size:
            best_size = size
            best_name = name
    return best_name
