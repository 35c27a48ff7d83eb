"""Dataset registry.

``load(name)`` returns a :class:`Dataset` with the generated values, the
natural byte width (the paper reports ratios against 32- or 64-bit raw
encodings), and sortedness metadata.  The default sizes are scaled down from
the paper's 10^8 rows; pass ``n=`` to resize.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.datasets import synthetic


@dataclass(frozen=True)
class Dataset:
    """A named integer benchmark column."""

    name: str
    values: np.ndarray
    width_bytes: int
    sorted: bool

    @property
    def uncompressed_bytes(self) -> int:
        return len(self.values) * self.width_bytes

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class _Spec:
    generator: Callable[[int, int], np.ndarray]
    default_n: int
    width_bytes: int
    sorted: bool


_SPECS: dict[str, _Spec] = {
    # the twelve Fig. 10 datasets
    "linear": _Spec(synthetic.gen_linear, 200_000, 4, True),
    "normal": _Spec(synthetic.gen_normal, 200_000, 4, True),
    "libio": _Spec(synthetic.gen_libio, 200_000, 8, True),
    "wiki": _Spec(synthetic.gen_wiki, 200_000, 4, True),
    "booksale": _Spec(synthetic.gen_booksale, 200_000, 4, True),
    "planet": _Spec(synthetic.gen_planet, 200_000, 8, True),
    "facebook": _Spec(synthetic.gen_facebook, 200_000, 8, True),
    "ml": _Spec(synthetic.gen_ml, 100_000, 8, True),
    "movieid": _Spec(synthetic.gen_movieid, 100_000, 4, False),
    "poisson": _Spec(synthetic.gen_poisson, 100_000, 8, False),
    "house_price": _Spec(synthetic.gen_house_price, 100_000, 4, True),
    "osm": _Spec(synthetic.gen_osm, 200_000, 8, True),
    # §4.5
    "medicare": _Spec(synthetic.gen_medicare, 500_000, 8, False),
    # the non-linear group (§4.4)
    "cosmos": _Spec(synthetic.gen_cosmos, 100_000, 4, False),
    "polylog": _Spec(synthetic.gen_polylog, 50_000, 8, False),
    "exp": _Spec(synthetic.gen_exp, 100_000, 8, False),
    "poly": _Spec(synthetic.gen_poly, 100_000, 8, False),
    "site": _Spec(synthetic.gen_site, 50_000, 4, True),
    "weight": _Spec(synthetic.gen_weight, 25_000, 4, True),
    "adult": _Spec(synthetic.gen_adult, 30_000, 4, True),
}

#: Fig. 10's dataset order (groups of Fig. 9b quadrants)
FIG10_DATASETS = ("linear", "normal", "libio", "wiki", "booksale", "planet",
                  "facebook", "ml", "movieid", "poisson", "house_price",
                  "osm")

#: §4.4 non-linear benchmark order (Fig. 11)
NONLINEAR_DATASETS = ("movieid", "poly", "cosmos", "exp", "polylog", "site",
                      "weight", "adult")


def available_datasets() -> list[str]:
    return sorted(_SPECS)


def load(name: str, n: int | None = None, seed: int = 0) -> Dataset:
    """Generate dataset ``name`` at its default or explicit size."""
    if name not in _SPECS:
        raise KeyError(f"unknown dataset {name!r}; see available_datasets()")
    spec = _SPECS[name]
    if n is None:
        n = spec.default_n
    values = spec.generator(n, seed)
    return Dataset(name=name, values=values, width_bytes=spec.width_bytes,
                   sorted=spec.sorted)


def sortedness(values: np.ndarray, max_pairs: int = 20_000,
               seed: int = 0) -> float:
    """1 minus (twice the) inverse-pair portion, in [0, 1] (paper §4.6).

    Estimated by sampling random index pairs; 1.0 means fully sorted,
    ~0.0 means random order.
    """
    values = np.asarray(values)
    n = len(values)
    if n < 2:
        return 1.0
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n - 1, max_pairs)
    j = rng.integers(0, n - 1, max_pairs)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    valid = lo != hi
    inversions = (values[lo[valid]] > values[hi[valid]]).mean()
    return float(1.0 - 2.0 * inversions)
