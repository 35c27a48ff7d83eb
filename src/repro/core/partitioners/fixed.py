"""Fixed-length partitioning with the sampling-based size search (§3.2.1).

The compression ratio as a function of the (fixed) partition size is
typically U-shaped (paper Fig. 5): tiny partitions drown in model/metadata
overhead, huge partitions force wide delta slots.  The search samples < 1% of
the data, walks partition sizes up by a multiplicative step until past the
minimum, then refines back down with smaller steps.
"""

from __future__ import annotations

import numpy as np

from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.cost import segment_bits
from repro.core.regressors.base import Regressor


def fixed_bounds(n: int, size: int) -> Bounds:
    """Bounds for fixed partitions of ``size`` over ``n`` items."""
    if size <= 0:
        raise ValueError(f"partition size must be positive, got {size}")
    return [(start, min(start + size, n)) for start in range(0, n, size)]


class FixedLengthPartitioner(Partitioner):
    """Splits into partitions of exactly ``size`` items (last may be short)."""

    fixed_length = True

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"partition size must be positive, got {size}")
        self.size = size
        self.name = f"fixed({size})"

    def partition(self, values: np.ndarray, regressor: Regressor) -> Bounds:
        return fixed_bounds(len(values), self.size)


def _sample_ranges(n: int, window: int, fraction: float,
                   seed: int) -> list[tuple[int, int]]:
    """Random subsequences of length ``window`` covering ~``fraction`` of data."""
    if n <= window:
        return [(0, n)]
    count = max(1, int(n * fraction / window))
    rng = np.random.default_rng(seed)
    starts = np.sort(rng.integers(0, n - window, size=count))
    return [(int(s), int(s) + window) for s in starts]


def _cost_at_size(values: np.ndarray,
                  samples: list[tuple[int, int]],
                  regressor: Regressor, size: int) -> float:
    """Average bits/value of fixed ``size`` partitions over the samples,
    at the fast width ``Δ̃``."""
    starts = [np.arange(lo, hi, size) for lo, hi in samples]
    ends = [np.minimum(s + size, hi) for s, (_, hi) in zip(starts, samples)]
    bits = segment_bits(values, np.concatenate(starts), np.concatenate(ends),
                        regressor, exact=False, variable=False)
    items = sum(hi - lo for lo, hi in samples)
    return int(bits.sum()) / max(items, 1)


def search_partition_size(values: np.ndarray, regressor: Regressor,
                          max_size: int = 10_000,
                          sample_fraction: float = 0.01,
                          seed: int = 7,
                          converge_rtol: float = 1e-4) -> int:
    """Sampling-based search for the best fixed partition size (§3.2.1).

    Phase 1 multiplies the size by 2 until the sampled cost worsens (past the
    U's minimum); phase 2 walks back between the last two probes with smaller
    steps; the search stops once the relative improvement between iterations
    drops below ``converge_rtol``.
    """
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    if n == 0:
        return 1
    max_size = min(max_size, n)
    samples = _sample_ranges(n, min(max_size, n), sample_fraction, seed)

    min_start = max(regressor.min_partition_size, 2)
    size = min_start
    best_size, best_cost = size, _cost_at_size(values, samples, regressor,
                                               size)
    # exponential ascent past the global minimum
    while size * 2 <= max_size:
        size *= 2
        cost = _cost_at_size(values, samples, regressor, size)
        if cost < best_cost:
            best_cost, best_size = cost, size
        elif cost > best_cost * 1.2:
            break

    # refine around the best probe with shrinking steps
    step = max(best_size // 2, 1)
    while step >= max(best_size // 16, 1) and step > 0:
        improved = False
        for candidate in (best_size - step, best_size + step):
            if candidate < min_start or candidate > max_size:
                continue
            cost = _cost_at_size(values, samples, regressor, candidate)
            if cost < best_cost * (1 - converge_rtol):
                best_cost, best_size = cost, candidate
                improved = True
        if not improved:
            step //= 2
    return best_size


class AutoFixedPartitioner(Partitioner):
    """Fixed-length partitioner that first searches for the best size."""

    name = "fixed-auto"
    fixed_length = True

    def __init__(self, max_size: int = 10_000, sample_fraction: float = 0.01,
                 seed: int = 7):
        self.max_size = max_size
        self.sample_fraction = sample_fraction
        self.seed = seed
        self.chosen_size: int | None = None

    def partition(self, values: np.ndarray, regressor: Regressor) -> Bounds:
        self.chosen_size = search_partition_size(
            values, regressor, max_size=self.max_size,
            sample_fraction=self.sample_fraction, seed=self.seed,
        )
        return fixed_bounds(len(values), self.chosen_size)
