"""Dynamic-programming reference partitioner.

Computes the optimal partition plan for the fast-width cost model by
dynamic programming over all ``O(n^2)`` candidate segments, with incremental
width maintenance so each segment extension costs O(1).  The paper notes the
exhaustive search is ``O(n^3)`` time / ``O(n^2)`` space in general; with the
incremental trackers this reference runs in ``O(n * window)`` and is used in
tests and the ablation bench to validate the split–merge greedy (claimed to
be within 3% of optimal, §3.2.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.cost import PARTITION_HEADER_BITS, VAR_INDEX_BITS
from repro.core.partitioners.variable import span_tracking
from repro.core.regressors.base import Regressor


class OptimalPartitioner(Partitioner):
    """Exact DP over the fast-width cost model (reference implementation).

    ``window`` caps the maximum partition length considered, bounding the
    runtime at ``O(n * window)``; with ``window >= n`` the plan is exact.
    """

    name = "optimal-dp"
    fixed_length = False

    def __init__(self, window: int = 4096):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window

    def partition(self, values: np.ndarray, regressor: Regressor) -> Bounds:
        values = np.asarray(values, dtype=np.int64)
        n = len(values)
        if n == 0:
            return []

        mode, _ = span_tracking(regressor)
        fixed_bits = (regressor.model_size_bytes * 8 + PARTITION_HEADER_BITS
                      + VAR_INDEX_BITS)

        inf = float("inf")
        dist = np.full(n + 1, inf)
        dist[0] = 0.0
        parent = np.zeros(n + 1, dtype=np.int64)

        diffs = np.diff(values) if n >= 2 else np.empty(0, dtype=np.int64)

        for end in range(1, n + 1):
            lo_limit = max(0, end - self.window)
            # walk the segment start backwards, growing [start, end) leftwards
            hi = -np.inf
            lo = np.inf
            vhi = -np.inf
            vlo = np.inf
            best = inf
            best_start = end - 1
            for start in range(end - 1, lo_limit - 1, -1):
                if mode == "value-span":
                    v = values[start]
                    vhi = max(vhi, v)
                    vlo = min(vlo, v)
                    width = int(vhi - vlo).bit_length()
                elif mode == "diff-span":
                    if start < end - 1:
                        d = diffs[start]
                        hi = max(hi, d)
                        lo = min(lo, d)
                        width = int(hi - lo).bit_length()
                    else:
                        width = 0
                else:
                    width = regressor.fast_delta_bits(values[start:end])
                cost = dist[start] + fixed_bits + (end - start) * width
                if cost < best:
                    best = cost
                    best_start = start
            dist[end] = best
            parent[end] = best_start

        bounds: Bounds = []
        pos = n
        while pos > 0:
            start = int(parent[pos])
            bounds.append((start, pos))
            pos = start
        bounds.reverse()
        return bounds
