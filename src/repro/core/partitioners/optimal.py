"""Dynamic-programming reference partitioner.

Computes the optimal partition plan for the fast-width cost model by
dynamic programming over all ``O(n^2)`` candidate segments.  For each end it
grows one segment leftwards with split–merge's ``Δ̃`` tracker, so each
extension costs O(1) and every width is exactly
``regressor.fast_delta_bits`` of the segment — full-range input included.
The paper notes the exhaustive search is ``O(n^3)`` time / ``O(n^2)`` space
in general; with the incremental tracker this reference runs in
``O(n * window)`` and is used in tests and the ablation bench to validate
the split–merge greedy (claimed to be within 3% of optimal, §3.2.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.cost import header_bits
from repro.core.partitioners.variable import _SpanTracker, order_diffs
from repro.core.regressors.base import Regressor


class OptimalPartitioner(Partitioner):
    """Exact DP over the fast-width cost model (reference implementation).

    The width is ``Δ̃``, not the exact fitted width: ``Δ̃`` of a segment
    grows in O(1) from its neighbour's, while an exact width needs a fit
    per candidate segment, ``O(n * window)`` fits.  ``window`` caps the
    maximum partition length considered, bounding the runtime at
    ``O(n * window)``; with ``window >= n`` the plan minimises
    ``plan_cost_bits(exact=False)``.
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

        header = header_bits(regressor)
        diffs = order_diffs(values, regressor)
        # dist[end]: the cheapest plan of values[:end]; parent[end]: the
        # start of its last partition
        dist = [0] * (n + 1)
        parent = [0] * (n + 1)
        for end in range(1, n + 1):
            lo_limit = max(0, end - self.window)
            seg = _SpanTracker(values, diffs, end - 1, end, regressor)
            best, best_start = dist[end - 1] + seg.width, end - 1
            while seg.start > lo_limit:
                seg.grow(-1)
                cost = dist[seg.start] + (end - seg.start) * seg.width
                if cost < best:
                    best, best_start = cost, seg.start
            dist[end] = best + header
            parent[end] = best_start

        bounds: Bounds = []
        pos = n
        while pos > 0:
            start = parent[pos]
            bounds.append((start, pos))
            pos = start
        bounds.reverse()
        return bounds
