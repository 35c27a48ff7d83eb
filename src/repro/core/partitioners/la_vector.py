"""la_vector partitioning (Boffa, Ferragina, Vinciguerra), paper §4.8.

la_vector casts optimal partitioning as a shortest-path problem: every
position is a node, and an edge ``i -> j`` weighs the compressed size of
segment ``[i, j)``.  The full graph is quadratic, so the published algorithm
approximates it: for every candidate bit-width ``c`` it runs error-bounded
PLA with ``epsilon = 2**(c-1)``, which yields, for each position, how far a
``c``-bit segment can stretch; those reachability edges form a sparse DAG
``G'`` on which a linear-time DP finds the (approximately) shortest path.

The paper's critique — that la_vector optimises total size but ignores the
*number* of models on the path, producing model-heavy plans on data like
``movieid`` — emerges naturally from this construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.cost import header_bits
from repro.core.partitioners.pla import pla_segments
from repro.core.regressors.base import Regressor


class LaVectorPartitioner(Partitioner):
    """Shortest-path partitioning on the PLA-derived approximate graph."""

    name = "la-vector"
    fixed_length = False

    def __init__(self, max_width: int | None = None):
        self.max_width = max_width

    def partition(self, values: np.ndarray, regressor: Regressor) -> Bounds:
        values = np.asarray(values, dtype=np.int64)
        n = len(values)
        if n == 0:
            return []
        if n == 1:
            return [(0, 1)]

        span = int(values.max()) - int(values.min())
        max_width = self.max_width or max(span.bit_length(), 1)
        model_bits = header_bits(regressor)

        # reach[c][i] = end of the PLA segment covering position i at
        # epsilon = 2**(c-1); any sub-segment [i, reach) also fits in c bits.
        widths = list(range(0, max_width + 1))
        reach = np.zeros((len(widths), n), dtype=np.int64)
        for row, c in enumerate(widths):
            epsilon = 0.0 if c == 0 else float(2 ** (c - 1))
            for start, end in pla_segments(values, epsilon):
                reach[row, start:end] = end

        inf = float("inf")
        dist = np.full(n + 1, inf)
        dist[0] = 0.0
        parent = np.zeros(n + 1, dtype=np.int64)
        for i in range(n):
            if dist[i] == inf:
                continue
            for row, c in enumerate(widths):
                j = int(reach[row, i])
                if j <= i:
                    j = i + 1
                cost = dist[i] + model_bits + (j - i) * c
                if cost < dist[j]:
                    dist[j] = cost
                    parent[j] = i

        bounds: Bounds = []
        pos = n
        while pos > 0:
            start = int(parent[pos])
            bounds.append((start, pos))
            pos = start
        bounds.reverse()
        return bounds
