"""Variable-length split–merge partitioning (paper §3.2.2).

Three phases:

* **Init** — score every position by the bit-width of its (k+1)-th order
  delta (k = polynomial degree of the regressor); local minima become seed
  positions, with the first-order "required bits" as tie-breaker.  Seeds in
  smooth, arithmetic-progression-like regions grow first, which keeps
  "bumpy" regions from absorbing good points.
* **Split** — each seed claims a minimal partition and greedily grows left
  and right.  A point joins when its inclusion cost
  ``C = (len+1) * Δ̃(grown) - len * Δ̃(current)`` stays below ``τ · S_M``
  (model size in bits).  ``Δ̃`` is tracked incrementally in O(1) for the
  constant/linear/delta families.
* **Merge** — adjacent partitions merge while the merged stored size (exact
  regressor fit) beats the sum of the parts, iterated to a fixpoint.
"""

from __future__ import annotations

import numpy as np

from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.cost import partition_bits
from repro.core.regressors.base import Regressor


def _bit_widths(arr: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` of ``|arr|`` (0 maps to 0)."""
    mag = np.abs(arr).astype(np.float64)
    out = np.zeros(arr.shape, dtype=np.int64)
    nz = mag > 0
    out[nz] = np.floor(np.log2(mag[nz])).astype(np.int64) + 1
    return out


def select_seeds(values: np.ndarray, order: int) -> np.ndarray:
    """Seed positions sorted by growth precedence (best first).

    A position scores by the bit-width of the ``order``-th order delta there
    (small ⇒ the local shape is close to a degree ``order-1`` polynomial),
    tie-broken by the first-order required bits (paper Fig. 6).
    """
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    if n <= order + 1:
        return np.array([0], dtype=np.int64)
    high = np.diff(values, n=order)
    score = _bit_widths(high)
    first = _bit_widths(np.diff(values))
    tie = first[: len(score)]

    left = np.roll(score, 1)
    right = np.roll(score, -1)
    left[0] = np.iinfo(np.int64).max
    right[-1] = np.iinfo(np.int64).max
    minima = np.flatnonzero((score <= left) & (score <= right))
    if minima.size == 0:
        minima = np.array([0], dtype=np.int64)
    order_keys = np.lexsort((minima, tie[minima], score[minima]))
    return minima[order_keys]


def span_tracking(regressor: Regressor) -> tuple[str | None, int]:
    """What the split phase reads off ``regressor.fast_delta_order`` (d):
    the incremental ``Δ̃`` tracker mode — "value-span" for d = 0,
    "diff-span" for d = 1, ``None`` otherwise — and the difference order
    that scores seeds, d + 1 (2 when d is ``None``)."""
    order = regressor.fast_delta_order
    if order is None:
        return None, 2
    return {0: "value-span", 1: "diff-span"}.get(order), order + 1


class _SpanTracker:
    """Incremental ``Δ̃`` (fast delta-bits) for a growing segment.

    ``mode`` selects what spans: "value-span" (constant models) tracks
    min/max of the values; "diff-span" (linear and delta models) tracks
    min/max of adjacent differences.  ``None`` falls back to recomputing the
    regressor's fast metric on the whole slice.
    """

    def __init__(self, values: np.ndarray, start: int, end: int,
                 regressor: Regressor, mode: str | None):
        self._values = values
        self._regressor = regressor
        self._mode = mode
        self.start = start
        self.end = end
        if mode == "value-span":
            seg = values[start:end]
            self._lo = int(seg.min())
            self._hi = int(seg.max())
        elif mode == "diff-span":
            if end - start >= 2:
                d = np.diff(values[start:end])
                self._lo = int(d.min())
                self._hi = int(d.max())
            else:
                self._lo, self._hi = 0, 0

    def width(self) -> int:
        if self._mode is None:
            return self._regressor.fast_delta_bits(
                self._values[self.start:self.end])
        return int(self._hi - self._lo).bit_length()

    def width_if_grown(self, direction: int) -> int:
        """``Δ̃`` after adding one point on the left (-1) or right (+1)."""
        lo, hi = self._probe(direction)
        return int(hi - lo).bit_length()

    def grow(self, direction: int) -> None:
        if self._mode is not None:
            self._lo, self._hi = self._probe(direction)
        if direction > 0:
            self.end += 1
        else:
            self.start -= 1

    def _probe(self, direction: int) -> tuple[int, int]:
        if self._mode is None:
            lo = self.start - 1 if direction < 0 else self.start
            hi = self.end + 1 if direction > 0 else self.end
            width = self._regressor.fast_delta_bits(self._values[lo:hi])
            return 0, (1 << width) - 1 if width else 0
        if self._mode == "value-span":
            new = int(self._values[self.end] if direction > 0
                      else self._values[self.start - 1])
            return min(self._lo, new), max(self._hi, new)
        if direction > 0:
            new = int(self._values[self.end]) - int(self._values[self.end - 1])
        else:
            new = int(self._values[self.start]) - int(self._values[self.start - 1])
        return min(self._lo, new), max(self._hi, new)


class SplitMergePartitioner(Partitioner):
    """The paper's default variable-length partitioner."""

    fixed_length = False

    def __init__(self, tau: float = 0.1, max_merge_passes: int = 30):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        self.tau = tau
        self.max_merge_passes = max_merge_passes
        self.name = f"split-merge(tau={tau})"

    # ------------------------------------------------------------- split
    def _split(self, values: np.ndarray, regressor: Regressor) -> Bounds:
        n = len(values)
        min_size = max(regressor.min_partition_size, 2)
        if n <= min_size:
            return [(0, n)]
        mode, order = span_tracking(regressor)
        seeds = select_seeds(values, order)
        threshold = self.tau * regressor.model_size_bytes * 8

        owner = np.full(n, -1, dtype=np.int64)
        segments: list[_SpanTracker] = []
        # claim AND fully grow one seed before looking at the next: seeds in
        # smooth regions (best precedence) must be free to expand across
        # later-ranked seed positions, otherwise ties fragment smooth runs
        # into min-size shards
        for seed in seeds:
            start = int(seed)
            end = start + min_size
            if end > n:
                start, end = n - min_size, n
            if owner[start:end].max() >= 0:
                continue
            idx = len(segments)
            owner[start:end] = idx
            seg = _SpanTracker(values, start, end, regressor, mode)
            segments.append(seg)
            while True:
                grown = False
                for direction in (+1, -1):
                    pos = seg.end if direction > 0 else seg.start - 1
                    if not 0 <= pos < n or owner[pos] >= 0:
                        continue
                    cur_len = seg.end - seg.start
                    cost = ((cur_len + 1) * seg.width_if_grown(direction)
                            - cur_len * seg.width())
                    if cost <= threshold:
                        seg.grow(direction)
                        owner[pos] = idx
                        grown = True
                if not grown:
                    break

        # leftover unclaimed runs become their own partitions
        bounds = [(seg.start, seg.end) for seg in segments]
        pos = 0
        while pos < n:
            if owner[pos] >= 0:
                pos += 1
                continue
            run_end = pos
            while run_end < n and owner[run_end] < 0:
                run_end += 1
            bounds.append((pos, run_end))
            pos = run_end
        bounds.sort()
        return bounds

    # ------------------------------------------------------------- merge
    def _merge(self, values: np.ndarray, regressor: Regressor,
               bounds: Bounds) -> Bounds:
        def seg_cost(start: int, end: int) -> int:
            width = regressor.delta_bits(values[start:end])
            return partition_bits(end - start, width, regressor,
                                  variable=True)

        costs = [seg_cost(a, b) for a, b in bounds]
        for _ in range(self.max_merge_passes):
            merged_any = False
            out_bounds: Bounds = []
            out_costs: list[int] = []
            i = 0
            while i < len(bounds):
                if i + 1 < len(bounds):
                    a, b = bounds[i]
                    _, c = bounds[i + 1]
                    merged_cost = seg_cost(a, c)
                    if merged_cost <= costs[i] + costs[i + 1]:
                        out_bounds.append((a, c))
                        out_costs.append(merged_cost)
                        i += 2
                        merged_any = True
                        continue
                out_bounds.append(bounds[i])
                out_costs.append(costs[i])
                i += 1
            bounds, costs = out_bounds, out_costs
            if not merged_any:
                break
        return bounds

    def partition(self, values: np.ndarray, regressor: Regressor) -> Bounds:
        values = np.asarray(values, dtype=np.int64)
        if len(values) == 0:
            return []
        bounds = self._split(values, regressor)
        return self._merge(values, regressor, bounds)
