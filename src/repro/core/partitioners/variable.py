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
  (model size in bits).  ``Δ̃`` is tracked incrementally in O(1) for every
  regressor with a ``fast_delta_order`` (:class:`_SpanTracker`, which the
  DP reference shares), and recomputed on the slice for the others.
* **Merge** — adjacent partitions merge while the merged stored size (exact
  regressor fit, priced by :func:`~repro.core.partitioners.cost.
  segment_bits`) beats the sum of the parts, iterated to a fixpoint.
"""

from __future__ import annotations

import numpy as np

from repro.core.partitioners.base import Bounds, Partitioner
from repro.core.partitioners.cost import segment_bits
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


def order_diffs(values: np.ndarray, regressor: Regressor) -> list | None:
    """The ``regressor.fast_delta_order``-th differences of ``values`` as
    Python ints, wrapped in int64 exactly as ``fast_delta_bits`` wraps
    them (order 0: the values); ``None`` for a regressor with no order."""
    order = regressor.fast_delta_order
    return None if order is None else np.diff(values, n=order).tolist()


class _SpanTracker:
    """``Δ̃`` of a segment ``[start, end)`` that grows one value at a time,
    in either direction.

    ``Δ̃`` is the bit length of the span of the segment's
    ``fast_delta_order``-th differences.  The tracker keeps that span's
    min and max over ``diffs`` (:func:`order_diffs`, computed once per
    input), so :attr:`width` is always exactly
    ``regressor.fast_delta_bits(values[start:end])`` — full-range input
    included — at O(1) a step.  A regressor with no order is measured on
    the slice instead.
    """

    __slots__ = ("_values", "_diffs", "_regressor", "_order", "_lo", "_hi",
                 "start", "end", "width")

    def __init__(self, values: np.ndarray, diffs: list | None, start: int,
                 end: int, regressor: Regressor):
        self._values = values
        self._diffs = diffs
        self._regressor = regressor
        self._order = regressor.fast_delta_order
        self._lo = self._hi = None
        self.start, self.end = start, end
        if diffs is None:
            self.width = regressor.fast_delta_bits(values[start:end])
        elif end - start > self._order:
            window = diffs[start:end - self._order]
            self._lo, self._hi = min(window), max(window)
            self.width = (self._hi - self._lo).bit_length()
        else:
            self.width = 0

    def _new_diff(self, direction: int):
        """The difference one more value on the left (-1) or right (+1)
        brings in; ``None`` when the grown segment still has none."""
        start, end = self.start, self.end
        if end - start < self._order:
            return None
        return self._diffs[end - self._order if direction > 0
                           else start - 1]

    def width_if_grown(self, direction: int) -> int:
        """``Δ̃`` after adding one value on the left (-1) or right (+1)."""
        if self._diffs is None:
            start = self.start - 1 if direction < 0 else self.start
            end = self.end + 1 if direction > 0 else self.end
            return self._regressor.fast_delta_bits(self._values[start:end])
        new = self._new_diff(direction)
        if new is None or self._lo is None:
            return 0
        return (max(self._hi, new) - min(self._lo, new)).bit_length()

    def grow(self, direction: int) -> None:
        """Add one value on the left (-1) or right (+1)."""
        if self._diffs is None:
            self.width = self.width_if_grown(direction)
        else:
            new = self._new_diff(direction)
            if new is not None:
                if self._lo is None:
                    self._lo = self._hi = new
                elif new < self._lo:
                    self._lo = new
                elif new > self._hi:
                    self._hi = new
                self.width = (self._hi - self._lo).bit_length()
        if direction > 0:
            self.end += 1
        else:
            self.start -= 1


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
        order = regressor.fast_delta_order
        seeds = select_seeds(values, 2 if order is None else order + 1)
        diffs = order_diffs(values, regressor)
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
            seg = _SpanTracker(values, diffs, start, end, regressor)
            segments.append(seg)
            while True:
                grown = False
                for direction in (+1, -1):
                    pos = seg.end if direction > 0 else seg.start - 1
                    if not 0 <= pos < n or owner[pos] >= 0:
                        continue
                    cur_len = seg.end - seg.start
                    cost = ((cur_len + 1) * seg.width_if_grown(direction)
                            - cur_len * seg.width)
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
        def priced(start: int, end: int) -> int:
            return int(segment_bits(values, [start], [end], regressor)[0])

        costs = [priced(a, b) for a, b in bounds]
        for _ in range(self.max_merge_passes):
            merged_any = False
            out_bounds: Bounds = []
            out_costs: list[int] = []
            i = 0
            while i < len(bounds):
                if i + 1 < len(bounds):
                    a, b = bounds[i]
                    _, c = bounds[i + 1]
                    merged_cost = priced(a, c)
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
