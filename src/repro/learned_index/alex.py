"""A two-level learned index for lower-bound lookups on sorted arrays.

Structure (a deliberately compact take on ALEX / RMI):

* a root linear model maps a key to one of ``fanout`` leaves;
* each leaf holds a linear model fitted on its key range plus the maximum
  prediction error observed at build time;
* a lookup predicts a slot, then binary-searches only the ±error window.

The index is static (built once per compressed file), matching LeCo's
"compress once, access many times" setting.
"""

from __future__ import annotations

import numpy as np


class _Leaf:
    __slots__ = ("lo", "hi", "slope", "intercept", "err")

    def __init__(self, keys: np.ndarray, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        span = keys[hi - 1] - keys[lo] if hi - lo > 1 else 0
        if span > 0:
            self.slope = (hi - 1 - lo) / float(span)
        else:
            self.slope = 0.0
        self.intercept = lo - self.slope * float(keys[lo])
        if hi - lo > 1:
            pred = self.slope * keys[lo:hi].astype(np.float64) + self.intercept
            err = np.abs(pred - np.arange(lo, hi))
            self.err = int(np.ceil(err.max())) + 1
        else:
            self.err = 1

    def predict(self, key: int) -> int:
        return int(self.slope * key + self.intercept)


class LearnedSortedIndex:
    """Lower-bound search over a sorted int64 array via learned models."""

    def __init__(self, keys: np.ndarray, leaf_size: int = 256):
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if np.any(np.diff(keys) < 0):
            raise ValueError("keys must be sorted ascending")
        self._keys = keys
        n = len(keys)
        self._leaves: list[_Leaf] = []
        if n == 0:
            self._root_slope = 0.0
            self._root_intercept = 0.0
            return
        for lo in range(0, n, leaf_size):
            hi = min(lo + leaf_size, n)
            self._leaves.append(_Leaf(keys, lo, hi))
        key_span = float(keys[-1] - keys[0]) or 1.0
        self._root_slope = (len(self._leaves) - 1) / key_span
        self._root_intercept = -self._root_slope * float(keys[0])

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory metadata cost (models only, not keys)."""
        return 8 * 4 * len(self._leaves) + 16

    def _leaf_for(self, key: int) -> _Leaf:
        idx = int(self._root_slope * key + self._root_intercept)
        idx = max(0, min(idx, len(self._leaves) - 1))
        # the root model can be off by a few leaves; walk to the right one
        while idx > 0 and key < self._keys[self._leaves[idx].lo]:
            idx -= 1
        while (idx + 1 < len(self._leaves)
               and key >= self._keys[self._leaves[idx + 1].lo]):
            idx += 1
        return self._leaves[idx]

    def lower_bound(self, key: int) -> int:
        """Largest index ``i`` with ``keys[i] <= key``; -1 if none.

        This is the decoder's "find the partition with the largest start
        index <= position" search (paper §3.3).
        """
        keys = self._keys
        n = len(keys)
        if n == 0 or key < keys[0]:
            return -1
        leaf = self._leaf_for(key)
        pred = leaf.predict(key)
        # a key far past the leaf's last key predicts a slot beyond the
        # array: keep the window inside [0, n) and non-empty
        lo = min(max(leaf.lo, pred - leaf.err), n - 1)
        hi = max(min(leaf.hi, pred + leaf.err + 1), lo + 1)
        # widen in the rare case the error window missed (defensive)
        if lo > 0 and keys[lo] > key:
            lo = 0
        if hi < n and keys[hi] <= key:
            hi = n
        idx = int(np.searchsorted(keys[lo:hi], key, side="right")) + lo - 1
        return idx

    def find(self, key: int) -> int | None:
        """Exact-match index of ``key``, or ``None``."""
        idx = self.lower_bound(key)
        if idx >= 0 and self._keys[idx] == key:
            return idx
        return None
