"""Regressor interface for the LeCo framework.

Every model family is a weighted sum of basis terms, ``F(i) = sum_j
theta_j * M_j(i)``, fitted to one partition minimising the **maximum**
absolute prediction error (not the usual sum of squares): the delta array
is bit-packed, so its storage cost is set by the largest residual (paper
§3.1).

A fitted model is its parameter row — the ``param_count`` float64 values
a partition stores — and a *Regressor* is two array functions over a
matrix of partitions: :meth:`Regressor.fit_many` turns ``(R, L)`` int64
rows into ``(R, param_count)`` parameter rows, :meth:`Regressor.
predict_many` turns parameter rows into ``(R, L)`` float predictions, and
the encoder stores residuals ``v_i - floor(pred(i))``.  Row ``r`` of
either is bitwise the one-row call on row ``r`` alone, so a partition's
bytes never depend on what it was batched with.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

_INT64_MIN = -(1 << 63)


#: ``_POW2[k] == 2**k``: ``searchsorted(_POW2, v, "right")`` is the exact
#: bit length of an unsigned 64-bit ``v``
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def diff_span_bits(rows: np.ndarray, order: int) -> np.ndarray:
    """Per row of ``rows`` (``(R, L)`` int64): the bit length of max minus
    min of its ``order``-th differences (order 0: of the values) — the
    paper's ``Δ̃`` for a whole matrix of partitions at once.

    Exactly ``int(d.max()) - int(d.min())`` per row: the span of two int64
    is below 2**64, so the wrapped unsigned difference is the true one.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.shape[1] <= order:
        return np.zeros(len(rows), dtype=np.int64)
    d = rows
    for _ in range(order):
        d = d[:, 1:] - d[:, :-1]
    span = d.max(axis=1).astype(np.uint64) - d.min(axis=1).astype(np.uint64)
    return np.searchsorted(_POW2, span, side="right")


def floor_to_int64(pred: np.ndarray) -> np.ndarray:
    """Floor float predictions to int64.

    Encoder and decoder must floor identically, so every prediction path in
    the library funnels through this helper.  A floor int64 cannot hold
    becomes ``_INT64_MIN``: below the range that is the clamp; at or above
    ``2**63`` (a line through a few 64-bit hashes) and NaN it is the
    two's-complement wrap of ``2**63``, what an x86 cast yields, so stored
    residuals keep their meaning and no cast is left to the platform.
    """
    floored = np.floor(pred)
    in_range = (floored >= -(2.0 ** 63)) & (floored < 2.0 ** 63)
    if not in_range.all():
        floored = np.where(in_range, floored, float(_INT64_MIN))
    return floored.astype(np.int64)


class Regressor(ABC):
    """One model family: fit parameter rows, predict from them."""

    #: short identifier used by the Hyperparameter-Advisor and reports
    name: str = "abstract"
    #: minimum number of points for the fit to be meaningful (paper §3.2.2)
    min_partition_size: int = 1
    #: number of float64 parameters a partition stores
    param_count: int = 1
    #: order of the differences whose span is this regressor's ``Δ̃`` (paper
    #: §3.2.2; 0: of the values); ``None``: no closed form
    fast_delta_order: int | None = None

    @property
    def model_size_bytes(self) -> int:
        """``S_M`` in the paper: per-partition model storage cost."""
        return 8 * self.param_count

    @abstractmethod
    def fit_many(self, rows: np.ndarray) -> np.ndarray:
        """Fit every row of ``rows`` (``(R, L)`` int64, one partition a
        row), minimising its max absolute error; returns the
        ``(R, param_count)`` float64 parameter matrix, row ``r`` bitwise
        ``fit_many(rows[r:r + 1])``."""

    @abstractmethod
    def predict_many(self, params: np.ndarray, length: int) -> np.ndarray:
        """Float predictions at positions ``0..length-1`` for every row of
        a ``(R, param_count)`` parameter matrix, as ``(R, length)`` — what
        the decoder will see; row ``r`` bitwise the one-row call."""

    def delta_bits(self, values: np.ndarray) -> int:
        """``Δ(v)``: bits per residual slot after fitting this regressor;
        the one-row case of :meth:`delta_bits_many`."""
        return int(self.delta_bits_many(np.asarray(values)[None, :])[0])

    def delta_bits_many(self, rows: np.ndarray) -> np.ndarray:
        """``Δ`` of every row of an ``(R, L)`` matrix (64 when ``L`` is
        below ``min_partition_size``).

        Measured as the bias-encoded width of the residual range, which for a
        minimax fit equals the paper's ``ceil(log2 delta_maxabs)) + 1``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n_rows, length = rows.shape
        if length < max(self.min_partition_size, 1):
            return np.full(n_rows, 64, dtype=np.int64)
        pred = self.predict_many(self.fit_many(rows), length)
        return diff_span_bits(rows - floor_to_int64(pred), 0)

    def fast_delta_bits(self, values: np.ndarray) -> int:
        """Cheap approximation of :meth:`delta_bits` for the split phase:
        the one-row case of :meth:`fast_delta_bits_many`."""
        return int(self.fast_delta_bits_many(np.asarray(values)[None, :])[0])

    def fast_delta_bits_many(self, rows: np.ndarray) -> np.ndarray:
        """The paper's ``Δ̃`` of every row of an ``(R, L)`` matrix: the bit
        length of the span of the ``fast_delta_order``-th differences, which
        correlates with the exact width at a fraction of the cost; the
        exact width where a regressor names no order."""
        if self.fast_delta_order is None:
            return self.delta_bits_many(rows)
        return diff_span_bits(rows, self.fast_delta_order)
