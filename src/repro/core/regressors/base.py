"""Regressor interface for the LeCo framework.

A *Regressor* fits one model to one partition of the value sequence,
minimising the **maximum** absolute prediction error (not the usual sum of
squares): the delta array is bit-packed, so its storage cost is set by the
largest residual (paper §3.1).

A *FittedModel* is the trained artefact: it predicts a float for each
position, and the encoder stores residuals ``v_i - floor(pred(i))``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


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


class FittedModel(ABC):
    """A trained model for a single partition."""

    #: short identifier used in the storage format and reports
    kind: str = "abstract"

    @property
    @abstractmethod
    def params(self) -> np.ndarray:
        """Model parameters as a float64 vector (stored 8 bytes each)."""

    @abstractmethod
    def predict_float(self, positions: np.ndarray) -> np.ndarray:
        """Predict raw float values at local ``positions`` (0-based)."""

    def predict_int(self, positions: np.ndarray) -> np.ndarray:
        """Integer predictions: ``floor`` of the float predictions."""
        return floor_to_int64(self.predict_float(np.asarray(positions)))

    @property
    def model_size_bytes(self) -> int:
        """Stored size of the parameters (8 bytes per float64)."""
        return 8 * len(self.params)

    def residuals(self, values: np.ndarray) -> np.ndarray:
        """Integer residuals ``v_i - floor(pred(i))`` for the partition."""
        values = np.asarray(values, dtype=np.int64)
        positions = np.arange(len(values))
        return values - self.predict_int(positions)

    def max_abs_residual(self, values: np.ndarray) -> int:
        res = self.residuals(values)
        return int(np.abs(res).max()) if res.size else 0


class Regressor(ABC):
    """Factory producing :class:`FittedModel` instances for partitions."""

    #: short identifier used by the Hyperparameter-Advisor and reports
    name: str = "abstract"
    #: minimum number of points for the fit to be meaningful (paper §3.2.2)
    min_partition_size: int = 1
    #: number of float64 parameters a fitted model stores
    param_count: int = 1
    #: order of the differences whose span is this regressor's ``Δ̃`` (paper
    #: §3.2.2; 0: of the values); ``None``: no closed form
    fast_delta_order: int | None = None

    @property
    def model_size_bytes(self) -> int:
        """``S_M`` in the paper: per-partition model storage cost."""
        return 8 * self.param_count

    @abstractmethod
    def fit(self, values: np.ndarray) -> FittedModel:
        """Fit one model to ``values``, minimising the max absolute error."""

    def fit_many(self, rows: np.ndarray) -> np.ndarray:
        """Fit every row of ``rows`` (``(R, L)`` int64, one partition a
        row); returns the ``(R, param_count)`` parameter matrix.

        Row ``r`` is bitwise ``fit(rows[r]).params``.  The default loops
        :meth:`fit`; regressors with a closed form fit the matrix at once.
        """
        params = np.empty((len(rows), self.param_count), dtype=np.float64)
        for r, row in enumerate(rows):
            params[r] = self.fit(row).params
        return params

    def predict_many(self, params: np.ndarray, length: int) -> np.ndarray:
        """Float predictions at positions ``0..length-1`` for every row of
        a ``(R, param_count)`` parameter matrix, as ``(R, length)``: row
        ``r`` is bitwise ``load(params[r]).predict_float(arange(length))``
        — what the decoder will see."""
        positions = np.arange(length)
        pred = np.empty((len(params), length), dtype=np.float64)
        for r, row in enumerate(params):
            pred[r] = self.load(row).predict_float(positions)
        return pred

    def delta_bits(self, values: np.ndarray) -> int:
        """``Δ(v)``: bits per residual slot after fitting this regressor.

        Measured as the bias-encoded width of the residual range, which for a
        minimax fit equals the paper's ``ceil(log2 delta_maxabs)) + 1``.
        """
        values = np.asarray(values, dtype=np.int64)
        if len(values) < max(self.min_partition_size, 1):
            return 64
        res = self.fit(values).residuals(values)
        if res.size == 0:
            return 0
        span = int(res.max()) - int(res.min())
        return int(span).bit_length()

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
            return np.array([self.delta_bits(row) for row in rows],
                            dtype=np.int64)
        return diff_span_bits(rows, self.fast_delta_order)

    @abstractmethod
    def load(self, params: np.ndarray) -> FittedModel:
        """Rebuild a fitted model from stored parameters (decoder path)."""
