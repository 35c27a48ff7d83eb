"""Generic minimax fitting for linear combinations of basis functions.

The paper's regressors are all of the form ``F(i) = sum_j theta_j * M_j(i)``
(§3.1).  For any fixed set of terms ``M_j`` the minimax problem

    minimize  phi
    s.t.      |sum_j theta_j M_j(i) - v_i| <= phi   for all i

is a linear program with ``2n + 1`` constraints.  We solve it with
``scipy.optimize.linprog`` (HiGHS) for small partitions and fall back to a
centred least-squares fit — LS coefficients with the intercept shifted so the
residual band is symmetric — when the partition is large or the LP fails.

:class:`BasisRegressor` is that fit as a regressor: a family states its
inner parameters (none, an exponential's rate, sine frequencies) and its
terms, and fits and predicts one partition — one design matrix — a row.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from repro.core.regressors.base import Regressor

#: partitions larger than this use the centred-LS path only
LP_MAX_POINTS = 3000


def fit_minimax(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fit ``theta`` minimising ``max |design @ theta - values|``."""
    values = np.asarray(values, dtype=np.float64)
    n, k = design.shape

    theta = _least_squares_centered(design, values)
    if n > LP_MAX_POINTS or n <= k:
        return theta

    lp_theta = _linprog_minimax(design, values)
    if lp_theta is None:
        return theta
    if _max_abs_err(design, values, lp_theta) < _max_abs_err(design, values,
                                                             theta):
        return lp_theta
    return theta


def _max_abs_err(design: np.ndarray, values: np.ndarray,
                 theta: np.ndarray) -> float:
    return float(np.abs(design @ theta - values).max())


def _least_squares_centered(design: np.ndarray, values: np.ndarray
                            ) -> np.ndarray:
    """LS fit with the constant term shifted to centre the residual band.

    Requires the first column of ``design`` to be the constant term, which is
    the convention used by every regressor in this package.
    """
    theta, *_ = np.linalg.lstsq(design, values, rcond=None)
    residuals = values - design @ theta
    if residuals.size:
        theta = theta.copy()
        theta[0] += (residuals.max() + residuals.min()) / 2.0
    return theta


def _linprog_minimax(design: np.ndarray, values: np.ndarray
                     ) -> np.ndarray | None:
    from scipy.optimize import linprog

    n, k = design.shape
    # variables: theta (k, free) then phi (>= 0); minimise phi
    c = np.zeros(k + 1)
    c[-1] = 1.0
    ones = np.ones((n, 1))
    a_ub = np.vstack([
        np.hstack([design, -ones]),    # X theta - phi <= v
        np.hstack([-design, -ones]),   # -X theta - phi <= -v
    ])
    b_ub = np.concatenate([values, -values])
    bounds = [(None, None)] * k + [(0, None)]
    try:
        result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                         method="highs")
    except ValueError:
        return None
    if not result.success:
        return None
    return np.asarray(result.x[:k], dtype=np.float64)


class BasisRegressor(Regressor):
    """A family ``F(i) = sum_j theta_j * M_j(i)`` fitted minimax, whose
    terms may hang on inner parameters estimated from the row first.  A
    stored row is ``theta`` followed by the ``inner_count`` inner
    parameters.

    Fit and prediction run one partition at a time, one design-matrix
    product a row: a joint product over the matrix rounds differently
    with the row count, which would make a partition's bytes depend on
    its batch.
    """

    #: trailing entries of the stored row that are inner parameters
    inner_count = 0

    def inner(self, values: np.ndarray) -> np.ndarray:
        """The inner parameters fitted to one row (float64 values)."""
        return np.empty(0)

    @abstractmethod
    def terms(self, inner: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        """The columns ``M_j(x)`` at float positions ``x``."""

    def _design(self, inner: np.ndarray, length: int) -> np.ndarray:
        return np.column_stack(
            self.terms(inner, np.arange(length, dtype=np.float64)))

    def fit_many(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64).astype(np.float64)
        n_theta = self.param_count - self.inner_count
        params = np.empty((len(rows), self.param_count))
        for r, values in enumerate(rows):
            inner = self.inner(values)
            params[r, :n_theta] = fit_minimax(
                self._design(inner, len(values)), values)
            params[r, n_theta:] = inner
        return params

    def predict_many(self, params: np.ndarray, length: int) -> np.ndarray:
        n_theta = self.param_count - self.inner_count
        pred = np.empty((len(params), length))
        for r, row in enumerate(params):
            pred[r] = self._design(row[n_theta:], length) @ row[:n_theta]
        return pred


class PolynomialRegressor(BasisRegressor):
    """Minimax polynomial fit of a fixed degree: terms ``1, i, ...,
    i**degree``."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.name = f"poly{degree}"
        self.min_partition_size = degree + 2
        self.param_count = degree + 1
        self.fast_delta_order = degree

    def terms(self, inner: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        return [np.ones_like(x)] + [x ** p for p in range(1, self.degree + 1)]
