"""Generic minimax fitting for linear combinations of basis functions.

The paper's regressors are all of the form ``F(i) = sum_j theta_j * M_j(i)``
(§3.1).  For any fixed set of terms ``M_j`` the minimax problem

    minimize  phi
    s.t.      |sum_j theta_j M_j(i) - v_i| <= phi   for all i

is a linear program with ``2n + 1`` constraints.  We solve it with
``scipy.optimize.linprog`` (HiGHS) for small partitions and fall back to a
centred least-squares fit — LS coefficients with the intercept shifted so the
residual band is symmetric — when the partition is large or the LP fails.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.regressors.base import FittedModel, Regressor

#: partitions larger than this use the centred-LS path only
LP_MAX_POINTS = 3000

TermFn = Callable[[np.ndarray], np.ndarray]


def design_matrix(terms: Sequence[TermFn], positions: np.ndarray) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    return np.column_stack([term(positions) for term in terms])


def fit_minimax(design: np.ndarray, values: np.ndarray,
                use_lp: bool = True) -> np.ndarray:
    """Fit ``theta`` minimising ``max |design @ theta - values|``."""
    values = np.asarray(values, dtype=np.float64)
    n, k = design.shape

    theta = _least_squares_centered(design, values)
    if not use_lp or n > LP_MAX_POINTS or n <= k:
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


class BasisModel(FittedModel):
    """A fitted linear combination of basis terms."""

    def __init__(self, kind: str, terms: Sequence[TermFn],
                 theta: np.ndarray, extra_params: np.ndarray | None = None):
        self.kind = kind
        self._terms = list(terms)
        self._theta = np.asarray(theta, dtype=np.float64)
        # extra (non-linear) parameters, e.g. sine frequencies, appended to
        # the stored parameter vector so the decoder can rebuild the terms
        self._extra = (np.asarray(extra_params, dtype=np.float64)
                       if extra_params is not None else np.empty(0))

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self._theta, self._extra])

    @property
    def theta(self) -> np.ndarray:
        return self._theta

    @property
    def extra(self) -> np.ndarray:
        return self._extra

    def predict_float(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.float64)
        return design_matrix(self._terms, positions) @ self._theta


def polynomial_terms(degree: int) -> list[TermFn]:
    """Terms ``[1, i, i**2, ..., i**degree]``."""
    return [_power_term(p) for p in range(degree + 1)]


def _power_term(power: int) -> TermFn:
    if power == 0:
        return lambda x: np.ones_like(x)
    return lambda x: x ** power


class PolynomialRegressor(Regressor):
    """Minimax polynomial fit of a fixed degree."""

    def __init__(self, degree: int, use_lp: bool = True):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.degree = degree
        self.use_lp = use_lp
        self.name = f"poly{degree}"
        self.min_partition_size = degree + 2
        self.param_count = degree + 1
        self.incremental_kind = None
        self.seed_delta_order = degree + 1
        self.fast_delta_order = degree
        self._terms = polynomial_terms(degree)

    def fit(self, values: np.ndarray) -> BasisModel:
        values = np.asarray(values, dtype=np.int64)
        positions = np.arange(len(values), dtype=np.float64)
        design = design_matrix(self._terms, positions)
        theta = fit_minimax(design, values.astype(np.float64),
                            use_lp=self.use_lp)
        return BasisModel(self.name, self._terms, theta)

    def load(self, params: np.ndarray) -> BasisModel:
        return BasisModel(self.name, self._terms,
                          params[: self.degree + 1])
