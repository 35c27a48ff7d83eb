"""Regressors: minimax model fitting for the LeCo framework (paper §3.1)."""

from repro.core.regressors.base import Regressor, floor_to_int64
from repro.core.regressors.basis import (
    BasisRegressor,
    PolynomialRegressor,
    fit_minimax,
)
from repro.core.regressors.linear import (
    ConstantRegressor,
    LinearRegressor,
    chebyshev_line,
    chebyshev_lines,
)
from repro.core.regressors.special import (
    ExponentialRegressor,
    LogarithmRegressor,
    SinusoidalRegressor,
    estimate_frequencies,
)

#: registry used by the storage format and the Hyperparameter-Advisor
_BUILTIN: dict[str, Regressor] = {}


def register_regressor(regressor: Regressor) -> Regressor:
    _BUILTIN[regressor.name] = regressor
    return regressor


def get_regressor(name: str) -> Regressor:
    """Look up a regressor by its stable name (e.g. ``"linear"``)."""
    if name not in _BUILTIN:
        raise KeyError(
            f"unknown regressor {name!r}; known: {sorted(_BUILTIN)}"
        )
    return _BUILTIN[name]


def available_regressors() -> list[str]:
    return sorted(_BUILTIN)


register_regressor(ConstantRegressor())
register_regressor(LinearRegressor())
register_regressor(PolynomialRegressor(2))
register_regressor(PolynomialRegressor(3))
register_regressor(ExponentialRegressor())
register_regressor(LogarithmRegressor())
register_regressor(SinusoidalRegressor(1))
register_regressor(SinusoidalRegressor(2))

__all__ = [
    "Regressor",
    "floor_to_int64",
    "BasisRegressor",
    "PolynomialRegressor",
    "fit_minimax",
    "ConstantRegressor",
    "LinearRegressor",
    "chebyshev_line",
    "chebyshev_lines",
    "ExponentialRegressor",
    "LogarithmRegressor",
    "SinusoidalRegressor",
    "estimate_frequencies",
    "register_regressor",
    "get_regressor",
    "available_regressors",
]
