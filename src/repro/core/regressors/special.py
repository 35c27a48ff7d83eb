"""Exponential, logarithmic, and sinusoidal regressors (paper §4.4).

These demonstrate LeCo's extensibility beyond polynomials: the framework
accepts any linear combination of terms, and domain knowledge (e.g. the two
sine carriers of the ``cosmos`` data set) plugs in as extra basis functions.
Non-linear inner parameters (exponential rate, sine frequencies) are
estimated first, then the outer weights are fitted minimax
(:class:`~repro.core.regressors.basis.BasisRegressor`).
"""

from __future__ import annotations

import numpy as np

from repro.core.regressors.basis import BasisRegressor


class ExponentialRegressor(BasisRegressor):
    """``F(i) = theta0 + theta1 * exp(rate * i)``.

    The rate is estimated from a log-space linear fit on the de-trended
    values, then frozen while the outer weights are fitted minimax.
    """

    name = "exponential"
    min_partition_size = 4
    param_count = 3  # theta0, theta1, rate
    inner_count = 1

    def inner(self, values: np.ndarray) -> np.ndarray:
        shifted = values - values.min() + 1.0
        logs = np.log(shifted)
        n = len(values)
        positions = np.arange(n, dtype=np.float64)
        slope = (np.polyfit(positions, logs, 1)[0] if n >= 2 else 0.0)
        # keep exp(rate * n) within float range
        max_rate = 650.0 / max(n, 1)
        return np.clip([slope], -max_rate, max_rate)

    def terms(self, inner: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        return [np.ones_like(x), np.exp(inner[0] * x)]


class LogarithmRegressor(BasisRegressor):
    """``F(i) = theta0 + theta1 * log(1 + i)``."""

    name = "logarithm"
    min_partition_size = 3
    param_count = 2

    def terms(self, inner: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        return [np.ones_like(x), np.log1p(x)]


def estimate_frequencies(values: np.ndarray, n_freqs: int) -> np.ndarray:
    """Dominant angular frequencies of the de-trended signal.

    Matching pursuit: find the FFT peak of the current residual, refine it
    numerically (spectral leakage biases the raw bin by a fraction — enough
    to drift half a cycle over a long partition), subtract the fitted
    carrier, repeat.  Subtraction keeps a dominant carrier's sidelobes from
    masking weaker ones.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 8 or n_freqs == 0:
        return np.zeros(n_freqs)
    positions = np.arange(n, dtype=np.float64)
    residual = values - np.polyval(np.polyfit(positions, values, 1),
                                   positions)
    bin_width = 2.0 * np.pi / n
    picked: list[float] = []
    for _ in range(n_freqs):
        spectrum = np.abs(np.fft.rfft(residual))
        spectrum[0] = 0.0
        idx = int(np.argmax(spectrum))
        if spectrum[idx] == 0.0:
            picked.append(0.0)
            continue
        freq = _refine_frequency(residual, idx * bin_width, bin_width)
        picked.append(freq)
        design = np.column_stack([np.ones(n), positions,
                                  np.sin(freq * positions),
                                  np.cos(freq * positions)])
        theta, *_ = np.linalg.lstsq(design, residual, rcond=None)
        residual = residual - design @ theta
    return np.asarray(picked)


def _refine_frequency(signal: np.ndarray, freq: float,
                      bin_width: float) -> float:
    from scipy.optimize import minimize_scalar

    positions = np.arange(len(signal), dtype=np.float64)
    design_base = np.column_stack([np.ones_like(positions), positions])

    def cost(w: float) -> float:
        design = np.column_stack([design_base, np.sin(w * positions),
                                  np.cos(w * positions)])
        theta, *_ = np.linalg.lstsq(design, signal, rcond=None)
        return float(np.abs(signal - design @ theta).max())

    result = minimize_scalar(cost, bounds=(freq - bin_width,
                                           freq + bin_width),
                             method="bounded",
                             options={"xatol": bin_width * 1e-4})
    return float(result.x) if result.fun <= cost(freq) else freq


class SinusoidalRegressor(BasisRegressor):
    """Linear trend plus ``n_sines`` sine/cosine carriers.

    ``freqs`` supplies known angular frequencies (the paper's ``2sin-freq``
    variant); when omitted they are estimated per partition from the FFT
    (the ``sin`` / ``2sin`` variants).
    """

    def __init__(self, n_sines: int = 1,
                 freqs: np.ndarray | None = None):
        if n_sines < 1:
            raise ValueError(f"n_sines must be >= 1, got {n_sines}")
        self.n_sines = n_sines
        self.known_freqs = (np.asarray(freqs, dtype=np.float64)
                            if freqs is not None else None)
        if self.known_freqs is not None and len(self.known_freqs) != n_sines:
            raise ValueError("freqs length must equal n_sines")
        # the stored parameter vector carries the frequencies, so known-
        # frequency variants share the storage-format name of the estimated
        # ones and decode through the same registry entry
        self.name = f"sin{n_sines}"
        self.min_partition_size = 2 + 2 * n_sines + 2
        self.param_count = 2 + 3 * n_sines  # theta + stored freqs
        self.inner_count = n_sines

    def inner(self, values: np.ndarray) -> np.ndarray:
        if self.known_freqs is not None:
            return self.known_freqs
        return estimate_frequencies(values, self.n_sines)

    def terms(self, inner: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        out = [np.ones_like(x), x]
        for w in inner:
            out += [np.sin(w * x), np.cos(w * x)]
        return out
