"""Tests for the minimax regressors (paper §3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regressors import (
    ConstantRegressor,
    ExponentialRegressor,
    LinearRegressor,
    LogarithmRegressor,
    PolynomialRegressor,
    SinusoidalRegressor,
    available_regressors,
    chebyshev_line,
    chebyshev_lines,
    estimate_frequencies,
    floor_to_int64,
    get_regressor,
    linear,
)
from repro.core.regressors.basis import _least_squares_centered, fit_minimax

int_arrays = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                      max_size=120).map(lambda v: np.array(v, dtype=np.int64))


def max_abs_residual(reg, values) -> int:
    """Largest ``|v_i - floor(pred(i))|`` of ``reg``'s one-row fit."""
    values = np.asarray(values, dtype=np.int64)
    pred = reg.predict_many(reg.fit_many(values[None, :]), len(values))
    return int(np.abs(values - floor_to_int64(pred[0])).max())


def _lp_minimax_error(values: np.ndarray) -> float:
    """Reference minimax error via linear programming."""
    from scipy.optimize import linprog

    n = len(values)
    design = np.column_stack([np.ones(n), np.arange(n)])
    c = np.array([0.0, 0.0, 1.0])
    a_ub = np.vstack([
        np.hstack([design, -np.ones((n, 1))]),
        np.hstack([-design, -np.ones((n, 1))]),
    ])
    b_ub = np.concatenate([values, -values]).astype(float)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * 2 + [(0, None)], method="highs")
    return float(res.x[2])


class TestChebyshevLine:
    def test_empty_and_singleton(self):
        assert chebyshev_line(np.array([], dtype=np.int64)) == (0.0, 0.0, 0.0)
        a, b, e = chebyshev_line(np.array([42]))
        assert (a, b, e) == (42.0, 0.0, 0.0)

    def test_two_points_exact(self):
        a, b, e = chebyshev_line(np.array([10, 14]))
        assert (a, b, e) == (10.0, 4.0, 0.0)

    def test_collinear_has_zero_error(self):
        values = 7 + 3 * np.arange(50)
        _, slope, err = chebyshev_line(values)
        assert slope == pytest.approx(3.0)
        assert err == pytest.approx(0.0, abs=1e-9)

    @given(int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_reported_error_is_achieved(self, values):
        a, b, e = chebyshev_line(values)
        pred = a + b * np.arange(len(values))
        assert np.abs(values - pred).max() <= e + 1e-6 * (1 + abs(e))

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=3, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_matches_lp_optimum(self, raw):
        values = np.array(raw, dtype=np.int64)
        _, _, err = chebyshev_line(values)
        assert err == pytest.approx(_lp_minimax_error(values), abs=1e-5)


class TestConstantRegressor:
    def test_midrange_fit(self):
        params = ConstantRegressor().fit_many(np.array([[0, 10]]))
        assert params[0, 0] == pytest.approx(5.0)

    def test_minimax_beats_min_reference(self):
        values = np.array([0, 100], dtype=np.int64)
        assert max_abs_residual(ConstantRegressor(), values) <= 50

    def test_fast_delta_bits_matches_span(self):
        values = np.array([3, 3, 11], dtype=np.int64)
        assert ConstantRegressor().fast_delta_bits(values) == 4  # span 8

    def test_empty_fit(self):
        params = ConstantRegressor().fit_many(np.empty((1, 0), np.int64))
        assert params.tolist() == [[0.0]]


class TestLinearRegressor:
    def test_residuals_small_on_linear_data(self):
        values = (5 + 17 * np.arange(200)).astype(np.int64)
        assert max_abs_residual(LinearRegressor(), values) <= 1  # floor slack

    @given(int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_load_reproduces_predictions(self, values):
        """The stored row is the Chebyshev line, and predicts it."""
        reg = LinearRegressor()
        params = reg.fit_many(values[None, :])
        intercept, slope, _ = chebyshev_line(values)
        assert params.tolist() == [[intercept, slope]]
        positions = np.arange(len(values), dtype=np.float64)
        assert np.array_equal(
            floor_to_int64(reg.predict_many(params, len(values))[0]),
            floor_to_int64(intercept + slope * positions))

    def test_fast_delta_bits_zero_for_arithmetic_progression(self):
        values = (100 + 7 * np.arange(64)).astype(np.int64)
        assert LinearRegressor().fast_delta_bits(values) == 0

    def test_fast_delta_bits_short_input(self):
        assert LinearRegressor().fast_delta_bits(np.array([5])) == 0


class TestPolynomialRegressor:
    def test_quadratic_fits_quadratic(self):
        x = np.arange(100)
        values = (3 * x ** 2 + 5 * x + 7).astype(np.int64)
        assert max_abs_residual(PolynomialRegressor(2), values) <= 1

    def test_cubic_fits_cubic(self):
        x = np.arange(60)
        values = (x ** 3 - 4 * x).astype(np.int64)
        assert max_abs_residual(PolynomialRegressor(3), values) <= 1

    def test_lp_no_worse_than_centred_ls(self):
        rng = np.random.default_rng(0)
        x = np.arange(80, dtype=np.float64)
        values = 2 * x ** 2 + rng.integers(-40, 41, 80)
        design = np.column_stack([np.ones_like(x), x, x ** 2])

        def band(theta):
            return np.abs(design @ theta - values).max()

        assert band(fit_minimax(design, values)) <= \
            band(_least_squares_centered(design, values))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            PolynomialRegressor(0)

    def test_fast_delta_bits_constant_kth_difference(self):
        x = np.arange(50)
        values = (x ** 2).astype(np.int64)
        assert PolynomialRegressor(2).fast_delta_bits(values) == 0


class TestSpecialRegressors:
    def test_exponential_beats_linear_on_exponential_data(self):
        values = np.round(5 * np.exp(0.05 * np.arange(200))).astype(np.int64)
        exp_res = max_abs_residual(ExponentialRegressor(), values)
        lin_res = max_abs_residual(LinearRegressor(), values)
        assert exp_res < lin_res / 4

    def test_logarithm_beats_linear_on_log_data(self):
        values = np.round(1e4 * np.log1p(np.arange(500))).astype(np.int64)
        log_res = max_abs_residual(LogarithmRegressor(), values)
        lin_res = max_abs_residual(LinearRegressor(), values)
        assert log_res < lin_res / 4

    def test_sinusoidal_captures_carrier(self):
        x = np.arange(2000)
        values = np.round(1e5 * np.sin(0.05 * x)).astype(np.int64)
        sin_res = max_abs_residual(SinusoidalRegressor(1), values)
        lin_res = max_abs_residual(LinearRegressor(), values)
        assert sin_res < lin_res / 10

    def test_known_frequency_variant(self):
        x = np.arange(1500)
        freq = 0.031
        values = np.round(5e4 * np.sin(freq * x)).astype(np.int64)
        reg = SinusoidalRegressor(1, freqs=[freq])
        assert max_abs_residual(reg, values) <= 2

    def test_estimate_frequencies_finds_dominant(self):
        x = np.arange(4096)
        freq = 2 * np.pi * 32 / 4096
        values = 1000 * np.sin(freq * x)
        found = estimate_frequencies(values, 1)[0]
        assert found == pytest.approx(freq, rel=0.05)

    def test_sinusoidal_validates_args(self):
        with pytest.raises(ValueError):
            SinusoidalRegressor(0)
        with pytest.raises(ValueError):
            SinusoidalRegressor(2, freqs=[0.1])

    def test_exponential_load_roundtrip(self):
        """A stored row is ``theta0, theta1, rate``: it alone gives the
        predictions ``theta0 + theta1 * exp(rate * i)``."""
        values = np.round(3 * np.exp(0.02 * np.arange(100))).astype(np.int64)
        reg = ExponentialRegressor()
        params = reg.fit_many(values[None, :])
        rate = params[0, 2]
        x = np.arange(100, dtype=np.float64)
        want = np.column_stack([np.ones_like(x), np.exp(rate * x)]) \
            @ params[0, :2]
        assert reg.predict_many(params, 100)[0].tobytes() == want.tobytes()


class TestRegistry:
    def test_builtins_registered(self):
        names = available_regressors()
        for expected in ("constant", "linear", "poly2", "poly3",
                         "exponential", "logarithm", "sin1", "sin2"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_regressor("nope")

    @pytest.mark.parametrize("name", ["constant", "linear", "poly2",
                                      "poly3", "exponential", "logarithm",
                                      "sin1", "sin2"])
    def test_param_count_matches_fit(self, name):
        reg = get_regressor(name)
        n = max(reg.min_partition_size, 16)
        values = (np.arange(n) * 3 + 1).astype(np.int64)
        assert reg.fit_many(values[None, :]).shape == (1, reg.param_count)


# ---------------------------------------------------------------- batches
def reference_chebyshev_line(values, pass_limit=64):
    """The one-row-at-a-time fit as it stood before ``fit_many``: one
    iterated-pruning loop per hull, then the pointer walk over the edges.
    Its choices are the definition of the stored bytes; the batched fit
    must reproduce them bit for bit."""
    ys = np.asarray(values, dtype=np.float64)
    n = len(ys)
    if n == 0:
        return 0.0, 0.0, 0.0
    if n == 1:
        return float(ys[0]), 0.0, 0.0
    if n == 2:
        return float(ys[0]), float(ys[1] - ys[0]), 0.0

    def hull_of(sign):
        idx = np.arange(n)
        for _ in range(pass_limit):
            if idx.size <= 2:
                return idx.tolist()
            y = ys[idx]
            x = idx.astype(np.float64)
            cross = (y[1:-1] - y[:-2]) * (x[2:] - x[:-2]) \
                - (y[2:] - y[:-2]) * (x[1:-1] - x[:-2])
            bad = sign * cross <= 0
            if not bad.any():
                return idx.tolist()
            keep = np.ones(idx.size, dtype=bool)
            keep[1:-1][bad] = False
            idx = idx[keep]
        hull = []
        for i in idx.tolist():
            while len(hull) >= 2:
                i1, i2 = hull[-2], hull[-1]
                cross = (ys[i2] - ys[i1]) * (i - i1) \
                    - (ys[i] - ys[i1]) * (i2 - i1)
                if sign * cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(i)
        return hull

    best_width = np.inf
    best = (float(ys[0]), 0.0)
    for edge_hull, far_hull, sign in ((hull_of(-1.0), hull_of(+1.0), +1.0),
                                      (hull_of(+1.0), hull_of(-1.0), -1.0)):
        j = len(far_hull) - 1
        for k in range(len(edge_hull) - 1):
            x1, x2 = edge_hull[k], edge_hull[k + 1]
            slope = (ys[x2] - ys[x1]) / (x2 - x1)

            def dist(idx):
                return sign * (ys[idx] - (ys[x1] + slope * (idx - x1)))

            while j > 0 and dist(far_hull[j - 1]) >= dist(far_hull[j]):
                j -= 1
            width = dist(far_hull[j])
            if width < best_width:
                best_width = width
                mid = ys[x1] + sign * width / 2.0
                best = (mid - slope * x1, slope)
    return best[0], best[1], best_width / 2.0


def _row(kind: int, length: int, rng: np.random.Generator) -> np.ndarray:
    """One row of ``length`` values from the family ``kind`` names."""
    i = np.arange(length)
    if kind == 0:       # small steps with 40-bit jumps
        row = rng.integers(-50, 50, length)
        row[rng.integers(0, length, 1 + length // 40)] += 1 << 40
        return np.cumsum(row)
    if kind == 1:       # near +-2**62: float64 cannot tell neighbours apart
        sign = 1 if rng.integers(0, 2) else -1
        return sign * ((1 << 62) - np.cumsum(rng.integers(0, 1 << 20, length)))
    if kind == 2:       # two or three distinct values
        return rng.choice(rng.integers(-1000, 1000, 3), length)
    if kind == 3:       # collinear, or one off
        return int(rng.integers(-9, 9)) * i + rng.integers(0, 2, length) \
            * int(rng.integers(0, 2))
    if kind == 4:       # convex: one hull holds every point
        return int(rng.integers(1, 1000)) * i * i + rng.integers(0, 3, length)
    if kind == 5:       # both hulls large
        return (2 * (i % 2) - 1) * (length * length - (i - length // 2) ** 2)
    if kind == 6:       # the whole int64 range
        return rng.integers(-(1 << 62), 1 << 62, length)
    if kind == 7:       # near-collinear far above 2**53: rounding breaks
        #                 the rise-then-fall shape of the edge distances
        return int(rng.integers(1 << 50, 1 << 62)) \
            + int(rng.integers(-(1 << 40), 1 << 40)) * i \
            + rng.integers(-2, 3, length)
    return rng.integers(0, 1 << int(rng.integers(1, 40)), length)


@st.composite
def row_matrices(draw, max_rows=6):
    length = draw(st.integers(1, 300))
    kinds = draw(st.lists(st.integers(0, 8), min_size=1, max_size=max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.stack([_row(kind, length, rng) for kind in kinds]
                    ).astype(np.int64)


def assert_bitwise_rows(got: np.ndarray, want: list) -> None:
    want = np.array(want, dtype=np.float64).reshape(got.shape)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes(), (got, want)


class TestBatchContract:
    """Every registered family: row ``r`` of ``fit_many(rows)``, of
    ``predict_many(params, L)`` and of ``delta_bits_many(rows)`` is
    bitwise the one-row call on row ``r`` alone."""

    @pytest.mark.parametrize("name", available_regressors())
    def test_rows_are_the_one_row_calls(self, name):
        reg = get_regressor(name)
        rng = np.random.default_rng(7)
        # a row shorter than the family's minimum, and a full one
        for length in (reg.min_partition_size - 1, 40):
            rows = np.stack([_row(kind, length, rng) if length
                             else np.empty(0) for kind in (0, 2, 3, 4, 8)]
                            ).astype(np.int64)
            params = reg.fit_many(rows)
            pred = reg.predict_many(params, length)
            assert params.shape == (len(rows), reg.param_count)
            assert pred.shape == rows.shape
            bits = reg.delta_bits_many(rows)
            for r in range(len(rows)):
                one = reg.fit_many(rows[r:r + 1])
                assert params[r:r + 1].tobytes() == one.tobytes()
                assert pred[r:r + 1].tobytes() == \
                    reg.predict_many(one, length).tobytes()
                assert bits[r] == reg.delta_bits(rows[r])
        assert reg.fit_many(np.empty((0, 40), np.int64)).shape == \
            (0, reg.param_count)
        assert reg.predict_many(np.empty((0, reg.param_count)), 40).shape \
            == (0, 40)


class TestFitMany:
    """``fit_many(rows)`` is bitwise the reference fit of each row."""

    @given(row_matrices())
    @settings(max_examples=120, deadline=None)
    def test_linear_rows_equal_the_scalar_walk(self, rows):
        got = LinearRegressor().fit_many(rows)
        assert_bitwise_rows(
            got, [reference_chebyshev_line(row)[:2] for row in rows])
        assert_bitwise_rows(
            got, [LinearRegressor().fit_many(row[None, :]) for row in rows])
        _, _, radius = chebyshev_lines(rows)
        assert_bitwise_rows(
            radius, [reference_chebyshev_line(row)[2] for row in rows])

    @given(row_matrices())
    @settings(max_examples=60, deadline=None)
    def test_constant_rows(self, rows):
        assert_bitwise_rows(
            ConstantRegressor().fit_many(rows),
            [(float(row.min()) + float(row.max())) / 2.0 for row in rows])

    @pytest.mark.parametrize("name", ["constant", "linear"])
    @given(rows=row_matrices())
    @settings(max_examples=30, deadline=None)
    def test_predict_many_is_what_the_decoder_sees(self, name, rows):
        reg = get_regressor(name)
        params = reg.fit_many(rows)
        assert_bitwise_rows(
            reg.predict_many(params, rows.shape[1]),
            [reg.predict_many(p[None, :], rows.shape[1]) for p in params])

    def test_empty_matrix_and_short_rows(self):
        for reg in (LinearRegressor(), ConstantRegressor(),
                    get_regressor("poly2")):
            assert reg.fit_many(np.empty((0, 8), dtype=np.int64)).shape == \
                (0, reg.param_count)
        for length in (0, 1, 2):
            rows = np.arange(3 * length, dtype=np.int64).reshape(3, length)
            assert_bitwise_rows(
                LinearRegressor().fit_many(rows),
                [reference_chebyshev_line(row)[:2] for row in rows])

    @given(row_matrices())
    @settings(max_examples=40, deadline=None)
    def test_pass_limit_hands_over_to_the_scalar_chain(self, rows):
        """Hulls still shedding points at the pass limit are finished by
        the scalar chain — row by row the same hand-over as before."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linear, "_HULL_PASS_LIMIT", 3)
            got = LinearRegressor().fit_many(rows)
        assert_bitwise_rows(
            got, [reference_chebyshev_line(row, pass_limit=3)[:2]
                  for row in rows])

    def test_rows_far_above_2_53_keep_the_pointer_walks_line(self):
        """Far above 2**53 the distances along a far hull stop being
        unimodal in float64; taking their maximum there would pick
        another line than the pointer walk does (and move stored bytes)."""
        rng = np.random.default_rng(1)
        rows = np.stack([_row(7, 150, rng) for _ in range(40)]
                        ).astype(np.int64)
        assert_bitwise_rows(
            LinearRegressor().fit_many(rows),
            [reference_chebyshev_line(row)[:2] for row in rows])


def reference_diff_span_bits(row, order: int) -> int:
    """``Δ̃`` as the scalar regressors spelled it before there was a matrix
    form: exact Python-int span of ``np.diff``."""
    if len(row) <= order:
        return 0
    d = np.diff(np.asarray(row, dtype=np.int64), n=order)
    return (int(d.max()) - int(d.min())).bit_length()


class TestFastDeltaBitsMany:
    @pytest.mark.parametrize("name, order", [
        ("constant", 0), ("linear", 1), ("poly2", 2), ("poly3", 3)])
    @given(rows=row_matrices())
    @settings(max_examples=30, deadline=None)
    def test_rows_and_the_one_row_case_equal_the_diff_span(
            self, name, order, rows):
        reg = get_regressor(name)
        want = [reference_diff_span_bits(row, order) for row in rows]
        assert reg.fast_delta_bits_many(rows).tolist() == want
        assert [reg.fast_delta_bits(row) for row in rows] == want

    def test_no_closed_form_means_the_exact_width(self):
        reg = get_regressor("logarithm")
        rows = np.cumsum(np.arange(24).reshape(2, 12) % 5, axis=1)
        assert reg.fast_delta_bits_many(rows).tolist() == \
            [reg.delta_bits(row) for row in rows]

    def test_spans_that_wrap_int64(self):
        info = np.iinfo(np.int64)
        rows = np.array([[info.min, info.max, info.min, 0],
                         [info.max, info.min, info.max, -1],
                         [0, 0, 0, 0],
                         [info.min, info.min + 1, info.max, info.max]])
        for order, name in enumerate(("constant", "linear", "poly2")):
            reg = get_regressor(name)
            assert reg.fast_delta_bits_many(rows).tolist() == \
                [reference_diff_span_bits(row, order) for row in rows], name
