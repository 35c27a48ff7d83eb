"""Tests for the Hyperparameter-Advisor (features, CART, selector)."""

import numpy as np
import pytest

from repro.core.advisor import (
    CANDIDATES,
    CartClassifier,
    FEATURE_NAMES,
    RegressorSelector,
    extract_features,
    kth_order_deviation,
    optimal_regressor_name,
    subrange_stats,
    training_set,
)


class TestFeatures:
    def test_feature_vector_shape(self):
        values = np.arange(1000, dtype=np.int64)
        feats = extract_features(values)
        assert feats.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(feats))

    def test_empty_input(self):
        assert extract_features(np.array([], dtype=np.int64)).shape == (
            len(FEATURE_NAMES),)

    def test_linear_data_has_zero_first_order_deviation(self):
        values = (7 * np.arange(500)).astype(np.int64)
        assert kth_order_deviation(values, 1) == pytest.approx(0.0)

    def test_quadratic_data_has_zero_second_order_deviation(self):
        values = (np.arange(500) ** 2).astype(np.int64)
        assert kth_order_deviation(values, 2) == pytest.approx(0.0)
        assert kth_order_deviation(values, 1) > 0.0

    def test_deviation_short_input(self):
        assert kth_order_deviation(np.array([1, 2]), 3) == 0.0

    def test_subrange_trend_flat_for_linear(self):
        values = (3 * np.arange(2000)).astype(np.int64)
        trend, divergence = subrange_stats(values)
        assert trend == pytest.approx(1.0)
        assert divergence == pytest.approx(0.0)

    def test_subrange_trend_grows_for_exponential(self):
        values = np.round(np.exp(0.01 * np.arange(2000))).astype(np.int64)
        trend, _ = subrange_stats(values)
        assert trend > 1.2

    def test_subrange_short_input(self):
        assert subrange_stats(np.arange(10)) == (1.0, 0.0)


class TestCart:
    def test_fits_separable_data(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(0, 1, (100, 3))
        x1 = rng.normal(5, 1, (100, 3))
        feats = np.vstack([x0, x1])
        labels = np.array([0] * 100 + [1] * 100)
        cart = CartClassifier(max_depth=4).fit(feats, labels)
        assert (cart.predict(feats) == labels).mean() > 0.97

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(0, 1, (200, 4))
        labels = rng.integers(0, 3, 200)
        cart = CartClassifier(max_depth=3).fit(feats, labels)
        assert cart.depth() <= 3

    def test_single_class(self):
        feats = np.random.default_rng(2).normal(0, 1, (50, 2))
        cart = CartClassifier().fit(feats, np.zeros(50, dtype=np.int64))
        assert set(cart.predict(feats)) == {0}

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CartClassifier().predict_one(np.zeros(3))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CartClassifier().fit(np.zeros((5, 2)), np.zeros(4))

    def test_nested_splits_learn_a_band(self):
        """Classifying a band a < x < b needs two stacked splits on the
        same feature — exercises recursive tree growth."""
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, (400, 1))
        labels = ((x[:, 0] > 3) & (x[:, 0] < 7)).astype(np.int64)
        cart = CartClassifier(max_depth=3, min_leaf=2).fit(x, labels)
        assert (cart.predict(x) == labels).mean() > 0.98
        assert cart.depth() >= 2


class TestSelector:
    @pytest.fixture(scope="class")
    def selector(self):
        return RegressorSelector(samples_per_class=40, train_length=384)

    def test_recommends_linear_for_linear(self, selector):
        values = (5 * np.arange(600) + 17).astype(np.int64)
        assert selector.recommend_name(values) in ("linear", "constant")

    def test_recommends_higher_order_for_cubic(self, selector):
        values = (np.arange(600) ** 3 // 50).astype(np.int64)
        assert selector.recommend_name(values) in ("poly2", "poly3",
                                                   "exponential")

    def test_recommend_returns_regressor(self, selector):
        reg = selector.recommend(np.arange(100, dtype=np.int64))
        assert hasattr(reg, "fit_many")

    def test_training_set_is_balanced(self):
        feats, labels = training_set(samples_per_class=10, length=128)
        assert len(feats) == 10 * len(CANDIDATES)
        assert np.bincount(labels).tolist() == [10] * len(CANDIDATES)


class TestOptimalSearch:
    def test_optimal_picks_quadratic_for_quadratic(self):
        values = (3 * np.arange(400) ** 2 + 7).astype(np.int64)
        assert optimal_regressor_name(values) in ("poly2", "poly3")

    def test_optimal_picks_cheap_model_for_constant(self):
        values = np.full(500, 9, dtype=np.int64)
        assert optimal_regressor_name(values) == "constant"
