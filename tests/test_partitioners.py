"""Tests for the partitioning schemes (paper §3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioners import (
    AutoFixedPartitioner,
    FixedLengthPartitioner,
    LaVectorPartitioner,
    OptimalPartitioner,
    PLAPartitioner,
    SimPiecePartitioner,
    SplitMergePartitioner,
    advise_partitioning,
    fixed_bounds,
    global_hardness,
    local_hardness,
    plan_cost_bits,
    pla_segments,
    search_partition_size,
    select_seeds,
    simpiece_segments,
    validate_bounds,
)
from repro.core.regressors import (
    ConstantRegressor,
    LinearRegressor,
    get_regressor,
)

int_arrays = st.lists(st.integers(-(1 << 30), 1 << 30), min_size=1,
                      max_size=300).map(
                          lambda v: np.array(v, dtype=np.int64))

ALL_PARTITIONERS = [
    FixedLengthPartitioner(16),
    AutoFixedPartitioner(max_size=64),
    SplitMergePartitioner(tau=0.1),
    OptimalPartitioner(window=64),
    PLAPartitioner(epsilon=50),
    SimPiecePartitioner(epsilon=50),
    LaVectorPartitioner(),
]


class TestBoundsValidation:
    def test_valid_cover_accepted(self):
        validate_bounds([(0, 3), (3, 7)], 7)

    @pytest.mark.parametrize("bounds,n", [
        ([(0, 3), (4, 7)], 7),     # gap
        ([(0, 3), (2, 7)], 7),     # overlap
        ([(1, 7)], 7),             # does not start at 0
        ([(0, 5)], 7),             # does not end at n
        ([(0, 0)], 0),             # empty partition
        ([], 5),                   # empty plan for non-empty data
    ])
    def test_bad_covers_rejected(self, bounds, n):
        with pytest.raises(ValueError):
            validate_bounds(bounds, n)

    def test_empty_sequence(self):
        validate_bounds([], 0)


class TestEveryPartitionerProducesValidCover:
    @pytest.mark.parametrize("partitioner", ALL_PARTITIONERS,
                             ids=lambda p: p.name)
    @given(values=int_arrays)
    @settings(max_examples=15, deadline=None)
    def test_cover_property(self, partitioner, values):
        bounds = partitioner.partition(values, LinearRegressor())
        validate_bounds(bounds, len(values))


class TestFixedLength:
    def test_fixed_bounds_shapes(self):
        assert fixed_bounds(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert fixed_bounds(8, 4) == [(0, 4), (4, 8)]
        assert fixed_bounds(0, 4) == []

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            FixedLengthPartitioner(0)
        with pytest.raises(ValueError):
            fixed_bounds(10, -1)

    def test_search_prefers_large_blocks_on_linear_data(self):
        values = (3 * np.arange(20_000)).astype(np.int64)
        size = search_partition_size(values, LinearRegressor(),
                                     max_size=4096)
        assert size >= 1024

    def test_search_lands_near_the_u_shape_minimum(self):
        """Fig. 5: the ratio-vs-size curve is U-shaped; the sampled search
        should find a size no worse than both extremes."""
        rng = np.random.default_rng(0)
        # plateaus of 256 with big level jumps: small blocks drown in
        # headers, huge blocks absorb many jumps into one width
        levels = rng.integers(0, 1 << 40, 64)
        values = np.repeat(levels, 256).astype(np.int64)
        values += rng.integers(0, 4, len(values))
        reg = LinearRegressor()
        from repro.core.partitioners.fixed import _cost_at_size, _sample_ranges

        samples = _sample_ranges(len(values), 4096, 0.05, 7)
        chosen = search_partition_size(values, reg, max_size=4096,
                                       sample_fraction=0.05)
        chosen_cost = _cost_at_size(values, samples, reg, chosen)
        assert chosen_cost <= _cost_at_size(values, samples, reg, 3)
        assert chosen_cost <= _cost_at_size(values, samples, reg, 4096)

    @pytest.mark.parametrize("regressor", ["linear", "constant", "poly2",
                                           "delta-cost"])
    def test_matrix_cost_equals_the_per_partition_plan_cost(self, regressor):
        """One reshape + row-wise widths per candidate size costs exactly
        what ``plan_cost_bits`` does one partition at a time — full rows,
        ragged tail, sample shorter than the size — so the search lands on
        the same size."""
        from repro.baselines.delta import DeltaCostAdapter
        from repro.core.partitioners.fixed import _cost_at_size

        reg = DeltaCostAdapter() if regressor == "delta-cost" \
            else get_regressor(regressor)
        i = np.arange(3000)
        rng = np.random.default_rng(11)
        inputs = [1000 + 37 * i,
                  (i // 250) * 100_000 + (i % 250) * 3,
                  (np.arange(2500) * 2654435761) % 1_000_003 - 500_000,
                  np.cumsum(np.arange(1237) % 7) * 5 - 9000,
                  rng.integers(-(1 << 63), (1 << 63) - 1, 700)]
        for values in inputs:
            values = values.astype(np.int64)
            samples = [(0, len(values)), (5, 5 + len(values) // 3)]
            items = sum(hi - lo for lo, hi in samples)
            for size in (2, 3, 7, 64, 250, 1024, len(values),
                         len(values) + 5):
                want = sum(plan_cost_bits(
                    values[lo:hi], fixed_bounds(hi - lo, size), reg,
                    variable=False, exact=False) for lo, hi in samples)
                assert _cost_at_size(values, samples, reg, size) == \
                    want / items, (regressor, size)


class TestSplitMerge:
    def test_tau_validation(self):
        with pytest.raises(ValueError):
            SplitMergePartitioner(tau=1.5)

    def test_detects_slope_change(self):
        # two clean linear pieces; the boundary should be within a few
        # positions of the true change point
        a = 100 * np.arange(500)
        b = a[-1] + 3 * np.arange(1, 501)
        values = np.concatenate([a, b]).astype(np.int64)
        bounds = SplitMergePartitioner(tau=0.05).partition(
            values, LinearRegressor())
        edges = {edge for _, edge in bounds}
        assert any(abs(edge - 500) <= 8 for edge in edges)

    def test_single_partition_on_clean_line(self):
        values = (7 * np.arange(2000) + 3).astype(np.int64)
        bounds = SplitMergePartitioner(tau=0.05).partition(
            values, LinearRegressor())
        assert len(bounds) <= 3

    def test_close_to_optimal_cost(self):
        """The paper claims the greedy is within ~3% of the DP optimum; we
        allow 10% on our cost model across several shapes."""
        rng = np.random.default_rng(1)
        reg = LinearRegressor()
        for shape in range(3):
            if shape == 0:
                values = np.cumsum(rng.integers(0, 60, 3000)).astype(np.int64)
            elif shape == 1:
                values = np.concatenate([
                    s * np.arange(300) + int(rng.integers(0, 10 ** 6))
                    for s in rng.integers(1, 400, 10)]).astype(np.int64)
            else:
                values = rng.integers(0, 10 ** 6, 2000).astype(np.int64)
            greedy = SplitMergePartitioner(tau=0.1).partition(values, reg)
            optimal = OptimalPartitioner(window=len(values)).partition(
                values, reg)
            greedy_cost = plan_cost_bits(values, greedy, reg, exact=True)
            optimal_cost = plan_cost_bits(values, optimal, reg, exact=True)
            assert greedy_cost <= optimal_cost * 1.10, shape

    def test_empty_input(self):
        bounds = SplitMergePartitioner().partition(
            np.array([], dtype=np.int64), LinearRegressor())
        assert bounds == []

    def test_works_with_constant_regressor(self):
        values = np.repeat(np.arange(10), 50).astype(np.int64)
        bounds = SplitMergePartitioner(tau=0.1).partition(
            values, ConstantRegressor())
        validate_bounds(bounds, len(values))


class TestSeedSelection:
    def test_seeds_prefer_smooth_regions(self):
        rng = np.random.default_rng(2)
        rough = rng.integers(0, 10 ** 6, 100)
        smooth = 5 * np.arange(100) + 10 ** 6
        values = np.concatenate([rough, smooth]).astype(np.int64)
        seeds = select_seeds(values, order=2)
        # the best-precedence seed should live in the smooth half
        assert seeds[0] >= 95

    def test_short_input(self):
        assert list(select_seeds(np.array([1, 2], dtype=np.int64), 2)) == [0]


class TestPLA:
    @given(int_arrays, st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_error_bound_property(self, values, epsilon):
        """Every PLA segment admits a line through its anchor within eps."""
        segments = pla_segments(values, float(epsilon))
        validate_bounds(segments, len(values))
        for start, end in segments:
            seg = values[start:end].astype(np.float64)
            if len(seg) <= 2:
                continue
            x = np.arange(len(seg))
            # feasibility: some slope through the anchor fits all points
            lo = ((seg[1:] - epsilon - seg[0]) / x[1:]).max()
            hi = ((seg[1:] + epsilon - seg[0]) / x[1:]).min()
            assert lo <= hi + 1e-9

    def test_zero_epsilon_splits_at_any_nonlinearity(self):
        values = np.array([0, 10, 20, 35], dtype=np.int64)
        segments = pla_segments(values, 0.0)
        assert len(segments) == 2

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            pla_segments(np.array([1, 2]), -1.0)

    def test_linear_data_single_segment(self):
        values = (42 + 9 * np.arange(5000)).astype(np.int64)
        assert len(pla_segments(values, 1.0)) == 1


class TestSimPiece:
    def test_quantised_segments_cover(self):
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.integers(0, 50, 2000)).astype(np.int64)
        segments = simpiece_segments(values, 32.0)
        validate_bounds(segments, len(values))

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            SimPiecePartitioner(0.0)

    def test_more_segments_than_plain_pla(self):
        """Quantising the anchor can only shrink the feasible cone."""
        rng = np.random.default_rng(4)
        values = np.cumsum(rng.integers(0, 100, 3000)).astype(np.int64)
        plain = pla_segments(values, 64.0)
        quantised = simpiece_segments(values, 64.0)
        assert len(quantised) >= len(plain)


class TestLaVector:
    def test_prefers_wide_segments_on_linear_data(self):
        values = (11 * np.arange(3000)).astype(np.int64)
        bounds = LaVectorPartitioner().partition(values, LinearRegressor())
        assert len(bounds) <= 4

    def test_handles_single_value(self):
        bounds = LaVectorPartitioner().partition(
            np.array([5], dtype=np.int64), LinearRegressor())
        assert bounds == [(0, 1)]


class TestOptimalDP:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            OptimalPartitioner(window=1)

    def test_beats_or_matches_fixed_plans(self):
        rng = np.random.default_rng(5)
        values = np.cumsum(rng.integers(0, 30, 1500)).astype(np.int64)
        reg = LinearRegressor()
        optimal = OptimalPartitioner(window=1500).partition(values, reg)
        opt_cost = plan_cost_bits(values, optimal, reg, exact=False)
        for size in (16, 64, 256):
            fixed = FixedLengthPartitioner(size).partition(values, reg)
            assert opt_cost <= plan_cost_bits(values, fixed, reg,
                                              exact=False)


class TestHardnessAdvisor:
    def test_linear_data_is_easy_everywhere(self):
        values = (13 * np.arange(20_000)).astype(np.int64)
        assert local_hardness(values) < 0.1
        assert global_hardness(values) < 0.1

    def test_noisy_data_is_locally_hard(self):
        rng = np.random.default_rng(6)
        values = np.sort(rng.integers(0, 1 << 40, 20_000)).astype(np.int64)
        assert local_hardness(values) > 0.4

    def test_piecewise_data_is_globally_hard(self):
        pieces = [s * np.arange(2000) for s in (1, 500, 3, 900, 7, 1200)]
        values = np.concatenate(
            [p + i * 10 ** 7 for i, p in enumerate(pieces)]).astype(np.int64)
        assert global_hardness(values) > 0.4

    def test_advice_recommends_variable_for_local_easy_global_hard(self):
        pieces = [s * np.arange(2000) for s in (1, 500, 3, 900)]
        values = np.concatenate(
            [p + i * 10 ** 7 for i, p in enumerate(pieces)]).astype(np.int64)
        report = advise_partitioning(values)
        assert report.recommend_variable
        assert "globally-hard" in report.quadrant

    def test_empty_inputs(self):
        empty = np.array([], dtype=np.int64)
        assert local_hardness(empty) == 0.0
        assert global_hardness(empty) == 0.0
