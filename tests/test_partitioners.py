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


def _order_regressors() -> list:
    """Every registered regressor with a ``fast_delta_order``, plus
    Delta's cost adapter."""
    from repro.baselines.delta import DeltaCostAdapter
    from repro.core.regressors import available_regressors

    regs = [get_regressor(name) for name in available_regressors()]
    return [reg for reg in regs if reg.fast_delta_order is not None] + \
        [DeltaCostAdapter()]


#: full-range int64, 40-bit jumps among small steps, and small noise
wide_values = st.one_of(
    st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1,
             max_size=40),
    st.lists(st.sampled_from([-3, 0, 1, 2, 5, 1 << 40, -(1 << 40)]),
             min_size=1, max_size=40).map(
                 lambda steps: np.cumsum(steps).tolist()),
    st.lists(st.integers(-50, 50), min_size=1, max_size=40),
).map(lambda v: np.array(v, dtype=np.int64))


class TestFastWidthTracker:
    """Split–merge's and the DP's one ``Δ̃`` tracker reports, at every
    step, what ``fast_delta_bits`` reports on the slice."""

    @pytest.mark.parametrize("regressor", _order_regressors(),
                             ids=lambda reg: reg.name)
    @given(values=wide_values, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_width_equals_fast_delta_bits(self, regressor, values,
                                                data):
        from repro.core.partitioners.variable import (
            _SpanTracker,
            order_diffs,
        )

        n = len(values)
        start = data.draw(st.integers(0, n - 1))
        end = data.draw(st.integers(start + 1, n))
        seg = _SpanTracker(values, order_diffs(values, regressor), start,
                           end, regressor)
        assert seg.width == regressor.fast_delta_bits(values[start:end])
        while seg.start > 0 or seg.end < n:
            choices = [d for d, ok in ((-1, seg.start > 0), (+1, seg.end < n))
                       if ok]
            direction = data.draw(st.sampled_from(choices))
            lo = seg.start - (direction < 0)
            hi = seg.end + (direction > 0)
            want = regressor.fast_delta_bits(values[lo:hi])
            assert seg.width_if_grown(direction) == want
            seg.grow(direction)
            assert (seg.start, seg.end) == (lo, hi)
            assert seg.width == want


class TestOptimalOnFullRange:
    @pytest.mark.parametrize("regressor", ["constant", "linear"])
    def test_plan_is_the_fast_width_optimum_without_warnings(self,
                                                             regressor):
        """On full-range int64 differences overflow; the DP still prices
        every segment at ``fast_delta_bits`` and so finds the plan that
        minimises ``plan_cost_bits(exact=False)``."""
        import warnings

        from repro.core.partitioners import header_bits

        reg = get_regressor(regressor)
        # two runs that swing between the ends of int64 (a span near
        # 2**64, in values and in differences) around 20 small values
        i = np.arange(20)
        swing = np.where(i % 2 == 0, -(i // 2), (1 << 63) - 1 - i // 2)
        small = np.random.default_rng(60).integers(-50, 50, 20)
        values = np.concatenate([swing, small, swing]).astype(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = OptimalPartitioner(window=60).partition(values, reg)
        validate_bounds(plan, len(values))
        # brute force: the best plan of every prefix, every last segment
        # priced on its slice
        n = len(values)
        best = [0] + [None] * n
        for end in range(1, n + 1):
            best[end] = min(
                best[start] + header_bits(reg) + (end - start)
                * reg.fast_delta_bits(values[start:end])
                for start in range(end))
        assert plan_cost_bits(values, plan, reg, exact=False) == best[n]


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


def _digest_inputs() -> dict:
    """A handful of ``benchmarks/codec_digests.py``'s inputs, each cut to
    its first 512 values."""
    import importlib.util
    from pathlib import Path

    from repro.datasets import sensor_fixture

    path = Path(__file__).resolve().parents[1] / "benchmarks" / \
        "codec_digests.py"
    spec = importlib.util.spec_from_file_location("codec_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    data = module.inputs(sensor_fixture)
    return {name: data[name][:512] for name in PLAN_INPUTS}


PLAN_INPUTS = ("step", "scramble", "ragged", "jumps", "hashes", "near_edge",
               "sensor1.ts", "sensor1.reading")


def _plan_regressor(name: str):
    from repro.baselines.delta import DeltaCostAdapter

    return DeltaCostAdapter() if name == "delta-cost" \
        else get_regressor(name)


def _plan_cases() -> list[str]:
    """``partitioner/regressor/input`` for every pinned plan.  The DP skips
    ``hashes``: on full-range differences its width arithmetic overflows."""
    cases = []
    for name in PLAN_INPUTS:
        regs = ("constant", "linear", "poly2", "delta-cost")
        # split-merge's exact poly2 merge test dominates the run time
        fits = regs if name in ("step", "jumps", "hashes",
                                "sensor1.reading") else \
            ("constant", "linear", "delta-cost")
        for tau in ("0.05", "0.1"):
            cases += [f"split-merge({tau})/{reg}/{name}" for reg in fits]
        cases += [f"search/{reg}/{name}" for reg in regs]
        cases.append(f"la-vector/linear/{name}")
        if name != "hashes":
            cases += [f"optimal/{reg}/{name}" for reg in ("constant",
                                                          "linear")]
    cases += [f"optimal/poly2/{name}" for name in ("step", "sensor1.ts")]
    return cases


def _plan_bounds(case: str, inputs: dict) -> list:
    kind, reg_name, name = case.split("/")
    values, reg = inputs[name], _plan_regressor(reg_name)
    if kind == "search":
        return fixed_bounds(len(values), search_partition_size(values, reg))
    if kind.startswith("split-merge"):
        partitioner = SplitMergePartitioner(tau=float(kind[12:-1]))
    elif kind == "la-vector":
        partitioner = LaVectorPartitioner()
    else:
        partitioner = OptimalPartitioner(
            window=64 if reg_name == "poly2" else 256)
    return partitioner.partition(values, reg)


def _bounds_digest(bounds) -> str:
    import hashlib
    import json

    return hashlib.sha256(json.dumps(
        [[int(a), int(b)] for a, b in bounds]).encode()).hexdigest()[:16]


#: ``_bounds_digest`` of every ``_plan_cases()`` plan
PINNED_PLANS = {
    "split-merge(0.05)/constant/step": "40a6d407642e60ad",
    "split-merge(0.05)/linear/step": "79f605a773c7986c",
    "split-merge(0.05)/poly2/step": "79f605a773c7986c",
    "split-merge(0.05)/delta-cost/step": "79f605a773c7986c",
    "split-merge(0.1)/constant/step": "a887aed2b483fa7a",
    "split-merge(0.1)/linear/step": "79f605a773c7986c",
    "split-merge(0.1)/poly2/step": "79f605a773c7986c",
    "split-merge(0.1)/delta-cost/step": "79f605a773c7986c",
    "search/constant/step": "88275567fab03b85",
    "search/linear/step": "29eb167fa6e6d736",
    "search/poly2/step": "3efbb5aa91ff6993",
    "search/delta-cost/step": "4f1f4dff7553fe2d",
    "la-vector/linear/step": "79f605a773c7986c",
    "optimal/constant/step": "2402f821a720b505",
    "optimal/linear/step": "79f605a773c7986c",
    "split-merge(0.05)/constant/scramble": "2991032c38a0cb77",
    "split-merge(0.05)/linear/scramble": "2991032c38a0cb77",
    "split-merge(0.05)/delta-cost/scramble": "2991032c38a0cb77",
    "split-merge(0.1)/constant/scramble": "2991032c38a0cb77",
    "split-merge(0.1)/linear/scramble": "2991032c38a0cb77",
    "split-merge(0.1)/delta-cost/scramble": "2991032c38a0cb77",
    "search/constant/scramble": "2991032c38a0cb77",
    "search/linear/scramble": "8e62f0882e03b95a",
    "search/poly2/scramble": "2991032c38a0cb77",
    "search/delta-cost/scramble": "2991032c38a0cb77",
    "la-vector/linear/scramble": "89fc13516dfc839a",
    "optimal/constant/scramble": "0f3725f0a97f75d4",
    "optimal/linear/scramble": "0f3725f0a97f75d4",
    "split-merge(0.05)/constant/ragged": "35988a3574a7b0fe",
    "split-merge(0.05)/linear/ragged": "2991032c38a0cb77",
    "split-merge(0.05)/delta-cost/ragged": "2991032c38a0cb77",
    "split-merge(0.1)/constant/ragged": "35988a3574a7b0fe",
    "split-merge(0.1)/linear/ragged": "2991032c38a0cb77",
    "split-merge(0.1)/delta-cost/ragged": "2991032c38a0cb77",
    "search/constant/ragged": "5ba6042f8f62b474",
    "search/linear/ragged": "8e62f0882e03b95a",
    "search/poly2/ragged": "2991032c38a0cb77",
    "search/delta-cost/ragged": "2991032c38a0cb77",
    "la-vector/linear/ragged": "2991032c38a0cb77",
    "optimal/constant/ragged": "55bef87998220001",
    "optimal/linear/ragged": "0f3725f0a97f75d4",
    "split-merge(0.05)/constant/jumps": "f863a742d0a6c196",
    "split-merge(0.05)/linear/jumps": "09d1b838d65681db",
    "split-merge(0.05)/poly2/jumps": "542e0a23631335c5",
    "split-merge(0.05)/delta-cost/jumps": "09d6c65b0cffbfc4",
    "split-merge(0.1)/constant/jumps": "c5d263d9f9f395d6",
    "split-merge(0.1)/linear/jumps": "8be2167520d59978",
    "split-merge(0.1)/poly2/jumps": "53e7c2bdaf4fc108",
    "split-merge(0.1)/delta-cost/jumps": "09d6c65b0cffbfc4",
    "search/constant/jumps": "76839bbf27de00ba",
    "search/linear/jumps": "76839bbf27de00ba",
    "search/poly2/jumps": "e02de3c4ec5c95c4",
    "search/delta-cost/jumps": "76839bbf27de00ba",
    "la-vector/linear/jumps": "c558c90dac78eacb",
    "optimal/constant/jumps": "38256effd081b115",
    "optimal/linear/jumps": "c558c90dac78eacb",
    "split-merge(0.05)/constant/hashes": "2991032c38a0cb77",
    "split-merge(0.05)/linear/hashes": "2991032c38a0cb77",
    "split-merge(0.05)/poly2/hashes": "2991032c38a0cb77",
    "split-merge(0.05)/delta-cost/hashes": "83bb98e3d73e1e25",
    "split-merge(0.1)/constant/hashes": "2991032c38a0cb77",
    "split-merge(0.1)/linear/hashes": "2991032c38a0cb77",
    "split-merge(0.1)/poly2/hashes": "2991032c38a0cb77",
    "split-merge(0.1)/delta-cost/hashes": "83bb98e3d73e1e25",
    "search/constant/hashes": "2991032c38a0cb77",
    "search/linear/hashes": "8e62f0882e03b95a",
    "search/poly2/hashes": "2991032c38a0cb77",
    "search/delta-cost/hashes": "569870b2a5af33d8",
    "la-vector/linear/hashes": "1e02c312dee46827",
    "split-merge(0.05)/constant/near_edge": "a7c30368c0af577e",
    "split-merge(0.05)/linear/near_edge": "2991032c38a0cb77",
    "split-merge(0.05)/delta-cost/near_edge": "2991032c38a0cb77",
    "split-merge(0.1)/constant/near_edge": "a7c30368c0af577e",
    "split-merge(0.1)/linear/near_edge": "2991032c38a0cb77",
    "split-merge(0.1)/delta-cost/near_edge": "2991032c38a0cb77",
    "search/constant/near_edge": "aa0c2e4e6ff3c235",
    "search/linear/near_edge": "8e62f0882e03b95a",
    "search/poly2/near_edge": "2991032c38a0cb77",
    "search/delta-cost/near_edge": "2991032c38a0cb77",
    "la-vector/linear/near_edge": "9dcfb96191b1e2d6",
    "optimal/constant/near_edge": "971b52f0cacef7e4",
    "optimal/linear/near_edge": "0f3725f0a97f75d4",
    "split-merge(0.05)/constant/sensor1.ts": "774fe512e7b3b515",
    "split-merge(0.05)/linear/sensor1.ts": "5844169cc3cc8a61",
    "split-merge(0.05)/delta-cost/sensor1.ts": "2991032c38a0cb77",
    "split-merge(0.1)/constant/sensor1.ts": "2c46b986f6a0ef05",
    "split-merge(0.1)/linear/sensor1.ts": "fb44ec873e7f5183",
    "split-merge(0.1)/delta-cost/sensor1.ts": "2991032c38a0cb77",
    "search/constant/sensor1.ts": "53010f09391a1240",
    "search/linear/sensor1.ts": "8e62f0882e03b95a",
    "search/poly2/sensor1.ts": "2991032c38a0cb77",
    "search/delta-cost/sensor1.ts": "2991032c38a0cb77",
    "la-vector/linear/sensor1.ts": "40f10635b56068a8",
    "optimal/constant/sensor1.ts": "7fe7adc710efe77f",
    "optimal/linear/sensor1.ts": "0f3725f0a97f75d4",
    "split-merge(0.05)/constant/sensor1.reading": "e584eb0fd3b36dbb",
    "split-merge(0.05)/linear/sensor1.reading": "fe03ddd1b78e538a",
    "split-merge(0.05)/poly2/sensor1.reading": "a5f4e5d9d771bbc0",
    "split-merge(0.05)/delta-cost/sensor1.reading": "2991032c38a0cb77",
    "split-merge(0.1)/constant/sensor1.reading": "23f53a98388d6e54",
    "split-merge(0.1)/linear/sensor1.reading": "af5b406a22c2f810",
    "split-merge(0.1)/poly2/sensor1.reading": "b4e1ed1cde06c176",
    "split-merge(0.1)/delta-cost/sensor1.reading": "2991032c38a0cb77",
    "search/constant/sensor1.reading": "2991032c38a0cb77",
    "search/linear/sensor1.reading": "8e62f0882e03b95a",
    "search/poly2/sensor1.reading": "2991032c38a0cb77",
    "search/delta-cost/sensor1.reading": "2991032c38a0cb77",
    "la-vector/linear/sensor1.reading": "509c26ab1dd85e72",
    "optimal/constant/sensor1.reading": "88387a545c6391fd",
    "optimal/linear/sensor1.reading": "0f3725f0a97f75d4",
    "optimal/poly2/step": "299d5617735ba466",
    "optimal/poly2/sensor1.ts": "5ba6042f8f62b474",
}


class TestPinnedPlans:
    """The bounds of every cost-driven plan on a handful of
    ``benchmarks/codec_digests.py``'s inputs, pinned by sha256: the DP,
    la-vector, split-merge under four cost families and the fixed-size
    search.  Re-pricing a segment must not move a plan."""

    @pytest.fixture(scope="class")
    def inputs(self):
        return _digest_inputs()

    def test_every_case_is_pinned(self):
        assert sorted(_plan_cases()) == sorted(PINNED_PLANS)

    @pytest.mark.parametrize("case", _plan_cases())
    def test_plan_is_pinned(self, case, inputs):
        assert _bounds_digest(_plan_bounds(case, inputs)) == \
            PINNED_PLANS[case]
