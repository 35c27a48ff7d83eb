"""Tests for the Encoder/Decoder and storage format (paper §3.3)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import codecs
from repro.bitio import BitPackedArray
from repro.core.encoding import (
    CompressedArray,
    LecoEncoder,
    Partition,
    accumulate_predictions,
    encode_partition,
    encode_rows,
)
from repro.core.encoding import encoder
from repro.core.regressors import (
    ConstantRegressor,
    LinearRegressor,
    floor_to_int64,
    get_regressor,
)

int_arrays = st.lists(st.integers(-(1 << 50), 1 << 50), min_size=1,
                      max_size=400).map(
                          lambda v: np.array(v, dtype=np.int64))

# 2-6 values mixing near-zero steps with 40-bit jumps: the variable
# partitioner cuts these into a handful of one- or two-row partitions,
# which is where the partition-start index is probed far past its keys
jumpy_arrays = st.lists(
    st.one_of(st.integers(-1, 1),
              st.integers(1 << 40, 1 << 45).map(lambda v: v - 1)),
    min_size=2, max_size=6).map(lambda v: np.array(v, dtype=np.int64))


def roundtrip_checks(values: np.ndarray, arr: CompressedArray) -> None:
    """The full lossless contract every encoded array must satisfy."""
    decoded = arr.decode_all()
    assert np.array_equal(decoded, values)
    assert np.array_equal(arr.decode_all_serial(), values)
    clone = CompressedArray.from_payload(arr.payload_bytes())
    assert np.array_equal(clone.decode_all(), values)
    # random access must agree with decode_all: everywhere on a short
    # array, at a sample of positions on a long one
    if len(values) <= 40:
        positions = np.arange(len(values))
    else:
        positions = np.random.default_rng(0).integers(0, len(values), 40)
    for pos in positions:
        assert arr.get(int(pos)) == values[pos]
        assert clone.get(int(pos)) == values[pos]
    assert np.array_equal(arr.gather(positions), values[positions])


class TestRoundTrip:
    @given(int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_fixed_partitions_lossless(self, values):
        arr = codecs.get("leco", partitioner=32).encode(values)
        roundtrip_checks(values, arr)

    @given(st.one_of(int_arrays, jumpy_arrays))
    @example(np.array([21990232555519, -1, 0, 0, 0, 0], dtype=np.int64))
    @settings(max_examples=25, deadline=None)
    def test_variable_partitions_lossless(self, values):
        arr = codecs.get("leco", partitioner="variable").encode(values)
        roundtrip_checks(values, arr)

    @pytest.mark.parametrize("regressor", ["constant", "linear", "poly2",
                                           "poly3", "logarithm"])
    def test_all_regressors_lossless(self, regressor):
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.integers(0, 100, 5000)).astype(np.int64)
        arr = codecs.get("leco", regressor=regressor, partitioner=256).encode(values)
        roundtrip_checks(values, arr)

    def test_extreme_values(self):
        values = np.array([np.iinfo(np.int64).min // 2, -1, 0, 1,
                           np.iinfo(np.int64).max // 2], dtype=np.int64)
        arr = codecs.get("leco", partitioner=8).encode(values)
        roundtrip_checks(values, arr)

    def test_single_value(self):
        values = np.array([-42], dtype=np.int64)
        arr = codecs.get("leco", partitioner="variable").encode(values)
        roundtrip_checks(values, arr)

    def test_constant_sequence_is_tiny(self):
        values = np.full(10_000, 123456, dtype=np.int64)
        arr = codecs.get("leco", partitioner="fixed").encode(values)
        roundtrip_checks(values, arr)
        assert arr.compressed_size_bytes() < values.nbytes / 100

    def test_float_input_rejected(self):
        with pytest.raises(TypeError):
            codecs.get("leco").encode(np.array([1.5, 2.5]))

    def test_unknown_partitioner_spec(self):
        with pytest.raises(ValueError):
            LecoEncoder(partitioner="bogus")


class TestRandomAccess:
    def test_get_matches_decode_everywhere(self):
        rng = np.random.default_rng(2)
        values = np.cumsum(rng.integers(-5, 50, 3000)).astype(np.int64)
        for part in (64, "variable"):
            arr = codecs.get("leco", partitioner=part).encode(values)
            decoded = arr.decode_all()
            for pos in range(0, 3000, 37):
                assert arr.get(pos) == decoded[pos]

    def test_negative_index_wraps(self):
        values = np.arange(100, dtype=np.int64)
        arr = codecs.get("leco", partitioner=16).encode(values)
        assert arr.get(-1) == 99

    def test_out_of_range_raises(self):
        arr = codecs.get("leco", partitioner=16).encode(
            np.arange(10, dtype=np.int64))
        with pytest.raises(IndexError):
            arr.get(10)

    @given(int_arrays, st.data())
    @settings(max_examples=25, deadline=None)
    def test_decode_range_matches_slice(self, values, data):
        arr = codecs.get("leco", partitioner=32).encode(values)
        lo = data.draw(st.integers(0, len(values)))
        hi = data.draw(st.integers(lo, len(values)))
        assert np.array_equal(arr.decode_range(lo, hi), values[lo:hi])

    def test_decode_range_validation(self):
        arr = codecs.get("leco", partitioner=16).encode(
            np.arange(10, dtype=np.int64))
        with pytest.raises(IndexError):
            arr.decode_range(5, 11)


class TestTake:
    @given(int_arrays, st.data())
    @settings(max_examples=25, deadline=None)
    def test_take_matches_fancy_indexing(self, values, data):
        arr = codecs.get("leco", partitioner=32).encode(values)
        k = data.draw(st.integers(0, min(len(values), 50)))
        positions = data.draw(
            st.lists(st.integers(0, len(values) - 1), min_size=k,
                     max_size=k))
        positions = np.array(positions, dtype=np.int64)
        assert np.array_equal(arr.gather(positions), values[positions])

    def test_take_empty(self):
        arr = codecs.get("leco", partitioner=16).encode(
            np.arange(10, dtype=np.int64))
        assert arr.gather(np.array([], dtype=np.int64)).size == 0

    def test_take_out_of_range(self):
        arr = codecs.get("leco", partitioner=16).encode(
            np.arange(10, dtype=np.int64))
        with pytest.raises(IndexError):
            arr.gather(np.array([11]))

    def test_take_on_variable_partitions(self):
        rng = np.random.default_rng(3)
        values = np.cumsum(rng.integers(0, 9, 2000)).astype(np.int64)
        arr = codecs.get("leco", partitioner="variable").encode(values)
        positions = rng.integers(0, 2000, 300)
        assert np.array_equal(arr.gather(positions), values[positions])


class TestSerialDecodeOptimisation:
    def test_corrections_make_serial_exact(self):
        """The §3.3 accumulation must be bit-identical after corrections."""
        rng = np.random.default_rng(4)
        # slopes with non-terminating binary expansions maximise drift
        values = np.cumsum(rng.integers(0, 7, 50_000)).astype(np.int64)
        arr = codecs.get("leco", partitioner=10_000).encode(values)
        assert np.array_equal(arr.decode_all_serial(), values)

    def test_accumulate_predictions_is_sequential(self):
        acc = accumulate_predictions(1.0, 0.1, 5)
        expected = [1.0]
        for _ in range(4):
            expected.append(expected[-1] + 0.1)
        assert np.allclose(acc, expected, rtol=0, atol=0)

    def test_corrections_absent_when_disabled(self):
        values = np.arange(1000, dtype=np.int64) * 3
        arr = codecs.get("leco", partitioner=100,
                          build_corrections=False).encode(values)
        assert all(not p.corrections for p in arr.partitions)


class TestPartitionValueBounds:
    @given(int_arrays)
    @settings(max_examples=30, deadline=None)
    def test_bounds_are_sound(self, values):
        """Every true value must lie within its partition's claimed bounds."""
        arr = codecs.get("leco", partitioner=32).encode(values)
        bounds = arr.partition_value_bounds()
        for j, part in enumerate(arr.partitions):
            seg = values[part.start: part.end]
            assert bounds[j, 0] <= seg.min()
            assert bounds[j, 1] >= seg.max()

    def test_bounds_are_reasonably_tight_on_linear_data(self):
        values = (11 * np.arange(10_000)).astype(np.int64)
        arr = codecs.get("leco", partitioner=1000).encode(values)
        bounds = arr.partition_value_bounds()
        for j, part in enumerate(arr.partitions):
            seg = values[part.start: part.end]
            span = int(seg.max() - seg.min()) + 1
            claimed = int(bounds[j, 1] - bounds[j, 0]) + 1
            assert claimed <= 2 * span + 16


def reference_value_bounds(arr: CompressedArray) -> np.ndarray:
    """``partition_value_bounds`` one partition at a time, as it stood
    before the bands were computed in one pass."""
    info = np.iinfo(np.int64)
    bounds = np.empty((len(arr.partitions), 2), dtype=np.int64)
    for j, part in enumerate(arr.partitions):
        band = (info.min, info.max)
        if part.length == 0:
            band = (0, -1)
        elif part.regressor_name in ("constant", "linear"):
            pred = part.model.predict_int(np.array([0, part.length - 1]))
            lo = int(pred.min()) + part.bias
            hi = int(pred.max()) + part.bias + (1 << part.deltas.width) - 1
            if info.min <= lo and hi <= info.max:
                band = (lo, hi)
        bounds[j] = band
    return bounds


class TestPartitionValueBoundsOnePass:
    @pytest.mark.parametrize("regressor", ["linear", "constant", "auto",
                                           "poly2"])
    @given(values=int_arrays)
    @settings(max_examples=15, deadline=None)
    def test_equal_the_per_partition_loop(self, regressor, values):
        arr = codecs.get("leco", regressor=regressor,
                         partitioner=32).encode(values)
        assert np.array_equal(arr.partition_value_bounds(),
                              reference_value_bounds(arr))

    def test_no_cheap_bound_falls_back_to_the_whole_range(self):
        """Bands leaving int64, partitions spanning more than 2**63, an
        empty partition: exactly the per-partition answers."""
        info = np.iinfo(np.int64)
        rng = np.random.default_rng(4)
        unbounded = 0
        for values in (info.min + 3 * np.arange(2048, dtype=np.int64),
                       info.max - 3 * np.arange(2048, dtype=np.int64),
                       rng.integers(info.min, info.max, 2048)):
            arr = codecs.get("leco", partitioner=512).encode(values)
            got = arr.partition_value_bounds()
            assert np.array_equal(got, reference_value_bounds(arr))
            unbounded += int((got == (info.min, info.max)).all(axis=1).sum())
        assert unbounded
        empty = Partition(0, 0, "linear", [0.0, 0.0], 0,
                          BitPackedArray.from_values(np.empty(0, np.uint64)))
        arr = CompressedArray(0, [empty], None, "linear")
        assert arr.partition_value_bounds().tolist() == [[0, -1]]

    def test_computed_once_and_read_only(self):
        arr = codecs.get("leco", partitioner=100).encode(np.arange(1000))
        bounds = arr.partition_value_bounds()
        assert arr.partition_value_bounds() is bounds
        with pytest.raises(ValueError):
            bounds[0, 0] = 0


def reference_encode_partition(values, start, regressor,
                               build_corrections=True) -> Partition:
    """``encode_partition`` one row at a time, as it stood before
    ``encode_rows``: fit, guards, constant then wide fallback, bias,
    pack, corrections."""
    def safe_residuals(model):
        pred = model.predict_float(np.arange(len(values)))
        if not np.all(np.isfinite(pred)):
            return None
        if np.abs(values.astype(np.float64) - pred).max(initial=0.0) \
                > 2.0 ** 62:
            return None
        return values - floor_to_int64(pred)

    model, name = regressor.fit(values), regressor.name
    residuals = safe_residuals(model)
    if residuals is None:
        model, name = ConstantRegressor().fit(values), "constant"
        residuals = safe_residuals(model)
    if residuals is None:
        return encoder._encode_wide(values, start)
    bias = int(residuals.min()) if residuals.size else 0
    packed = BitPackedArray.from_values((residuals - bias).astype(np.uint64))
    corrections, serial_ok = None, False
    if build_corrections and name == "linear":
        corrections = []
        if len(values):
            theta0, theta1 = (float(p) for p in model.params)
            direct = np.floor(theta0 + theta1 * np.arange(
                len(values), dtype=np.float64))
            accum = np.floor(accumulate_predictions(theta0, theta1,
                                                    len(values)))
            corrections = [(int(i), int(direct[i] - accum[i]))
                           for i in np.flatnonzero(direct != accum)]
        serial_ok = len(corrections) <= max(len(values) // 16, 4)
        if not serial_ok:
            corrections = None
    return Partition(start, len(values), name, model.params, bias, packed,
                     corrections, serial_ok)


def assert_exact_cover(seq: CompressedArray, n: int) -> None:
    """Every position in exactly one partition, none twice, sizes sum
    to ``n``."""
    covered = np.zeros(n, dtype=np.int64)
    for part in seq.partitions:
        covered[part.start: part.end] += 1
    assert (covered == 1).all()
    assert sum(p.length for p in seq.partitions) == n


def partition_image(part: Partition) -> tuple:
    return (part.start, part.length, part.regressor_name,
            part.to_bytes(mixed=True, reg_ids={part.regressor_name: 0}))


# chunks of a batch: empty, shorter than a partition, ragged tails, with
# hash-like values that take the constant or the wide fallback
chunk_values = st.one_of(
    st.integers(-(1 << 40), 1 << 40),
    st.integers(-(1 << 63), (1 << 63) - 1))
chunk_lists = st.lists(
    st.lists(chunk_values, min_size=0, max_size=260).map(
        lambda v: np.array(v, dtype=np.int64)),
    min_size=0, max_size=5)


class TestEncodeMany:
    """``encode_many(chunks)[i]`` is byte for byte ``encode(chunks[i])``,
    and every row of a batch the partition it would be alone."""

    @pytest.mark.parametrize("regressor", ["linear", "constant"])
    @given(chunks=chunk_lists, size=st.sampled_from([1, 2, 3, 7, 64, 100]))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_one_chunk_at_a_time(self, regressor, chunks, size):
        codec = codecs.get("leco", regressor=regressor, partitioner=size)
        batch = codec.encode_many(chunks)
        assert len(batch) == len(chunks)
        for seq, values in zip(batch, chunks):
            assert seq.to_bytes() == codec.encode(values).to_bytes()
            assert np.array_equal(seq.decode_all(), values)
            assert [p.start for p in seq.partitions] == \
                list(range(0, len(values), size))
            assert_exact_cover(seq, len(values))

    @pytest.mark.parametrize("plan", ["fixed", "variable", "auto"])
    @given(chunks=chunk_lists)
    @settings(max_examples=10, deadline=None)
    def test_searched_and_variable_plans(self, plan, chunks):
        codec = codecs.get("leco", partitioner=plan)
        for seq, values in zip(codec.encode_many(chunks), chunks):
            assert seq.to_bytes() == codec.encode(values).to_bytes()
            assert_exact_cover(seq, len(values))

    @pytest.mark.parametrize("regressor", ["linear", "constant", "poly2"])
    @given(chunks=chunk_lists, size=st.sampled_from([1, 2, 3, 8, 50]))
    @settings(max_examples=25, deadline=None)
    def test_rows_equal_the_per_partition_encode(self, regressor, chunks,
                                                 size):
        reg = get_regressor(regressor)
        rows = [values[a: a + size] for values in chunks
                for a in range(0, len(values) - size + 1, size)]
        if not rows:
            return
        starts = list(range(len(rows)))
        got = encode_rows(np.stack(rows), starts, reg)
        for part, row, start in zip(got, rows, starts):
            assert partition_image(part) == partition_image(
                reference_encode_partition(row, start, reg))
            assert partition_image(part) == partition_image(
                encode_partition(row, start, reg))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_guard_rows_fall_back_inside_a_batch(self):
        """One matrix holding a well-fitted row, a row whose model blows
        up (the constant model holds it) and a row no model holds."""
        from repro.core.regressors import LinearModel, Regressor

        class Blowup(LinearRegressor):
            fit_many = Regressor.fit_many

            def fit(self, values):
                if values[0] < 0:
                    return LinearModel(0.0, np.inf)
                return super().fit(values)

        info = np.iinfo(np.int64)
        rows = np.array([[10, 20, 30, 41],
                         [-5, 7, 100, 3],
                         [info.min, info.max, info.min + 5, info.max - 5],
                         [1, 2, 3, 5]])
        starts = [0, 4, 8, 12]
        parts = encode_rows(rows, starts, Blowup())
        assert [(p.regressor_name, len(p.params)) for p in parts] == \
            [("linear", 2), ("constant", 1), ("constant", 1), ("linear", 2)]
        for part, row, start in zip(parts, rows, starts):
            assert partition_image(part) == partition_image(
                reference_encode_partition(row, start, Blowup()))
            assert part.decode_slice(0, 4).tolist() == row.tolist()

    def test_zero_length_rows(self):
        part = encode_partition(np.empty(0, dtype=np.int64), 5,
                                LinearRegressor())
        assert partition_image(part) == partition_image(
            reference_encode_partition(np.empty(0, dtype=np.int64), 5,
                                       LinearRegressor()))

    def test_long_input_is_encoded_in_bounded_blocks(self):
        """A block never stacks more than ``_BLOCK_VALUES`` values, and
        the blocks' partitions land where one pass would put them."""
        values = np.cumsum(np.arange(10_000) % 11).astype(np.int64)
        codec = codecs.get("leco", partitioner=64)
        whole = codec.encode(values).to_bytes()
        seen = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "_BLOCK_VALUES", 640)
            rows_of = encoder.encode_rows
            patch.setattr(encoder, "encode_rows", lambda rows, *a: (
                seen.append(rows.shape), rows_of(rows, *a))[1])
            assert codec.encode(values).to_bytes() == whole
        assert max(r * length for r, length in seen) <= 640
        assert len(seen) > 10

    def test_default_codec_loops_encode(self):
        chunks = [np.arange(50), np.array([3, 3, 3]), np.empty(0, np.int64)]
        for name in ("dict", "plain", "delta", "rle"):
            codec = codecs.get(name)
            assert [s.to_bytes() for s in codec.encode_many(chunks)] == \
                [codec.encode(v).to_bytes() for v in chunks]


class TestSerialisation:
    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            CompressedArray.from_payload(b"XXXX" + bytes(20))

    def test_bad_version_rejected(self):
        arr = codecs.get("leco", partitioner=16).encode(
            np.arange(10, dtype=np.int64))
        blob = bytearray(arr.payload_bytes())
        blob[4] = 99
        with pytest.raises(ValueError):
            CompressedArray.from_payload(bytes(blob))

    def test_serialised_size_is_stable(self):
        values = np.arange(1000, dtype=np.int64)
        arr = codecs.get("leco", partitioner=100).encode(values)
        assert arr.compressed_size_bytes() == len(arr.payload_bytes())
        # the envelope adds a header and nothing else
        assert arr.to_bytes() == codecs.envelope.pack(
            "leco", arr.payload_bytes())
        assert arr.compressed_size_bytes() == arr.compressed_size_bytes()

    def test_variable_partition_serialisation(self):
        rng = np.random.default_rng(5)
        values = np.cumsum(rng.integers(0, 20, 3000)).astype(np.int64)
        arr = codecs.get("leco", partitioner="variable").encode(values)
        clone = CompressedArray.from_payload(arr.payload_bytes())
        assert clone.fixed_size is None
        assert len(clone.partitions) == len(arr.partitions)
        assert np.array_equal(clone.decode_all(), values)

    def test_mixed_regressor_serialisation(self):
        values = np.concatenate([
            (np.arange(500) ** 2),
            7 * np.arange(500) + 10 ** 6,
        ]).astype(np.int64)
        parts = [
            encode_partition(values[:500], 0, get_regressor("poly2")),
            encode_partition(values[500:], 500, get_regressor("linear")),
        ]
        arr = CompressedArray(1000, parts, None, "linear")
        clone = CompressedArray.from_payload(arr.payload_bytes())
        assert {p.regressor_name for p in clone.partitions} == {
            "poly2", "linear"}
        assert np.array_equal(clone.decode_all(), values)


    def test_lone_non_default_regressor_serialisation(self):
        """Every partition on one family that is not the encoder's default
        (``regressor="auto"`` picking poly2 throughout, or every partition
        on the constant fallback): the image used to name only the default
        and could not be read back."""
        x = np.arange(900)
        values = (0.4 * x ** 2).astype(np.int64) + x % 3
        arr = codecs.get("leco", regressor="auto",
                         partitioner=900).encode(values)
        assert {p.regressor_name for p in arr.partitions} == {"poly2"}
        clone = codecs.from_bytes(arr.to_bytes())
        assert np.array_equal(clone.decode_all(), values)
        assert clone.payload_bytes() == arr.payload_bytes()


class TestModelSizeAccounting:
    def test_model_share_counts_parameters(self):
        values = np.arange(1000, dtype=np.int64)
        arr = codecs.get("leco", partitioner=100).encode(values)
        assert arr.model_size_bytes() == len(arr.partitions) * 16

    def test_compression_ratio_helper(self):
        values = np.arange(1000, dtype=np.int64)
        arr = codecs.get("leco", partitioner=100).encode(values)
        assert arr.compression_ratio(8000) == pytest.approx(
            arr.compressed_size_bytes() / 8000)
