"""Tests for the Encoder/Decoder and storage format (paper §3.3)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import codecs
from repro.bitio import BitPackedArray, encode_uvarint
from repro.core.encoding import (
    CompressedArray,
    LecoEncoder,
    accumulate_predictions,
    encode_rows,
    partition_record,
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
        acc = accumulate_predictions(np.array([[1.0, 0.1]]), 5)[0]
        expected = [1.0]
        for _ in range(4):
            expected.append(expected[-1] + 0.1)
        assert np.allclose(acc, expected, rtol=0, atol=0)

    def test_prediction_beyond_int64_patches_as_a_float(self):
        """The line through these three values predicts below -2**63 at
        the last one, where the encoder's floor clamps; the correction
        there (-2048) patches the accumulated float, which then clamps
        the same way, instead of being added past the clamp."""
        values = np.array([5995764208214914330, -9098260849776385120,
                           -8929821734011167481], dtype=np.int64)
        arr = codecs.get("leco", partitioner=3).encode(values)
        assert arr.serial.all() and arr.corrections.tolist() == [[2, -2048]]
        assert np.array_equal(arr.decode_all_serial(), values)

    def test_corrections_absent_when_disabled(self):
        values = np.arange(1000, dtype=np.int64) * 3
        arr = codecs.get("leco", partitioner=100,
                          build_corrections=False).encode(values)
        assert len(arr.corrections) == 0 and not arr.serial.any()


class TestPartitionValueBounds:
    @given(int_arrays)
    @settings(max_examples=30, deadline=None)
    def test_bounds_are_sound(self, values):
        """Every true value must lie within its partition's claimed bounds."""
        arr = codecs.get("leco", partitioner=32).encode(values)
        bounds = arr.partition_value_bounds()
        for j, (start, length) in enumerate(zip(arr.starts, arr.lengths)):
            seg = values[start: start + length]
            assert bounds[j, 0] <= seg.min()
            assert bounds[j, 1] >= seg.max()

    def test_bounds_are_reasonably_tight_on_linear_data(self):
        values = (11 * np.arange(10_000)).astype(np.int64)
        arr = codecs.get("leco", partitioner=1000).encode(values)
        bounds = arr.partition_value_bounds()
        for j, (start, length) in enumerate(zip(arr.starts, arr.lengths)):
            seg = values[start: start + length]
            span = int(seg.max() - seg.min()) + 1
            claimed = int(bounds[j, 1] - bounds[j, 0]) + 1
            assert claimed <= 2 * span + 16


def reference_value_bounds(arr: CompressedArray) -> np.ndarray:
    """``partition_value_bounds`` one partition at a time, as it stood
    before the bands were computed in one pass."""
    info = np.iinfo(np.int64)
    bounds = np.empty((len(arr.starts), 2), dtype=np.int64)
    for j, length in enumerate(arr.lengths.tolist()):
        band = (info.min, info.max)
        name = arr.regressor_names[arr.regressor_ids[j]]
        if name in ("constant", "linear"):
            regressor = get_regressor(name)
            pred = floor_to_int64(regressor.predict_many(
                arr.params[j:j + 1, :regressor.param_count], length)
            )[0, [0, length - 1]]
            lo = int(pred.min()) + int(arr.biases[j])
            hi = int(pred.max()) + int(arr.biases[j]) \
                + (1 << int(arr.widths[j])) - 1
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
        """Bands leaving int64, partitions spanning more than 2**63:
        exactly the per-partition answers.  An empty sequence has no
        partitions to bound."""
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
        arr = codecs.get("leco").encode(np.empty(0, dtype=np.int64))
        assert arr.partition_value_bounds().shape == (0, 2)
        assert arr.model_bounds() is None

    def test_computed_once_and_read_only(self):
        arr = codecs.get("leco", partitioner=100).encode(np.arange(1000))
        bounds = arr.partition_value_bounds()
        assert arr.partition_value_bounds() is bounds
        with pytest.raises(ValueError):
            bounds[0, 0] = 0


def reference_row(values, regressor, build_corrections=True) -> tuple:
    """One partition encoded the way it was before ``encode_rows``: fit,
    guards, constant then wide fallback, bias, pack, corrections — as
    :func:`row_image` reads a row of an encoded batch."""
    def safe_residuals(regressor, params):
        pred = regressor.predict_many(params, len(values))[0]
        if not np.all(np.isfinite(pred)):
            return None
        if np.abs(values.astype(np.float64) - pred).max(initial=0.0) \
                > 2.0 ** 62:
            return None
        return values - floor_to_int64(pred)

    for regressor in (regressor, ConstantRegressor()):
        params = regressor.fit_many(values[None, :])
        residuals = safe_residuals(regressor, params)
        if residuals is not None:
            break
    if residuals is None:
        # a span beyond 2**63: ``v - floor`` as uint64 slots, bias 0
        lowest = int(values.min())
        floor = np.float64(lowest)
        if int(floor) > lowest:
            floor = np.nextafter(floor, -np.inf)
        packed = BitPackedArray.from_values(
            values.astype(np.uint64) - np.uint64(int(floor) % (1 << 64)))
        return ("constant", np.array([floor]).tobytes(), 0, packed.width,
                packed.data, None)
    bias = int(residuals.min()) if residuals.size else 0
    packed = BitPackedArray.from_values((residuals - bias).astype(np.uint64))
    corrections = None
    if build_corrections and regressor.name == "linear":
        corrections = []
        if len(values):
            theta0, theta1 = (float(p) for p in params[0])
            direct = np.floor(theta0 + theta1 * np.arange(
                len(values), dtype=np.float64))
            accum = np.floor(np.add.accumulate(
                [theta0] + [theta1] * (len(values) - 1)))
            corrections = [(int(i), int(direct[i] - accum[i]))
                           for i in np.flatnonzero(direct != accum)]
        if len(corrections) > max(len(values) // 16, 4):
            corrections = None
    return (regressor.name, params[0].tobytes(), bias, packed.width,
            packed.data, corrections)


def row_image(rows, r: int) -> tuple:
    """Row ``r`` of an encoded batch, field by field."""
    name = rows.regressors[r]
    count = get_regressor(name).param_count
    return (name, rows.params[r, :count].tobytes(), int(rows.biases[r]),
            int(rows.widths[r]), rows.packed[r], rows.corrections[r])


def assert_exact_cover(seq: CompressedArray, n: int) -> None:
    """Every position in exactly one partition, none twice, sizes sum
    to ``n``."""
    covered = np.zeros(n, dtype=np.int64)
    for start, length in zip(seq.starts, seq.lengths):
        covered[start: start + length] += 1
    assert (covered == 1).all()
    assert int(seq.lengths.sum()) == n


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
            assert seq.starts.tolist() == list(range(0, len(values), size))
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
        got = encode_rows(np.stack(rows), reg)
        for r, row in enumerate(rows):
            assert row_image(got, r) == reference_row(row, reg)
            assert partition_record(got, r) == partition_record(
                encode_rows(row[None, :], reg), 0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_guard_rows_fall_back_inside_a_batch(self):
        """One matrix holding a well-fitted row, a row whose model blows
        up (the constant model holds it) and a row no model holds."""
        class Blowup(LinearRegressor):
            def fit_many(self, rows):
                params = super().fit_many(rows)
                params[rows[:, 0] < 0] = (0.0, np.inf)
                return params

        info = np.iinfo(np.int64)
        rows = np.array([[10, 20, 30, 41],
                         [-5, 7, 100, 3],
                         [info.min, info.max, info.min + 5, info.max - 5],
                         [1, 2, 3, 5]])
        got = encode_rows(rows, Blowup())
        assert [(name, get_regressor(name).param_count)
                for name in got.regressors] == \
            [("linear", 2), ("constant", 1), ("constant", 1), ("linear", 2)]
        for r, row in enumerate(rows):
            assert row_image(got, r) == reference_row(row, Blowup())
        seq = CompressedArray.assemble(16, 4, "linear", [0, 4, 8, 12],
                                       [(got, r) for r in range(4)])
        assert seq.decode_all().tolist() == rows.ravel().tolist()

    def test_zero_length_rows(self):
        got = encode_rows(np.empty((1, 0), dtype=np.int64),
                          LinearRegressor())
        assert row_image(got, 0) == reference_row(
            np.empty(0, dtype=np.int64), LinearRegressor())

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
        assert len(clone.starts) == len(arr.starts)
        assert np.array_equal(clone.decode_all(), values)

    def test_mixed_regressor_serialisation(self):
        values = np.concatenate([
            (np.arange(500) ** 2),
            7 * np.arange(500) + 10 ** 6,
        ]).astype(np.int64)

        class Halves:
            """The selector hook: poly2 for the parabola, then linear."""

            def recommend(self, values):
                return get_regressor(
                    "poly2" if values[0] < 10 ** 6 else "linear")

        arr = codecs.get("leco", regressor="auto", selector=Halves(),
                         partitioner=500).encode(values)
        clone = CompressedArray.from_payload(arr.payload_bytes())
        assert [clone.regressor_names[i] for i in clone.regressor_ids] == [
            "poly2", "linear"]
        assert np.array_equal(clone.decode_all(), values)
        assert clone.payload_bytes() == arr.payload_bytes()


    def test_lone_non_default_regressor_serialisation(self):
        """Every partition on one family that is not the encoder's default
        (``regressor="auto"`` picking poly2 throughout, or every partition
        on the constant fallback): the image used to name only the default
        and could not be read back."""
        x = np.arange(900)
        values = (0.4 * x ** 2).astype(np.int64) + x % 3
        arr = codecs.get("leco", regressor="auto",
                         partitioner=900).encode(values)
        assert arr.regressor_names == ("poly2",)
        clone = codecs.from_bytes(arr.to_bytes())
        assert np.array_equal(clone.decode_all(), values)
        assert clone.payload_bytes() == arr.payload_bytes()


class TestReviveRejectsInconsistentImages:
    """A partition's slot count is its directory length, and the image
    ends where its last partition does: anything else is a one-line
    ``ValueError``, never a sequence whose access paths disagree."""

    def image(self) -> bytes:
        values = np.arange(3000) * 7 + np.arange(3000) % 5
        return codecs.get("leco", partitioner=1024).encode(
            values).payload_bytes()

    def test_slot_count_must_equal_the_partition_length(self):
        raw = bytearray(self.image())
        # partition 0's BitPackedArray header: a width byte, then its
        # slot count as 8 big-endian bytes
        at = raw.index((1024).to_bytes(8, "big"))
        raw[at: at + 8] = (1023).to_bytes(8, "big")
        with pytest.raises(ValueError, match="1023"):
            CompressedArray.from_payload(bytes(raw))

    def test_bytes_past_the_last_partition_are_rejected(self):
        with pytest.raises(ValueError, match="partitions end"):
            CompressedArray.from_payload(self.image() + b"\x00")

    def test_directory_must_cover_every_value_once(self):
        raw = bytearray(self.image())
        at = len(b"LECO") + 3 + len("linear")      # n, a uvarint
        assert raw[at: at + 2] == encode_uvarint(3000)
        raw[at: at + 2] = encode_uvarint(3100)      # 52 values uncovered
        with pytest.raises(ValueError, match="cover"):
            CompressedArray.from_payload(bytes(raw))

    def test_every_truncation_is_a_value_error(self):
        raw = self.image()
        for cut in (1, 2, 9, 10, 100, len(raw) // 2, len(raw) - 5):
            with pytest.raises(ValueError):
                CompressedArray.from_payload(raw[:-cut])


class TestModelSizeAccounting:
    def test_model_share_counts_parameters(self):
        values = np.arange(1000, dtype=np.int64)
        arr = codecs.get("leco", partitioner=100).encode(values)
        assert arr.model_size_bytes() == len(arr.starts) * 16

    def test_compression_ratio_helper(self):
        values = np.arange(1000, dtype=np.int64)
        arr = codecs.get("leco", partitioner=100).encode(values)
        assert arr.compression_ratio(8000) == pytest.approx(
            arr.compressed_size_bytes() / 8000)
