"""Unit and property tests for repro.bitio.bitpack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitio import (
    BitPackedArray,
    bits_for_unsigned,
    pack_unsigned,
    read_slot,
    unpack_unsigned,
)
from repro.bitio.bitpack import pack_unsigned_big, unpack_unsigned_big


class TestBitsFor:
    def test_zero_needs_no_bits(self):
        assert bits_for_unsigned(0) == 0

    @pytest.mark.parametrize("value,expected", [
        (1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9),
        ((1 << 63) - 1, 63), (1 << 63, 64),
    ])
    def test_known_widths(self, value, expected):
        assert bits_for_unsigned(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bits_for_unsigned(-1)


class TestPackUnpack:
    def test_empty(self):
        assert pack_unsigned(np.empty(0, dtype=np.uint64), 5) == b""
        assert unpack_unsigned(b"", 5, 0).size == 0

    def test_width_zero_roundtrip(self):
        values = np.zeros(17, dtype=np.uint64)
        assert pack_unsigned(values, 0) == b""
        out = unpack_unsigned(b"", 0, 17)
        assert np.array_equal(out, values)

    def test_width_zero_rejects_nonzero(self):
        with pytest.raises(ValueError):
            pack_unsigned(np.array([1], dtype=np.uint64), 0)

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError):
            pack_unsigned(np.array([8], dtype=np.uint64), 3)

    def test_width_out_of_range(self):
        with pytest.raises(ValueError):
            pack_unsigned(np.array([1], dtype=np.uint64), 65)

    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=200),
           st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, raw, width):
        limit = (1 << width) - 1
        values = np.array([v & limit for v in raw], dtype=np.uint64)
        packed = pack_unsigned(values, width)
        assert len(packed) == (len(values) * width + 7) // 8
        out = unpack_unsigned(packed, width, len(values))
        assert np.array_equal(out, values)

    @given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=80),
           st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_read_slot_matches_unpack(self, raw, width):
        limit = (1 << width) - 1
        values = np.array([v & limit for v in raw], dtype=np.uint64)
        packed = pack_unsigned(values, width)
        unpacked = unpack_unsigned(packed, width, len(values))
        for i in range(len(values)):
            assert read_slot(packed, width, i) == unpacked[i]


class TestBigPacking:
    def test_beyond_64_bit_roundtrip(self):
        values = [(1 << 100) + i * 31 for i in range(50)]
        width = 101
        packed = pack_unsigned_big(values, width)
        for i, v in enumerate(values):
            assert read_slot(packed, width, i) == v

    def test_big_value_too_large(self):
        with pytest.raises(ValueError):
            pack_unsigned_big([1 << 10], 10)

    @given(st.lists(st.integers(0, (1 << 90) - 1), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_big_roundtrip_property(self, values):
        packed = pack_unsigned_big(values, 90)
        for i, v in enumerate(values):
            assert read_slot(packed, 90, i) == v


class TestBitPackedArray:
    def test_from_values_auto_width(self):
        arr = BitPackedArray.from_values(np.array([0, 5, 3], dtype=np.uint64))
        assert arr.width == 3
        assert len(arr) == 3
        assert list(arr.to_numpy()) == [0, 5, 3]

    def test_getitem_negative_index(self):
        arr = BitPackedArray.from_values(np.array([9, 7], dtype=np.uint64))
        assert arr[-1] == 7

    def test_getitem_out_of_range(self):
        arr = BitPackedArray.from_values(np.array([1], dtype=np.uint64))
        with pytest.raises(IndexError):
            arr[1]

    def test_bad_slice(self):
        arr = BitPackedArray.from_values(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(IndexError):
            arr.slice(1, 3)

    def test_truncated_buffer_rejected(self):
        with pytest.raises(ValueError):
            BitPackedArray(b"\x00", width=8, count=10)

    @given(st.lists(st.integers(0, 10 ** 12), max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_serialisation_roundtrip(self, raw):
        values = np.array(raw, dtype=np.uint64)
        arr = BitPackedArray.from_values(values)
        blob = arr.to_bytes()
        out, consumed = BitPackedArray.from_bytes(blob)
        assert consumed == len(blob)
        assert np.array_equal(out.to_numpy(), values)

    @given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=120),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_slice_matches_full_decode(self, raw, data):
        values = np.array(raw, dtype=np.uint64)
        arr = BitPackedArray.from_values(values)
        lo = data.draw(st.integers(0, len(values)))
        hi = data.draw(st.integers(lo, len(values)))
        assert np.array_equal(arr.slice(lo, hi), values[lo:hi])

    def test_object_dtype_from_values(self):
        values = np.array([1 << 70, 5, 0], dtype=object)
        arr = BitPackedArray.from_values(values)
        assert arr.width == 71
        assert arr[0] == 1 << 70
        assert arr[1] == 5
        assert arr[2] == 0


class TestKernelAllWidths:
    """Exhaustive coverage of the word-parallel kernels, widths 0-64."""

    @pytest.mark.parametrize("width", list(range(0, 65)))
    def test_roundtrip_every_width(self, width):
        rng = np.random.default_rng(width)
        for n in (0, 1, 7, 8, 9, 63, 64, 65, 301):
            if width == 0:
                values = np.zeros(n, dtype=np.uint64)
            elif width == 64:
                values = (rng.integers(0, 1 << 62, n, dtype=np.uint64)
                          * np.uint64(4)
                          + rng.integers(0, 4, n, dtype=np.uint64))
            else:
                values = rng.integers(0, 1 << width, n, dtype=np.uint64)
            packed = pack_unsigned(values, width)
            assert len(packed) == (n * width + 7) // 8
            assert np.array_equal(unpack_unsigned(packed, width, n), values)

    @pytest.mark.parametrize("width", [1, 3, 5, 7, 9, 13, 31, 33, 57, 59, 63])
    def test_unaligned_slice_starts(self, width):
        """Slices starting at every bit phase 1-7 decode correctly."""
        rng = np.random.default_rng(width)
        n = 120
        values = rng.integers(0, 1 << width, n, dtype=np.uint64)
        arr = BitPackedArray.from_values(values, width)
        seen_phases = set()
        for start in range(n):
            phase = (start * width) & 7
            if phase in seen_phases and start > 16:
                continue
            seen_phases.add(phase)
            stop = min(n, start + 11)
            assert np.array_equal(arr.slice(start, stop),
                                  values[start:stop]), (width, start)

    def test_width64_max_values(self):
        values = np.array([(1 << 64) - 1, 0, (1 << 63), 1], dtype=np.uint64)
        packed = pack_unsigned(values, 64)
        assert np.array_equal(unpack_unsigned(packed, 64, 4), values)
        arr = BitPackedArray(packed, 64, 4)
        assert arr[0] == (1 << 64) - 1
        assert np.array_equal(arr.gather(np.array([0, 2, 0])),
                              np.array([(1 << 64) - 1, 1 << 63,
                                        (1 << 64) - 1], dtype=np.uint64))

    def test_empty_everything(self):
        arr = BitPackedArray.from_values(np.empty(0, dtype=np.uint64))
        assert arr.width == 0
        assert arr.slice(0, 0).size == 0
        assert arr.gather(np.empty(0, dtype=np.int64)).size == 0
        assert arr.to_numpy().size == 0


class TestGather:
    @given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=150),
           st.integers(1, 64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_gather_matches_getitem(self, raw, width, data):
        limit = (1 << width) - 1
        values = np.array([v & limit for v in raw], dtype=np.uint64)
        arr = BitPackedArray.from_values(values, width)
        k = data.draw(st.integers(0, 40))
        idx = data.draw(st.lists(
            st.integers(-len(values), len(values) - 1),
            min_size=k, max_size=k))
        idx = np.array(idx, dtype=np.int64)
        got = arr.gather(idx)
        expected = np.array([arr[int(i)] for i in idx], dtype=np.uint64)
        assert np.array_equal(got, expected)

    def test_gather_out_of_range(self):
        arr = BitPackedArray.from_values(np.array([1, 2, 3], dtype=np.uint64))
        with pytest.raises(IndexError):
            arr.gather(np.array([0, 3]))
        with pytest.raises(IndexError):
            arr.gather(np.array([-4]))

    def test_gather_width_zero(self):
        arr = BitPackedArray.from_values(np.zeros(5, dtype=np.uint64))
        assert arr.width == 0
        assert np.array_equal(arr.gather(np.array([4, 0, 2])),
                              np.zeros(3, dtype=np.uint64))

    def test_gather_beyond_64_bits(self):
        values = [(1 << 90) + 17 * i for i in range(40)]
        arr = BitPackedArray.from_values(np.array(values, dtype=object))
        idx = np.array([39, 0, 13, 13, 7])
        assert list(arr.gather(idx)) == [values[i] for i in idx]


class TestBigWidthSlice:
    """Regression coverage for the string extension's >64-bit widths."""

    def test_slice_matches_read_slot(self):
        values = [(1 << 100) + 31 * i for i in range(60)]
        arr = BitPackedArray.from_values(np.array(values, dtype=object),
                                         width=101)
        out = arr.slice(11, 47)
        assert out.dtype == object
        assert list(out) == values[11:47]
        assert list(arr.to_numpy()) == values

    @given(st.lists(st.integers(0, (1 << 77) - 1), min_size=1, max_size=50),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_big_slice_property(self, values, data):
        arr = BitPackedArray.from_values(np.array(values, dtype=object),
                                         width=77)
        lo = data.draw(st.integers(0, len(values)))
        hi = data.draw(st.integers(lo, len(values)))
        assert list(arr.slice(lo, hi)) == values[lo:hi]

    def test_unpack_big_with_bit_offset(self):
        values = [(1 << 70) - 1 - i for i in range(20)]
        packed = pack_unsigned_big(values, 71)
        for start in (0, 1, 5, 19):
            got = unpack_unsigned_big(packed, 71, 20 - start,
                                      bit_offset=start * 71)
            assert got == values[start:]


class TestFromBytesValidation:
    def test_truncated_payload_rejected(self):
        arr = BitPackedArray.from_values(
            np.arange(100, dtype=np.uint64))
        blob = arr.to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            BitPackedArray.from_bytes(blob[:-1])

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            BitPackedArray.from_bytes(b"\x07\x00\x00")

    def test_exact_buffer_accepted(self):
        arr = BitPackedArray.from_values(np.arange(100, dtype=np.uint64))
        blob = arr.to_bytes()
        out, consumed = BitPackedArray.from_bytes(blob)
        assert consumed == len(blob)
        assert np.array_equal(out.to_numpy(), np.arange(100))

    def test_offset_points_past_end(self):
        with pytest.raises(ValueError, match="truncated"):
            BitPackedArray.from_bytes(b"", offset=3)


class TestGatherTailWindows:
    """Edge slots whose covering window would run past the buffer end."""

    @pytest.mark.parametrize("width", [5, 13, 58, 61, 64])
    def test_last_slots_gather_correctly(self, width):
        rng = np.random.default_rng(width)
        for n in (1, 2, 3, 20):
            values = rng.integers(0, 1 << min(width, 62), n, dtype=np.uint64)
            arr = BitPackedArray.from_values(values, width)
            idx = np.array(list(range(n)) + [n - 1] * 5, dtype=np.int64)
            expected = np.array([arr[int(i)] for i in idx], dtype=np.uint64)
            assert np.array_equal(arr.gather(idx), expected)
