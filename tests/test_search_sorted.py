"""Tests for CompressedArray.search_sorted (lower-bound on sorted columns)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codecs

sorted_arrays = st.lists(st.integers(-(1 << 45), 1 << 45), min_size=1,
                         max_size=300).map(
                             lambda v: np.sort(np.array(v, dtype=np.int64)))


@pytest.mark.parametrize("partitioner", [16, "variable"])
class TestSearchSorted:
    @given(values=sorted_arrays, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_searchsorted(self, partitioner, values, data):
        arr = codecs.get("leco", partitioner=partitioner).encode(values)
        probe = data.draw(st.integers(int(values[0]) - 5,
                                      int(values[-1]) + 5))
        expected = int(np.searchsorted(values, probe, side="left"))
        assert arr.search_sorted(probe) == expected

    def test_every_existing_value_found(self, partitioner):
        rng = np.random.default_rng(0)
        values = np.sort(rng.integers(0, 1 << 30, 2000)).astype(np.int64)
        arr = codecs.get("leco", partitioner=partitioner).encode(values)
        for pos in range(0, 2000, 97):
            found = arr.search_sorted(int(values[pos]))
            assert values[found] == values[pos]

    def test_below_and_above_range(self, partitioner):
        values = (10 + 3 * np.arange(500)).astype(np.int64)
        arr = codecs.get("leco", partitioner=partitioner).encode(values)
        assert arr.search_sorted(-100) == 0
        assert arr.search_sorted(10 ** 9) == 500


class TestSearchSortedEdge:
    def test_empty(self):
        arr = codecs.get("leco", partitioner=8).encode(
            np.array([], dtype=np.int64))
        assert arr.search_sorted(5) == 0

    def test_duplicates_return_first(self):
        values = np.array([1, 7, 7, 7, 9], dtype=np.int64)
        arr = codecs.get("leco", partitioner=2).encode(values)
        assert arr.search_sorted(7) == 1

    def test_constant_regressor_partitions(self):
        values = np.sort(np.repeat(np.arange(50), 10)).astype(np.int64)
        arr = codecs.get("for", partitioner=16).encode(values)
        for probe in (0, 13, 49, 50):
            assert arr.search_sorted(probe) == int(
                np.searchsorted(values, probe))
