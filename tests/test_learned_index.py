"""Tests for the ALEX-style learned index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learned_index import LearnedSortedIndex

# 2-6 keys mixing unit steps with 40-bit jumps: a handful of partition
# starts is the common case for the decoder's index, and a huge jump is
# what throws a leaf's prediction past the end of the array
tiny_jumpy = st.lists(
    st.one_of(st.integers(0, 3), st.integers(1 << 40, 1 << 41)),
    min_size=2, max_size=6)

sorted_keys = st.one_of(
    st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=400),
    tiny_jumpy,
).map(lambda v: np.sort(np.array(v, dtype=np.int64)))


class TestLowerBound:
    @given(sorted_keys, st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_searchsorted(self, keys, data):
        index = LearnedSortedIndex(keys, leaf_size=16)
        probe = data.draw(st.one_of(
            st.integers(int(keys[0]) - 10, int(keys[-1]) + 10),
            st.integers(int(keys[-1]), int(keys[-1]) + (1 << 41))))
        expected = int(np.searchsorted(keys, probe, side="right")) - 1
        assert index.lower_bound(probe) == expected

    def test_probe_far_past_last_key(self):
        """Regression: two partition starts, probe 3 — the leaf predicts
        slot 3 of a 2-key array, and the window must be clamped."""
        index = LearnedSortedIndex(np.array([0, 1], dtype=np.int64))
        assert [index.lower_bound(p) for p in range(6)] == \
            [0, 1, 1, 1, 1, 1]

    def test_below_first_key(self):
        index = LearnedSortedIndex(np.array([10, 20], dtype=np.int64))
        assert index.lower_bound(9) == -1

    def test_empty(self):
        index = LearnedSortedIndex(np.array([], dtype=np.int64))
        assert index.lower_bound(5) == -1
        assert len(index) == 0

    def test_duplicates(self):
        keys = np.array([3, 3, 3, 7, 7], dtype=np.int64)
        index = LearnedSortedIndex(keys)
        assert index.lower_bound(3) == 2
        assert index.lower_bound(7) == 4
        assert index.lower_bound(5) == 2

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            LearnedSortedIndex(np.array([2, 1], dtype=np.int64))


class TestFind:
    @given(sorted_keys, st.data())
    @settings(max_examples=30, deadline=None)
    def test_find_existing(self, keys, data):
        index = LearnedSortedIndex(keys, leaf_size=32)
        pos = data.draw(st.integers(0, len(keys) - 1))
        found = index.find(int(keys[pos]))
        assert found is not None
        assert keys[found] == keys[pos]

    def test_find_missing(self):
        index = LearnedSortedIndex(np.array([1, 5, 9], dtype=np.int64))
        assert index.find(4) is None


class TestMetadata:
    def test_nbytes_grows_with_leaves(self):
        small = LearnedSortedIndex(np.arange(100, dtype=np.int64),
                                   leaf_size=50)
        large = LearnedSortedIndex(np.arange(10_000, dtype=np.int64),
                                   leaf_size=50)
        assert large.nbytes > small.nbytes

    def test_linear_keys_have_tiny_error(self):
        index = LearnedSortedIndex(7 * np.arange(10_000, dtype=np.int64),
                                   leaf_size=256)
        assert all(leaf.err <= 2 for leaf in index._leaves)
