"""Tests for the LSM key-value store substrate (paper §5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import (
    IOModel,
    LRUBlockCache,
    LecoIndex,
    MiniLSM,
    RestartDeltaIndex,
    make_records,
    parse_block,
    serialize_block,
    shortest_separator,
    skewed_seek_keys,
    split_into_blocks,
)


class TestBlocks:
    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=20),
                              st.binary(max_size=40)),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_serialise_roundtrip(self, pairs):
        assert parse_block(serialize_block(pairs)) == pairs

    def test_split_respects_block_size(self):
        pairs = [(f"k{i:05d}".encode(), bytes(50)) for i in range(100)]
        blocks = split_into_blocks(pairs, block_size=256)
        for block in blocks:
            used = sum(len(k) + len(v) + 4 for k, v in block)
            assert used <= 256 or len(block) == 1
        assert sum(len(b) for b in blocks) == 100

    @given(st.binary(min_size=1, max_size=10),
           st.binary(min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_separator_interval_property(self, a, b):
        lo, hi = sorted([a, b])
        if lo == hi:
            return
        sep = shortest_separator(lo, hi)
        assert lo <= sep < hi
        assert len(sep) <= max(len(lo), len(hi))


class TestIndexCodecs:
    def _keys(self, n=500):
        return [f"key{i * 7:09d}".encode() for i in range(n)]

    @pytest.mark.parametrize("ri", [1, 4, 16, 128])
    def test_restart_lookup_matches_reference(self, ri):
        keys = self._keys()
        index = RestartDeltaIndex(keys, ri)
        assert index.entry_count == len(keys)
        from bisect import bisect_left

        for probe in [keys[0], keys[1], keys[137], keys[-1],
                      b"key000000005", b"a", b"key999999999"]:
            expected = min(bisect_left(keys, probe), len(keys) - 1)
            assert index.lookup(probe) == expected, probe

    def test_leco_lookup_matches_reference(self):
        keys = self._keys()
        index = LecoIndex(keys)
        from bisect import bisect_left

        for probe in [keys[0], keys[42], keys[-1], b"key000000001", b"a"]:
            expected = min(bisect_left(keys, probe), len(keys) - 1)
            assert index.lookup(probe) == expected, probe

    def test_larger_ri_is_smaller(self):
        keys = self._keys(2000)
        sizes = [RestartDeltaIndex(keys, ri).size_bytes()
                 for ri in (1, 16, 128)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_leco_index_compresses_sequential_keys(self):
        keys = self._keys(2000)
        raw = sum(len(k) for k in keys)
        assert LecoIndex(keys).size_bytes() < raw / 2

    def test_ri_validation(self):
        with pytest.raises(ValueError):
            RestartDeltaIndex([b"a"], 0)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUBlockCache(100)
        cache.put((0, 0), "a", 40)
        cache.put((0, 1), "b", 40)
        cache.get((0, 0))          # touch: (0,1) becomes LRU
        cache.put((0, 2), "c", 40)  # evicts (0,1)
        assert cache.get((0, 1)) is None
        assert cache.get((0, 0)) == "a"
        assert cache.get((0, 2)) == "c"

    def test_hit_miss_counters(self):
        cache = LRUBlockCache(100)
        cache.put((0, 0), "a", 10)
        cache.get((0, 0))
        cache.get((9, 9))
        assert cache.hits == 1
        assert cache.misses == 1

    def test_duplicate_put_keeps_budget(self):
        cache = LRUBlockCache(100)
        cache.put((0, 0), "a", 60)
        cache.put((0, 0), "a", 60)
        assert cache.used_bytes == 60


class TestMiniLSM:
    @pytest.fixture(scope="class")
    def records(self):
        return make_records(5000, value_bytes=40)

    @pytest.mark.parametrize("codec,ri", [("restart", 1), ("restart", 16),
                                          ("leco", 1)])
    def test_seek_finds_every_existing_key(self, records, codec, ri):
        db = MiniLSM(records, codec, restart_interval=ri,
                     table_records=2000, cache_bytes=1 << 18)
        rng = np.random.default_rng(0)
        for idx in rng.integers(0, len(records), 200):
            key, value = records[int(idx)]
            hit = db.seek(key)
            assert hit == (key, value)

    def test_seek_lower_bound_semantics(self, records):
        db = MiniLSM(records, "leco", table_records=2000)
        # a probe just below an existing key lands on that key
        key = records[100][0]
        probe = key[:-1] + bytes([key[-1] - 1])
        hit = db.seek(probe)
        assert hit is not None
        assert hit[0] >= probe

    def test_seek_past_end_returns_none(self, records):
        db = MiniLSM(records, "restart", table_records=2000)
        assert db.seek(b"\xff" * 24) is None

    def test_index_sizes_ordered(self, records):
        sizes = {}
        for label, codec, ri in [("ri1", "restart", 1),
                                 ("ri128", "restart", 128),
                                 ("leco", "leco", 1)]:
            db = MiniLSM(records, codec, restart_interval=ri,
                         table_records=2000)
            sizes[label] = db.index_bytes()
        assert sizes["leco"] < sizes["ri1"]
        assert sizes["ri128"] < sizes["ri1"]

    def test_run_seeks_reports_breakdown(self, records):
        db = MiniLSM(records, "leco", table_records=2000,
                     cache_bytes=1 << 16)
        keys = skewed_seek_keys(records, 300)
        stats = db.run_seeks(keys)
        assert stats.operations == 300
        assert stats.cpu_seconds > 0
        assert stats.cache_hits + stats.cache_misses > 0
        assert stats.throughput_mops > 0

    def test_run_seeks_reports_its_own_io_delta(self, records):
        """Each call reports the reads it charged; the store's model
        keeps the running total instead of being reset per call."""
        db = MiniLSM(records, "restart", table_records=2000,
                     cache_bytes=1 << 14)
        first = db.run_seeks(skewed_seek_keys(records, 300, seed=1))
        second = db.run_seeks(skewed_seek_keys(records, 300, seed=2))
        assert first.io_seconds > 0 and second.io_seconds > 0
        assert db.io.seconds == pytest.approx(
            first.io_seconds + second.io_seconds)

    def test_bigger_cache_fewer_misses(self, records):
        keys = skewed_seek_keys(records, 500)
        small = MiniLSM(records, "restart", table_records=2000,
                        cache_bytes=1 << 14)
        big = MiniLSM(records, "restart", table_records=2000,
                      cache_bytes=1 << 22)
        misses_small = small.run_seeks(keys).cache_misses
        misses_big = big.run_seeks(keys).cache_misses
        assert misses_big <= misses_small

    def test_unknown_codec(self, records):
        with pytest.raises(ValueError):
            MiniLSM(records[:10], "nope")


class TestIOModel:
    def test_accounting(self):
        io = IOModel(bandwidth_bytes_per_s=1e6, latency_s=0.001)
        io.charge(5000)
        io.charge(5000)
        assert (io.bytes_read, io.reads) == (10_000, 2)
        assert io.seconds == pytest.approx(0.01 + 0.002)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            IOModel().charge(-1)


class TestWorkload:
    def test_records_sorted_unique(self):
        records = make_records(1000)
        keys = [k for k, _ in records]
        assert keys == sorted(keys)
        assert len(set(keys)) == 1000

    def test_key_and_value_sizes(self):
        records = make_records(10, key_bytes=20, value_bytes=100)
        for key, value in records:
            assert len(key) == 20
            assert len(value) == 100

    def test_skew_concentrates_on_hot_range(self):
        records = make_records(10_000)
        keys = skewed_seek_keys(records, 5000, hot_fraction=0.2,
                                hot_probability=0.8)
        assert len(set(keys)) < 5000


class TestBlockTruncation:
    def test_truncated_varint_raises_value_error(self):
        with pytest.raises(ValueError, match="truncated varint"):
            parse_block(b"\x80")

    def test_missing_value_length_raises_value_error(self):
        blob = serialize_block([(b"k", b"v")])
        with pytest.raises(ValueError, match="truncated varint"):
            parse_block(blob[:2])
