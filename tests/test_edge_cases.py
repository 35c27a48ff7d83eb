"""Edge cases and adversarial inputs across the library.

These exercise the corners the main suites don't: pathological value
distributions, degenerate partition plans, format-corruption handling, and
cross-codec agreement on hostile data.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codecs, compress, decompress
from repro.core.encoding import CompressedArray
from repro.core.strings import StringCompressor


def _adversarial_arrays():
    """Hand-picked hostile integer shapes."""
    big = np.iinfo(np.int64).max // 2
    return [
        np.array([0], dtype=np.int64),
        np.array([big, -big, big, -big], dtype=np.int64),      # max swings
        np.array([0] * 1000 + [big], dtype=np.int64),          # one outlier
        np.repeat([1, -1], 500).astype(np.int64),              # oscillation
        np.arange(1000, dtype=np.int64)[::-1].copy(),          # descending
        np.zeros(1, dtype=np.int64),
        (np.arange(100, dtype=np.int64) * 0 + 7),              # constant
        np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144],
                 dtype=np.int64),                               # convex
    ]


class TestAdversarialShapes:
    @pytest.mark.parametrize("idx", range(8))
    def test_all_codecs_stay_lossless(self, idx):
        values = _adversarial_arrays()[idx]
        for codec in (codecs.get("for", partitioner=16),
                      codecs.get("leco", partitioner=16),
                      codecs.get("leco", partitioner="variable"),
                      codecs.get("delta", partitioner=16),
                      codecs.get("rle")):
            enc = codec.encode(values)
            assert np.array_equal(enc.decode_all(), values), codec.name

    @pytest.mark.parametrize("idx", range(8))
    def test_serial_decode_agrees(self, idx):
        values = _adversarial_arrays()[idx]
        arr = codecs.get("leco", partitioner=16).encode(values)
        assert np.array_equal(arr.decode_all_serial(), arr.decode_all())

    def test_full_int64_range_swings(self):
        """Residual-guard fallback: a linear fit of alternating extremes
        would mispredict by ~2^63; the encoder must fall back safely."""
        big = np.iinfo(np.int64).max // 2
        values = np.tile([big, -big], 50).astype(np.int64)
        arr = codecs.get("leco", partitioner=100).encode(values)
        assert np.array_equal(arr.decode_all(), values)

    def test_exponential_regressor_on_hostile_data_stays_lossless(self):
        """Exp models can overflow float range; the guard must catch it."""
        rng = np.random.default_rng(0)
        values = rng.integers(-(1 << 60), 1 << 60, 500).astype(np.int64)
        arr = codecs.get("leco", regressor="exponential",
                         partitioner=100).encode(values)
        assert np.array_equal(arr.decode_all(), values)


class TestFormatCorruption:
    def _arr(self):
        return codecs.get("leco", partitioner=32).encode(
            np.arange(200, dtype=np.int64))

    def test_truncated_buffer_raises(self):
        blob = self._arr().payload_bytes()
        with pytest.raises((ValueError, IndexError)):
            CompressedArray.from_payload(blob[: len(blob) // 2]).decode_all()

    def test_empty_buffer_raises(self):
        with pytest.raises((ValueError, IndexError)):
            CompressedArray.from_payload(b"")

    def test_foreign_magic_raises(self):
        with pytest.raises(ValueError):
            CompressedArray.from_payload(b"PAR1" + bytes(64))


class TestApiContracts:
    @given(st.lists(st.integers(-(1 << 55), 1 << 55), min_size=1,
                    max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_compress_decompress_identity(self, raw):
        values = np.array(raw, dtype=np.int64)
        assert np.array_equal(decompress(compress(values)), values)

    def test_compress_accepts_smaller_dtypes(self):
        for dtype in (np.int8, np.int16, np.int32, np.uint8, np.uint32):
            values = np.arange(100).astype(dtype)
            arr = compress(values)
            assert np.array_equal(decompress(arr),
                                  values.astype(np.int64))


class TestStringEdgeCases:
    def test_single_char_universe(self):
        strings = [b"a" * k for k in range(20)]
        comp = StringCompressor(partition_size=8).encode(strings)
        assert comp.decode_all() == strings

    def test_high_bytes(self):
        strings = [bytes([255, 254, k]) for k in range(50)]
        comp = StringCompressor(partition_size=16).encode(strings)
        assert comp.decode_all() == strings

    def test_partition_of_identical_strings(self):
        strings = [b"same-key"] * 100
        comp = StringCompressor(partition_size=32).encode(strings)
        assert comp.decode_all() == strings
        # identical strings collapse into prefix-only partitions
        assert all(p.deltas.width == 0 for p in comp.partitions)

    def test_mixed_length_order_preserved_through_mapping(self):
        """The §3.4 string-to-integer mapping is order-preserving: sorted
        input must yield non-decreasing minimum-padded integers.  (The
        *stored* values are clamped predictions inside each string's padding
        range, so they need not be monotone — only decodable.)"""
        strings = sorted(
            bytes(np.random.default_rng(k).integers(97, 123, k % 7 + 1)
                  .astype(np.uint8)) for k in range(64))
        comp = StringCompressor(partition_size=64).encode(strings)
        part = comp.partitions[0]
        trimmed = [s[len(part.prefix):] for s in strings]
        mapped_min = [part._map(s, pad_rank=0) for s in trimmed]
        assert mapped_min == sorted(mapped_min)


class TestEngineEdgeCases:
    """The §5.1 figures' host path (a cold store table run through the
    executor) at its degenerate shapes."""

    @staticmethod
    def _run(columns, plan, chunk_rows):
        from repro.bench import cold_table
        from repro.store import StoreSource

        with cold_table(columns, "leco", chunk_rows=chunk_rows) as table:
            return plan.execute(StoreSource(table))

    def test_single_row_table_query(self):
        from repro.exec import Plan, col

        columns = {"ts": np.array([5], dtype=np.int64),
                   "id": np.array([1], dtype=np.int64),
                   "val": np.array([10], dtype=np.int64)}
        plan = (Plan.scan(["id", "val"]).where(col("ts").between(0, 10))
                .aggregate({"avg": ("avg", "val")}, group_by="id"))
        res = self._run(columns, plan, chunk_rows=4096)
        assert {key: row["avg"] for key, row in res.groups.items()} \
            == {1: 10.0}

    def test_filter_range_spanning_everything(self):
        from repro.exec import Plan, col

        values = np.arange(1000, dtype=np.int64)
        lo, hi = np.iinfo(np.int64).min // 4, np.iinfo(np.int64).max // 4
        res = self._run({"v": values},
                        Plan.scan(["v"]).where(col("v").between(lo, hi)),
                        chunk_rows=100)
        assert np.array_equal(res.columns["v"], values)

    def test_bitmap_all_ones(self):
        from repro.exec import Bitmap, Plan

        values = np.arange(2000, dtype=np.int64)
        plan = (Plan.scan(["v"]).where(Bitmap(np.ones(2000, dtype=bool)))
                .aggregate({"total": ("sum", "v")}))
        res = self._run({"v": values}, plan, chunk_rows=500)
        assert res.groups[None]["total"] == int(values.sum())


class TestKVStoreEdgeCases:
    def test_single_record_store(self):
        from repro.kvstore import MiniLSM

        db = MiniLSM([(b"only-key", b"v")], "leco")
        assert db.seek(b"only-key") == (b"only-key", b"v")
        assert db.seek(b"zzz") is None
        assert db.seek(b"a") == (b"only-key", b"v")

    def test_duplicate_value_payloads(self):
        from repro.kvstore import MiniLSM

        records = [(f"k{i:04d}".encode(), b"\x00" * 10) for i in range(500)]
        db = MiniLSM(records, "restart", restart_interval=16,
                     table_records=200)
        for i in (0, 250, 499):
            assert db.seek(records[i][0]) == records[i]
