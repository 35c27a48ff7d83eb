"""Tests for the baseline codecs (paper §4.1)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codecs
from repro.baselines import (
    EliasFanoCodec,
    RansCodec,
    RLECodec,
    infer_value_width,
)
from repro.bench import LINEUP

int_arrays = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                      max_size=300).map(
                          lambda v: np.array(v, dtype=np.int64))
sorted_arrays = int_arrays.map(np.sort)


def check_codec(codec, values):
    enc = codec.encode(values)
    assert len(enc) == len(values)
    assert np.array_equal(enc.decode_all(), values)
    rng = np.random.default_rng(0)
    for pos in rng.integers(0, len(values), min(20, len(values))):
        assert enc.get(int(pos)) == values[pos]
    assert enc.compressed_size_bytes() > 0


class TestFOR:
    @given(int_arrays)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, values):
        check_codec(codecs.get("for", partitioner=32), values)

    def test_is_constant_special_case(self):
        """FOR frames store a horizontal-line model (paper §2)."""
        values = np.arange(1000, dtype=np.int64)
        enc = codecs.get("for", partitioner=100).encode(values)
        assert enc.regressor_names == ("constant",)

    def test_leco_never_worse_than_for(self):
        """LeCo's linear model subsumes FOR's constant (paper §4.3.1)."""
        rng = np.random.default_rng(1)
        for seed in range(3):
            values = np.cumsum(
                rng.integers(0, 100, 20_000)).astype(np.int64)
            for_size = codecs.get("for", partitioner=256).encode(
                values).compressed_size_bytes()
            leco_size = codecs.get("leco", partitioner=256).encode(
                values).compressed_size_bytes()
            assert leco_size <= for_size * 1.01


class TestDelta:
    @given(int_arrays)
    @settings(max_examples=25, deadline=None)
    def test_fix_roundtrip(self, values):
        check_codec(codecs.get("delta", partitioner=32), values)

    @given(int_arrays)
    @settings(max_examples=15, deadline=None)
    def test_var_roundtrip(self, values):
        check_codec(codecs.get("delta-var"), values)

    def test_variant_validation(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            codecs.get("delta", partitioner="nope")
        assert codecs.get("delta", partitioner="variable").name == \
            codecs.get("delta-var").name == "delta-var"

    def test_sequential_access_flag(self):
        assert codecs.get("delta").sequential_access

    def test_arithmetic_progression_is_tiny(self):
        values = (7 * np.arange(10_000)).astype(np.int64)
        enc = codecs.get("delta", partitioner=1000).encode(values)
        assert enc.compressed_size_bytes() < values.nbytes / 50

    def test_empty_input(self):
        enc = codecs.get("delta").encode(np.array([], dtype=np.int64))
        assert enc.decode_all().size == 0


class TestRLE:
    @given(int_arrays)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, values):
        check_codec(RLECodec(), values)

    def test_wins_on_repetitive_data(self):
        values = np.repeat(np.arange(10), 1000).astype(np.int64)
        enc = RLECodec().encode(values)
        assert enc.compressed_size_bytes() < values.nbytes / 100


class TestEliasFano:
    @given(sorted_arrays)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_on_sorted(self, values):
        check_codec(EliasFanoCodec(), values)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EliasFanoCodec().encode(np.array([3, 1, 2], dtype=np.int64))

    def test_quasi_succinct_size(self):
        """EF needs about (2 + log2(m/n)) bits per element (§4.1)."""
        rng = np.random.default_rng(2)
        n = 50_000
        values = np.sort(rng.integers(0, n * 1024, n)).astype(np.int64)
        enc = EliasFanoCodec().encode(values)
        bits_per_elem = enc.compressed_size_bytes() * 8 / n
        assert bits_per_elem == pytest.approx(2 + 10, rel=0.25)

    def test_handles_duplicates(self):
        values = np.array([7, 7, 7, 7], dtype=np.int64)
        check_codec(EliasFanoCodec(), values)


class TestRans:
    @given(st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=150))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip(self, raw):
        values = np.array(raw, dtype=np.int64)
        enc = RansCodec().encode(values)
        assert np.array_equal(enc.decode_all(), values)

    def test_negative_values_roundtrip(self):
        values = np.array([-5, -1, 0, 3], dtype=np.int64)
        enc = RansCodec(width=8).encode(values)
        assert np.array_equal(enc.decode_all(), values)

    def test_get_decodes_prefix(self):
        values = np.arange(100, dtype=np.int64)
        enc = RansCodec().encode(values)
        assert enc.get(57) == 57

    def test_skewed_bytes_compress(self):
        """Entropy coding shines on skewed byte distributions."""
        rng = np.random.default_rng(3)
        values = rng.choice([0, 1, 255], size=20_000,
                            p=[0.9, 0.08, 0.02]).astype(np.int64)
        enc = RansCodec(width=4).encode(values)
        assert enc.compressed_size_bytes() < 20_000 * 4 / 4

    def test_uniform_bytes_do_not_compress(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 1 << 32, 5000).astype(np.int64)
        enc = RansCodec(width=4).encode(values)
        assert enc.compressed_size_bytes() > 5000 * 4 * 0.95

    def test_width_inference(self):
        assert infer_value_width(np.array([0, 100])) == 4
        assert infer_value_width(np.array([1 << 40])) == 8
        assert infer_value_width(np.array([-1])) == 8


class TestLecoEncoder:
    @given(int_arrays)
    @settings(max_examples=20, deadline=None)
    def test_roundtrip(self, values):
        check_codec(codecs.get("leco", partitioner=32), values)

    def test_model_size_exposed(self):
        enc = codecs.get("leco", partitioner=100).encode(
            np.arange(1000, dtype=np.int64))
        assert enc.model_size_bytes() == 16 * 10

    def test_names(self):
        assert codecs.get("leco", partitioner="fixed").name == "leco-fix"
        assert codecs.get("leco", partitioner="variable").name == "leco-var"
        assert codecs.get("leco", partitioner="auto").name == "leco-auto"
        assert codecs.get("leco", partitioner=64).name == "leco-fix"
        assert codecs.get("for").name == "for"


class TestStandardLineup:
    """The paper's Fig. 10 line-up is a tuple of registry names
    (``repro.bench.LINEUP``); the codecs report the figure labels."""

    def test_lineup_contents(self):
        names = [codecs.get(n).name for n in ("rans",) + LINEUP]
        assert names == ["rans", "for", "delta-fix", "delta-var",
                         "leco-fix", "leco-var"]

    def test_lineup_without_rans(self):
        assert "rans" not in LINEUP
        assert set(LINEUP) <= set(codecs.available())


class TestDeltaFullRangeRandomAccess:
    def test_get_exact_for_huge_diffs(self):
        # adjacent differences spanning >= 2**63 force width-64 slots whose
        # int64 view is negative; random access must still be exact
        values = np.array([0, 2 ** 62, -(2 ** 62), 5, -7], dtype=np.int64)
        enc = codecs.get("delta").encode(values)
        for i, v in enumerate(values):
            assert enc.get(i) == int(v), i
        assert np.array_equal(enc.decode_all(), values)


def _old_normalize_indices(indices, n):
    """The index rule as it was written before the in-range fast path:
    wrap every negative once, then bounds-check everything."""
    indices = np.asarray(indices, dtype=np.int64)
    indices = np.where(indices < 0, indices + n, indices)
    if indices.size and ((indices < 0).any() or (indices >= n).any()):
        raise IndexError(f"gather index out of range [0, {n})")
    return indices


class TestNormalizeIndices:
    @given(n=st.integers(0, 50), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_wrap_then_check_rule(self, n, data):
        from repro.baselines.base import normalize_indices

        # the edges: negatives, n itself, -n and -n-1, empty input
        edge = st.sampled_from([0, n - 1, n, -1, -n, -n - 1])
        raw = data.draw(st.lists(st.integers(-2 * n - 2, 2 * n + 2) | edge,
                                 max_size=8))
        scalar = data.draw(st.booleans()) and len(raw) == 1
        indices = raw[0] if scalar else raw
        try:
            want = _old_normalize_indices(indices, n)
        except IndexError as err:
            with pytest.raises(IndexError, match=re.escape(str(err))):
                normalize_indices(indices, n)
        else:
            got = normalize_indices(indices, n)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)


class TestWireRevival:
    def test_sequence_class_resolves_once(self, monkeypatch):
        import importlib

        from repro.codecs import builtin

        blob = codecs.get("plain").encode(
            np.arange(5, dtype=np.int64)).payload_bytes()
        decode = builtin._wire("repro.codecs.simple", "PlainSequence")
        imports = []
        real = importlib.import_module

        def counting_import(name, *args, **kwargs):
            imports.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(builtin.importlib, "import_module",
                            counting_import)
        for _ in range(5):
            assert decode(blob).decode_all().tolist() == [0, 1, 2, 3, 4]
        assert imports == ["repro.codecs.simple"]
