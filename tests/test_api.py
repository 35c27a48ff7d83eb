"""Tests for the top-level public API (repro.compress / decompress)."""

import numpy as np
import pytest

from repro import CompressedArray, LecoEncoder, codecs, compress, decompress
from repro.bench import Measurement, measure_codec, render_table
from repro.datasets import load


class TestCompressDecompress:
    @pytest.mark.parametrize("mode", ["fix", "var", "auto"])
    def test_roundtrip_modes(self, mode):
        rng = np.random.default_rng(0)
        values = np.cumsum(rng.integers(0, 40, 5000)).astype(np.int64)
        arr = compress(values, mode=mode)
        assert np.array_equal(decompress(arr), values)

    def test_roundtrip_from_bytes(self):
        values = np.arange(1000, dtype=np.int64) * 3
        arr = compress(values)
        # the envelope and the raw payload are both accepted
        assert arr.to_bytes()[:4] == codecs.MAGIC
        assert np.array_equal(decompress(arr.to_bytes()), values)
        assert np.array_equal(decompress(arr.payload_bytes()), values)
        assert arr.compressed_size_bytes() == len(arr.payload_bytes())

    def test_auto_regressor_mixed_partitions(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([
            (np.arange(3000) ** 2) // 3,
            10 ** 8 + 5 * np.arange(3000),
        ]).astype(np.int64) + rng.integers(0, 3, 6000)
        arr = compress(values, mode="fix", regressor="auto")
        assert np.array_equal(decompress(arr), values)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            compress(np.arange(10), mode="bogus")

    def test_random_access_surface(self):
        values = (7 * np.arange(2000)).astype(np.int64)
        arr = compress(values)
        assert arr[123] == values[123]
        assert isinstance(arr, CompressedArray)

    def test_compression_beats_raw_on_structured_data(self):
        ds = load("ml", n=20_000)
        arr = compress(ds.values, mode="fix")
        assert arr.compressed_size_bytes() < ds.values.nbytes / 2


class TestBenchHarness:
    def test_measure_codec_fields(self):
        ds = load("linear", n=5000)
        m = measure_codec(codecs.get("leco", partitioner=256), ds,
                          n_random=50, repeats=1)
        assert isinstance(m, Measurement)
        assert 0 < m.compression_ratio < 1
        assert m.random_access_ns > 0
        assert m.decode_gbps > 0
        assert m.compress_gbps > 0
        assert 0 <= m.model_ratio <= m.compression_ratio

    def test_measure_codec_detects_lossy(self):
        class Lossy(LecoEncoder):
            def encode(self, values):
                seq = super().encode(values)
                broken = np.array(seq.decode_all())
                broken[0] += 1

                class Bad:
                    def __init__(self):
                        self.calls = 0

                    def decode_all(self):
                        return broken

                    def get(self, i):
                        return int(broken[i])

                    def compressed_size_bytes(self):
                        return 1

                return Bad()

        ds = load("linear", n=500)
        with pytest.raises(AssertionError):
            measure_codec(Lossy(), ds, n_random=5, repeats=1)

    def test_render_table(self):
        out = render_table(["a", "b"], [[1, 2.5], ["x", 0.001]],
                           title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_scalar_access_mode_selectable(self):
        ds = load("linear", n=2000)
        m = measure_codec(codecs.get("leco", partitioner=256), ds,
                          n_random=20, repeats=1, access_mode="scalar")
        assert m.access_mode == "scalar"
        assert m.random_access_ns > 0
        with pytest.raises(ValueError):
            measure_codec(codecs.get("leco", partitioner=256), ds,
                          access_mode="bogus")


class TestCodecSpec:
    def test_spec_accepted_by_compress(self):
        from repro import CodecSpec

        values = np.cumsum(np.arange(3000) % 7).astype(np.int64)
        arr = compress(values, CodecSpec(mode="var", tau=0.05))
        assert np.array_equal(decompress(arr), values)

    def test_spec_validates_mode(self):
        from repro import CodecSpec

        with pytest.raises(ValueError):
            CodecSpec(mode="bogus")

    def test_injected_selector_is_used(self):
        from repro import CodecSpec

        class CountingSelector:
            def __init__(self):
                self.calls = 0

            def recommend(self, values):
                self.calls += 1
                from repro.core.regressors import get_regressor

                return get_regressor("linear")

        selector = CountingSelector()
        values = np.cumsum(np.arange(5000) % 11).astype(np.int64)
        arr = compress(values, CodecSpec(regressor="auto",
                                         selector=selector))
        assert selector.calls == len(arr.starts)
        assert np.array_equal(decompress(arr), values)

    def test_concurrent_auto_compress(self):
        """First-use selector construction must not race across threads."""
        from concurrent.futures import ThreadPoolExecutor

        import repro.codecs.spec as spec_mod
        from repro import CodecSpec

        old = spec_mod._default_selector
        spec_mod._default_selector = None  # force rebuild under contention
        try:
            values = np.cumsum(np.arange(2000) % 5).astype(np.int64)
            spec = CodecSpec(regressor="auto")
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(
                    lambda _: compress(values, spec), range(4)))
            for arr in results:
                assert np.array_equal(decompress(arr), values)
        finally:
            spec_mod._default_selector = old

    def test_decompress_accepts_envelope_blob(self):
        from repro import codecs

        values = np.cumsum(np.arange(2000) % 13).astype(np.int64)
        blob = codecs.get("delta").encode(values).to_bytes()
        assert np.array_equal(decompress(blob), values)
