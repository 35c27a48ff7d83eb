"""Cross-module integration tests: the paper's pipelines end to end."""

import numpy as np
import pytest

from repro import codecs
from repro.core.partitioners import advise_partitioning
from repro.datasets import FIG10_DATASETS, load

#: the paper's Fig. 10 line-up (rANS excluded: Python-serial decode)
LINEUP = ("for", "delta", "delta-var", "leco-fix", "leco-var")


@pytest.mark.parametrize("name", FIG10_DATASETS)
def test_every_fig10_dataset_roundtrips_through_every_codec(name):
    """The microbenchmark's correctness backbone: all codecs, all datasets."""
    ds = load(name, n=4000)
    values = ds.values
    for codec in LINEUP + (("elias-fano",) if ds.sorted else ()):
        enc = codecs.get(codec).encode(values)
        assert np.array_equal(enc.decode_all(), values), codec


@pytest.mark.parametrize("name", ["linear", "ml", "movieid"])
def test_leco_fix_beats_for_on_locally_easy_data(name):
    """§4.3.1: LeCo's ratio is strictly better than FOR's on these sets."""
    values = load(name, n=20_000).values
    for_size = codecs.get("for").encode(values).compressed_size_bytes()
    leco_size = codecs.get("leco").encode(values).compressed_size_bytes()
    assert leco_size < for_size


def test_variable_partitioning_helps_where_advertised():
    """§3.2.3: var-partitioning pays off on locally-easy globally-hard data
    (movieid/house_price family), and the advisor flags those sets."""
    wins = []
    for name in ("movieid", "house_price", "ml"):
        values = load(name, n=20_000).values
        fix = codecs.get("leco", partitioner="fixed").encode(
            values).compressed_size_bytes()
        var = codecs.get("leco", partitioner="variable", tau=0.05).encode(
            values).compressed_size_bytes()
        wins.append(var < fix * 1.02)
    assert sum(wins) >= 2


def test_advisor_recommends_variable_for_movieid_like_data():
    values = load("movieid", n=20_000).values
    report = advise_partitioning(values)
    assert report.local < 0.9  # models are fittable locally


def test_delta_random_access_is_sequential_and_slow():
    """§4.3.2's mechanism: Delta must decode a prefix for a point lookup."""
    values = load("booksale", n=10_000).values
    enc = codecs.get("delta", partitioner=1000).encode(values)
    decoded = enc.decode_all()
    assert enc.get(999) == decoded[999]  # needs a 999-step prefix walk


def test_string_pipeline_on_kvstore_keys():
    """The RocksDB integration path: LeCo string codec on real key shapes."""
    from repro.core.strings import StringCompressor
    from repro.kvstore import make_records

    records = make_records(2000, value_bytes=16)
    keys = [k for k, _ in records]
    comp = StringCompressor(partition_size=64).encode(keys)
    assert comp.decode_all() == keys
    raw = sum(len(k) for k in keys)
    assert comp.compressed_size_bytes() < raw / 2


def test_engine_and_direct_codec_sizes_agree():
    """The §5.1 figures' leco chunks in the store are exactly the
    standalone codec's images under the store's partition plan."""
    from repro.bench import cold_table

    values = load("ml", n=10_000).values
    direct = codecs.get("leco", partitioner=1024, max_partition_size=1024)
    with cold_table({"v": values}, "leco", chunk_rows=5000) as table:
        for meta in table.shards[0].by_column["v"]:
            chunk = values[meta.row_start: meta.row_start + meta.n_rows]
            image = direct.encode(chunk).to_bytes()
            assert table.chunk_bytes(0, meta) == image
            assert meta.nbytes == len(image)


def test_full_microbench_protocol_smoke():
    """measure_codec over two datasets and the full line-up stays lossless
    and produces sane relative numbers."""
    from repro.bench import measure_codec

    for name in ("linear", "movieid"):
        ds = load(name, n=3000)
        ratios = {}
        for codec in LINEUP:
            m = measure_codec(codecs.get(codec), ds, n_random=30, repeats=1)
            ratios[m.codec] = m.compression_ratio
        assert ratios["leco-fix"] <= ratios["for"] * 1.01, name
