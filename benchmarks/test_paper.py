"""Contract tests of the paper runner (collected by the tier-1 run).

The registry, the experiment modules, ``EXPECTED`` and README's scoreboard
are four statements of one table; these keep them equal, and drive the
cheapest experiment through ``paper.main`` both ways (verdicts as
expected: 0; a violated claim or a flipped ``EXPECTED`` row: 1).  The
checks the §5 host-system figures rely on (their queries answer what numpy
answers; Fig. 21 inflates exactly the chunks a query read; Fig. 14's
dictionaries) are held here too, beside the modules they import.
"""

import glob
import os

import bench_fig09_hardness
import bench_fig10_micro
import bench_fig14_hashprobe
import bench_fig21_zstd_time
import numpy as np
import paper
import pytest
from repro.bench import Measurement, cold_table
from repro.datasets import load
from repro.datasets.synthetic import zipf_cluster_bitmap
from repro.exec import Bitmap, Plan, col, execute
from repro.store import StoreSource

HERE = os.path.dirname(os.path.abspath(__file__))


def test_every_script_is_a_registered_experiment_with_claims():
    scripts = sorted(
        os.path.basename(path)[len("bench_"):-len(".py")]
        for pattern in ("fig", "tab", "ablation")
        for path in glob.glob(os.path.join(HERE, f"bench_{pattern}*.py")))
    assert sorted(paper.EXPECTED) == scripts
    for name, verdicts in paper.EXPECTED.items():
        module = paper.experiment(name)
        assert isinstance(module.TITLE, str) and module.TITLE
        assert callable(module.CAPTION) or isinstance(module.CAPTION, str)
        assert all(isinstance(header, str)
                   and (callable(fmt) or isinstance(fmt, str))
                   for header, fmt in module.COLUMNS)
        assert callable(module.rows)
        assert len(module.CLAIMS) == len(verdicts) >= 1
        assert all(isinstance(claim, str) and callable(holds)
                   for claim, holds in module.CLAIMS)
        assert all(why is None or "ROADMAP item" in why
                   or why.startswith(("substrate", "scale"))
                   for why in verdicts)


def test_readme_scoreboard_equals_expected():
    with open(os.path.join(HERE, "..", "README.md")) as fh:
        table = [line.rstrip("\n") for line in fh
                 if line.startswith(("| `fig", "| `tab", "| `ablation"))]
    assert table == [
        f"| `{name}` | {claim} | "
        + ("reproduced |  |" if why is None else f"not | {why} |")
        for name, verdicts in paper.EXPECTED.items()
        for (claim, _), why in zip(paper.experiment(name).CLAIMS, verdicts)]


def test_cheap_experiment_end_to_end(capsys):
    assert paper.main(["fig09_hardness"]) == 0
    out = capsys.readouterr().out
    assert "Figure 9b: dataset hardness" in out
    assert "locally-easy/globally-hard     var" in out
    assert "fig09_hardness · the twelve datasets cover all four" in out
    assert "2 reproduced, 0 not, 0 differing from EXPECTED" in out


def test_violated_claim_or_flipped_expectation_exits_1(monkeypatch, capsys):
    one_quadrant = [("linear", 0.0, 0.0, "locally-easy/globally-easy", "fix")]
    with monkeypatch.context() as patch:
        patch.setattr(bench_fig09_hardness, "rows", lambda: one_quadrant)
        assert paper.main(["fig09_hardness"]) == 1
    out = capsys.readouterr().out
    assert "quadrants · not — UNEXPECTED, EXPECTED says reproduced" in out
    assert "1 reproduced, 1 not, 1 differing from EXPECTED" in out

    monkeypatch.setitem(paper.EXPECTED, "fig09_hardness",
                        ("scale: pretend", None))
    assert paper.main(["fig09_hardness"]) == 1
    assert "reproduced — UNEXPECTED, EXPECTED says not" in \
        capsys.readouterr().out


def test_lineup_matrix_is_measured_once_per_process(monkeypatch, capsys):
    calls = []

    def fake_measure(codec, dataset, **_):
        calls.append((codec.name, dataset.name))
        return Measurement(codec.name, dataset.name, 0.5, 0.0, 1.0, 1.0, 1.0,
                           len(dataset.values))

    monkeypatch.setattr(bench_fig10_micro, "measure_codec", fake_measure)
    bench_fig10_micro.lineup_matrix.cache_clear()
    try:
        paper.main(["fig02_pareto", "fig10_micro", "tab01_compress_tps"])
    finally:
        bench_fig10_micro.lineup_matrix.cache_clear()
    capsys.readouterr()
    # 12 datasets x (5 line-up + rANS) + Elias-Fano on the 10 sorted ones
    assert len(calls) == len(set(calls)) == 12 * 6 + 10


@pytest.mark.parametrize("encoding", ["dict", "plain", "delta", "for", "leco"])
def test_host_figure_queries_equal_numpy(encoding):
    """Figs. 18, 19 and 21's queries on a cold table: a filter-group-by
    AVG whose groups straddle chunk boundaries and a bitmap SUM both
    equal numpy, and Fig. 21 inflates exactly the chunks the SUM read."""
    rng = np.random.default_rng(11)
    n = 5000
    ts = np.cumsum(rng.integers(1, 9, n)).astype(np.int64)
    ids = (np.arange(n) // 70 % 40).astype(np.int64)  # runs cross chunks
    val = rng.integers(0, 1 << 30, n).astype(np.int64)
    lo, hi = int(ts[700]), int(ts[3900])
    window = (ts >= lo) & (ts < hi)
    bitmap = zipf_cluster_bitmap(n, 0.01, seed=2)
    avg = (Plan.scan(["id", "val"]).where(col("ts").between(lo, hi))
           .aggregate({"avg": ("avg", "val")}, group_by="id"))
    total = (Plan.scan(["val"]).where(Bitmap(bitmap))
             .aggregate({"total": ("sum", "val")}))
    with cold_table({"ts": ts, "id": ids, "val": val}, encoding,
                    chunk_rows=1000) as table:
        groups = execute(avg, StoreSource(table)).groups
        straddling = {int(key) for key in np.unique(ids[window])
                      if len(np.unique(np.flatnonzero(
                          window & (ids == key)) // 1000)) > 1}
        assert straddling
        assert {key: row["avg"] for key, row in groups.items()} \
            == pytest.approx({int(key): float(val[window & (ids == key)]
                                               .mean())
                              for key in np.unique(ids[window])}, rel=1e-12)
    with cold_table({"val": val}, encoding, chunk_rows=1000) as table:
        res, blobs, read, _ = bench_fig21_zstd_time.inflated_run(table,
                                                                 total)
    assert res.groups[None]["total"] == int(val[bitmap].sum())
    assert len(blobs) == 5
    assert 0 < len(read) == res.stats.chunks_scanned < len(blobs)


def test_hash_probe_leco_dictionary_is_smallest():
    probe = load("medicare", n=30_000).values
    sizes = {method: bench_fig14_hashprobe.run_hash_probe(
        probe, method, memory_budget_bytes=1 << 30,
        hash_table_bytes=1 << 20).dictionary_bytes
        for method in ("raw", "for", "leco")}
    assert sizes["leco"] < sizes["for"] < sizes["raw"]


def test_hash_probe_tight_budget_penalises_big_dictionaries():
    probe = load("medicare", n=30_000).values
    # leave ~4KB for the dictionary: the raw dict (~24KB) spills, the LeCo
    # dict (~2KB) stays resident
    budget = 1 << 20
    raw, leco = (bench_fig14_hashprobe.run_hash_probe(
        probe, method, memory_budget_bytes=budget,
        hash_table_bytes=budget - 4096) for method in ("raw", "leco"))
    assert raw.miss_fraction > 0.5
    assert leco.miss_fraction == 0.0
    assert leco.throughput_gbps > raw.throughput_gbps
