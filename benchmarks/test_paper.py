"""Contract tests of the paper runner (collected by the tier-1 run).

The registry, the experiment modules, ``EXPECTED`` and README's scoreboard
are four statements of one table; these keep them equal, and drive the
cheapest experiment through ``paper.main`` both ways (verdicts as
expected: 0; a violated claim or a flipped ``EXPECTED`` row: 1).
"""

import glob
import os

import bench_fig09_hardness
import bench_fig10_micro
import paper
from repro.bench import Measurement

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
