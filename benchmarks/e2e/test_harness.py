"""Tests of the benchmark harness itself (collected by the tier-1 run).

Pure unit tests of the arithmetic every verdict rests on, plus one
``--smoke`` run each of ``proc_select`` and ``ingest_churn`` and one
interrupted run, which assert the hygiene rules: no ``repro.serve``
process and no temp directory survives any exit path.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid

import pytest

import e2e_compare
import e2e_stats as st
from e2e_catalog import (END_TO_END, PER_LAYER, RUN_SECONDS,
                         SLICE_SECONDS, SMOKE_SECONDS, WORKLOADS,
                         benchmark_json)
from repro.obs import parse_text

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


# -------------------------------------------------------------- arithmetic
@pytest.mark.parametrize("n, want", [
    (1000, 99), (999, 95), (200, 95), (199, 90), (100, 90), (99, 75),
    (40, 75), (39, 50), (1, 50)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert st.tail_percentile(n) == want


def test_percentile_interpolates():
    assert st.percentile([4, 1, 3, 2], 50) == 2.5
    assert st.percentile([10], 99) == 10
    assert st.percentile(range(101), 75) == 75


def test_quiet_slice_is_second_best_and_survives_interference():
    assert st.quiet_slice([5, 3, 9, 4], "lower") == 4
    assert st.quiet_slice([5, 3, 9, 4], "higher") == 5
    assert st.quiet_slice([7], "lower") == 7
    calm = [7.5, 7.6, 7.4, 7.5, 7.6, 7.5]
    disturbed = [7.5, 11.0, 7.4, 11.2, 10.9, 11.1]  # four of six slowed
    assert st.quiet_slice(disturbed, "lower") == \
        st.quiet_slice(calm, "lower") == 7.5


def test_slice_values_cut_at_marks():
    marks = [(0.0, 1.0), (4.0, 3.0), (8.0, 4.0)]
    ops = {"fg": [(1.0, 0.010, True), (3.0, 0.030, True),
                  (4.0, 0.020, True), (6.0, 0.050, True)],
           "bg": [(2.0, 1.0, True), (7.0, 1.0, True), (8.0, 1.0, True)]}
    got = st.slice_values(marks, ops, "fg", "bg")
    assert got["latency_p50_ms"] == [pytest.approx(20.0),
                                     pytest.approx(50.0)]
    assert got["throughput_ops_s"] == [0.25, 0.5]
    # 2 s of CPU over 3 fg + 1 bg ops, then 1 s over 1 fg + 2 bg
    assert got["cpu_ms_per_op"] == [pytest.approx(500.0),
                                    pytest.approx(1000 / 3)]
    with pytest.raises(ValueError):
        st.slice_values([(8.0, 0.0), (9.0, 0.0)], ops, "fg", "bg")
    # a fast refusal or a wrong answer is no reply: it may neither
    # raise throughput nor lower the median
    ops["bg"].insert(1, (2.5, 0.001, False))
    ops["fg"].insert(0, (0.5, 0.001, False))
    assert st.slice_values(marks, ops, "fg", "bg") == got


def test_at_reference_speed_scales_times_down_and_rates_up():
    slices = {"latency_p50_ms": [60.0, 90.0], "cpu_ms_per_op": [90.0, 150.0],
              "throughput_ops_s": [16.0, 10.0], "ops": [64, 40]}
    got = st.at_reference_speed(slices, [1.0, 1.5])
    assert got["latency_p50_ms"] == [60.0, 60.0]
    assert got["cpu_ms_per_op"] == [90.0, 100.0]
    assert got["throughput_ops_s"] == [16.0, 15.0]
    assert got["ops"] == [64, 40] and slices["latency_p50_ms"][1] == 90.0


def test_speed_factor_is_the_mean_of_trimmed_means_over_references():
    assert st.trimmed_mean([5, 1, 2, 3, 4, 100, 3, 3, 3, 3]) == \
        pytest.approx(26 / 8)         # 1 and 100 dropped
    assert st.trimmed_mean([2, 4]) == 3
    passes = [(1.0e-3, 2.2e-3)] * 9 + [(9.0e-3, 2.2e-3)]  # one inflated
    assert st.speed_factor(passes, (1.0e-3, 2.0e-3)) == \
        pytest.approx((1.0 + 1.1) / 2)


def test_self_times_sum_to_the_root():
    spans = [
        ("root", None, 0.0, 10.0),
        ("a", "root", 1.0, 4.0),
        ("b", "root", 3.0, 7.0),     # overlaps a on [3, 4]
        ("a1", "a", 1.0, 2.0),
        ("late", "root", 9.5, 12.0),  # pokes outside its parent
    ]
    own = st.self_times(spans)
    assert own["a1"] == pytest.approx(1.0)
    assert own["a"] == pytest.approx(1.0 + 0.5)    # [2,3] + half of [3,4]
    assert own["b"] == pytest.approx(0.5 + 3.0)
    assert own["late"] == pytest.approx(0.5)       # clipped at 10
    assert own["root"] == pytest.approx(10 - 6 - 0.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_times_many_parallel_granules():
    # two lanes of back-to-back granules under one hop: still exact
    spans = [(0, None, 0.0, 1.0), (1, 0, 0.1, 0.9)]
    for i in range(200):
        lane = i % 2
        start = 0.1 + (i // 2) * 0.008 + lane * 0.003
        spans.append((2 + i, 1, start, start + 0.007))
    own = st.self_times(spans)
    assert sum(own.values()) == pytest.approx(1.0)
    assert own[0] == pytest.approx(0.2)


def _scrape(requests: int, seconds: float, busy: int = 0) -> dict:
    return parse_text(
        "# TYPE repro_serve_request_seconds histogram\n"
        f"repro_serve_request_seconds_sum {seconds}\n"
        f"repro_serve_request_seconds_count {requests}\n"
        "# TYPE repro_serve_requests_total counter\n"
        f'repro_serve_requests_total{{op="query",status="ok"}} '
        f"{requests}\n"
        f'repro_serve_requests_total{{op="query",status="busy"}} '
        f"{busy}\n")


def test_scrape_diff_removes_the_scrapes_own_request():
    before0 = _scrape(10, 1.000)
    before = _scrape(11, 1.002)       # + the first scrape: 2 ms
    after = _scrape(62, 1.504)        # + the second scrape + 50 queries
    fam = "repro_serve_request_seconds"
    own = st.scrape_delta(before0, before, fam, fam + "_sum")
    n, total = st.request_seconds_delta(before, after, 1, own)
    assert n == 50
    assert total == pytest.approx(0.500)
    assert st.scrape_delta(before, _scrape(62, 1.5, busy=3),
                           "repro_serve_requests_total",
                           status="busy") == 3


def test_verdicts():
    a = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [v * 0.8 for v in a]
    assert st.verdict(a, faster, "lower", 0.10)["verdict"] == "improved"
    assert st.verdict(a, faster, "higher", 0.10)["verdict"] == "regressed"
    # a real but sub-bound shift, and a shift won in too few pairs
    assert st.verdict(a, [v * 0.95 for v in a], "lower",
                      0.10)["verdict"] == "unchanged"
    mixed = [80, 81, 79, 120, 119, 80, 81, 79, 80, 121]
    assert st.verdict(a, mixed, "lower", 0.10)["verdict"] == "unchanged"
    # A's own inter-quartile distance exceeds the bound: cannot tell
    noisy = [100, 130, 80, 125, 75, 100, 128, 78, 120, 82]
    v = st.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.10)
    assert v["verdict"] == "unresolved"
    assert v["ratio"] == pytest.approx(0.5) and v["base"] == v["a"]["median"]
    # a per-layer metric has no bound: A's quartiles are its only noise
    # band, so it is never unresolved and a small clear shift counts
    assert st.verdict(noisy, [v * 2 for v in noisy], "lower",
                      None)["verdict"] == "regressed"
    assert st.verdict(a, [v * 0.95 for v in a], "lower",
                      None)["verdict"] == "improved"
    assert st.verdict(noisy, [v * 0.9 for v in noisy], "lower",
                      None)["verdict"] == "unchanged"


def _record(workload, value, failed=0, smoke=False,
            seconds=RUN_SECONDS, metric="latency_p50_ms") -> str:
    return json.dumps({
        "workload": workload, "smoke": smoke, "seconds": seconds,
        "attempted": 100, "failed": failed,
        "metrics": {metric: {"value": value, "unit": "ms"}}})


def test_compare_files(tmp_path):
    a, b, c, s = (tmp_path / n for n in "abcs")
    a.write_text("\n".join(_record("w", 100 + i % 3) for i in range(10)))
    b.write_text("\n".join(_record("w", 60 + i % 3) for i in range(10)))
    c.write_text("\n".join(_record("w", 100 + i % 3, failed=i == 0)
                           for i in range(10)))
    s.write_text(_record("w", 1, smoke=True))
    rows, passed = e2e_compare.compare(e2e_compare.load(str(a)),
                                       e2e_compare.load(str(b)))
    assert passed and rows[0][2]["verdict"] == "improved"
    rows, passed = e2e_compare.compare(e2e_compare.load(str(b)),
                                       e2e_compare.load(str(a)))
    assert not passed and rows[0][2]["verdict"] == "regressed"
    rows, passed = e2e_compare.compare(e2e_compare.load(str(a)),
                                       e2e_compare.load(str(c)))
    assert not passed and "failure rate rose" in rows[-1][2]["verdict"]
    assert e2e_compare.main([str(a), str(s)]) == 2  # smoke refused
    assert e2e_compare.main([str(a), str(b)]) == 0


def test_compare_refuses_what_is_not_comparable(tmp_path):
    a, short, fewer, other, layer_a, layer_b = (
        tmp_path / n for n in ("a", "short", "fewer", "other", "la", "lb"))
    a.write_text("\n".join(
        [_record("w", 100 + i % 3) for i in range(10)]
        + [_record("x", 100 + i % 3) for i in range(10)]))
    short.write_text(_record("w", 100, seconds=RUN_SECONDS - 4))
    with pytest.raises(ValueError, match="window"):
        e2e_compare.load(str(short))
    # B lost a workload (its runs crashed): that is not a pass
    fewer.write_text("\n".join(_record("w", 100 + i % 3)
                               for i in range(10)))
    rows, passed = e2e_compare.compare(e2e_compare.load(str(a)),
                                       e2e_compare.load(str(fewer)))
    assert not passed
    assert ("x", "(all metrics)") in [row[:2] for row in rows]
    # ... or a metric
    other.write_text("\n".join(
        [_record("w", 100 + i % 3, metric="cpu_ms_per_op")
         for i in range(10)]
        + [_record("x", 100 + i % 3) for i in range(10)]))
    rows, passed = e2e_compare.compare(e2e_compare.load(str(a)),
                                       e2e_compare.load(str(other)))
    assert not passed and "missing" in rows[0][2]["verdict"]
    assert "missing" in e2e_compare.render(rows)
    # a per-layer row can say regressed, and does not fail the gate
    layer_a.write_text("\n".join(
        _record("w", 100 + 7 * (i % 3), metric="serve.request_ms")
        for i in range(10)))
    layer_b.write_text("\n".join(
        _record("w", 200 + 7 * (i % 3), metric="serve.request_ms")
        for i in range(10)))
    rows, passed = e2e_compare.compare(e2e_compare.load(str(layer_a)),
                                       e2e_compare.load(str(layer_b)))
    assert passed and rows[0][2]["verdict"] == "regressed"


def test_benchmark_json_equals_the_catalogue():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        assert json.load(fh) == benchmark_json()
    assert RUN_SECONDS % SLICE_SECONDS == 0
    assert RUN_SECONDS // SLICE_SECONDS >= 4
    names = [n for n, *_ in END_TO_END] + [n for n, *_ in PER_LAYER]
    assert len(set(names)) == len(names)
    assert ("setup_s", "s", "lower") in [m[:3] for m in END_TO_END]
    assert all(0 < m[3] <= 0.25 for m in END_TO_END)
    assert 2 <= len(WORKLOADS) <= 8


# ------------------------------------------------------------------- smoke
def _tagged_processes(tag: str) -> list[int]:
    """Pids whose environment carries this test run's tag: the runs'
    servers and lane workers inherit it, however they were orphaned."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if tag.encode() in fh.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two complete smoke runs and one interrupted with SIGINT, side
    by side (they are the slow part of this file)."""
    tmp = tmp_path_factory.mktemp("e2e")
    tag = f"E2E_TEST_TAG_{uuid.uuid4().hex}"
    env = dict(os.environ, E2E_TEST_TAG=tag)
    env["PYTHONPATH"] = os.path.join(REPO, "src")

    def start(workload: str, label: str):
        return subprocess.Popen(
            [sys.executable, RUN, "--workload", workload, "--seed", "7",
             "--smoke",
             "--workdir", str(tmp / f"work-{label}"),
             "--out", str(tmp / f"{label}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)

    runs = {"proc_select": start("proc_select", "proc_select"),
            "ingest_churn": start("ingest_churn", "ingest_churn")}
    victim = start("proc_select", "victim")
    time.sleep(2.5)  # its server is up and serving by now
    victim.send_signal(signal.SIGINT)
    out = {}
    try:
        victim_out, _ = victim.communicate(timeout=60)
        for name, proc in runs.items():
            stdout, stderr = proc.communicate(timeout=60)
            out[name] = (proc.returncode, stdout, stderr)
    finally:
        for proc in (victim, *runs.values()):
            if proc.poll() is None:
                proc.kill()
    return {"tmp": tmp, "tag": tag, "runs": out,
            "victim": (victim.returncode, victim_out)}


@pytest.mark.parametrize("workload", ["proc_select", "ingest_churn"])
def test_smoke_run_reports_by_the_contract(smoke, workload):
    code, stdout, stderr = smoke["runs"][workload]
    assert code == 0, stderr
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == \
        {n: unit for n, unit, _b, _bound in END_TO_END}
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    record = json.loads(
        (smoke["tmp"] / f"{workload}.json").read_text())
    assert record["smoke"] is True and record["seed"] == 7
    assert record["seconds"] == SMOKE_SECONDS
    assert {"commit", "timestamp", "nproc", "python", "numpy",
            "server_flags", "slices", "slices_raw", "speed",
            "setups"} <= set(record)
    with pytest.raises(ValueError, match="smoke"):
        e2e_compare.load(str(smoke["tmp"] / f"{workload}.json"))


def test_every_exit_path_leaves_nothing_behind(smoke):
    code, stdout = smoke["victim"]
    assert code != 0 and not stdout.strip()  # interrupted: no result
    assert _tagged_processes(smoke["tag"]) == []
    leftovers = [p.name for p in smoke["tmp"].iterdir()
                 if p.name.startswith("work-")]
    assert leftovers == []
    assert not (smoke["tmp"] / "victim.json").exists()
