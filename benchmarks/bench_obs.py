"""Observability overhead benchmark: what the metrics + tracing cost.

PR 8 wires always-on metrics through the scheduler, cache, executor,
store, and mutate layers, plus opt-in per-query tracing.  Both were
budgeted: metrics must stay within **5%** on the executor's
0.5%-selectivity store scan (the pruning-heavy path where per-granule
bookkeeping is the largest relative cost), and a full trace within
**15%**.  This bench measures all three arms best-of-N against the
``set_enabled(False)`` kill switch, on the thread tier and on the
process tier.

Writes a ``BENCH_obs.json`` trajectory with pass/fail checks::

    python benchmarks/bench_obs.py [--quick] [--json PATH] [--dir D]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time

import numpy as np

from repro.bench import headline
from repro.exec import MorselScheduler, Plan, Range
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import set_enabled
from repro.obs.trace import Trace
from repro.store import StoreSource, Table, write_table

FULL_N = 500_000
QUICK_N = 100_000
#: best-of repeats per arm (the overheads are small; noise is not —
#: sub-millisecond quick-mode runs need many rounds for a tight min)
REPEATS = 25
#: back-to-back runs per timing sample: a single quick-mode run is
#: ~1 ms, inside scheduler-jitter territory for a 5% gate, so each
#: sample times a small batch and divides
BATCH = 4
#: process-tier arms interleave and need more rounds: pipe scheduling
#: on a shared box adds variance the thread tier doesn't have
PROC_REPEATS = 35
PROC_BATCH = 3
#: regression gates (relative to the kill-switch baseline)
MAX_METRICS_OVERHEAD = 0.05
MAX_TRACE_OVERHEAD = 0.15


def _overhead_arms(directory: str, n: int) -> dict:
    """Best-of timings for the 0.5%-selectivity scan: metrics off /
    metrics on / metrics on + full trace."""
    plan = Plan.scan(["val"]).where(Range("ts", 0, n // 200))
    with Table.open(directory) as table, \
            MorselScheduler(workers=2, name="bench-obs") as sched:
        source = StoreSource(table)
        run = lambda **opts: plan.execute(source, scheduler=sched, **opts)
        run()  # warm the chunk cache: measure bookkeeping, not IO

        # interleave the arms round-robin (see _process_tier_arms):
        # sequential best-of lets machine drift bias whichever arm
        # happens to run during the quiet stretch
        t_off = t_on = t_trace = float("inf")
        res_off = res_on = res_trace = None
        for _ in range(REPEATS):
            set_enabled(False)
            try:
                start = time.perf_counter()
                for _ in range(BATCH):
                    res_off = run()
                t_off = min(t_off,
                            (time.perf_counter() - start) / BATCH)
            finally:
                set_enabled(True)
            start = time.perf_counter()
            for _ in range(BATCH):
                res_on = run()
            t_on = min(t_on, (time.perf_counter() - start) / BATCH)
            start = time.perf_counter()
            for _ in range(BATCH):
                res_trace = run(trace=Trace("bench", table=directory))
            t_trace = min(t_trace,
                          (time.perf_counter() - start) / BATCH)

    metrics_overhead = t_on / max(t_off, 1e-9) - 1.0
    trace_overhead = t_trace / max(t_off, 1e-9) - 1.0
    return {
        "selectivity": 1 / 200,
        "scan_off_ms": t_off * 1e3,
        "scan_metrics_ms": t_on * 1e3,
        "scan_traced_ms": t_trace * 1e3,
        "metrics_overhead": metrics_overhead,
        "trace_overhead": trace_overhead,
        "trace_spans": len(res_trace.trace),
        "rows": {"off": res_off.n_rows, "metrics": res_on.n_rows,
                 "traced": res_trace.n_rows},
    }


def _process_tier_arms(directory: str, n: int) -> dict:
    """The same three arms on the process tier (PR 10): telemetry now
    crosses the lane pipe as snapshot deltas, and traced runs ship
    spans back in every result envelope — both must fit the same
    budgets.  Each arm gets a *fresh* scheduler built after the kill
    switch is set, so the ``obs_enabled`` ctor spec reaches the
    workers exactly as it would in production."""
    from repro.par import ProcessScheduler

    plan = Plan.scan(["val"]).where(Range("ts", 0, n // 200))
    registry = obs_metrics.default_registry()

    def timed(fn):
        start = time.perf_counter()
        for _ in range(PROC_BATCH):
            result = fn()
        return (time.perf_counter() - start) / PROC_BATCH, result

    with Table.open(directory) as table:
        source = StoreSource(table)
        # one scheduler per arm, built under that arm's kill-switch
        # state (the ctor spec is what reaches the workers); timed runs
        # are *interleaved* round-robin so scheduler drift on a busy
        # box lands on every arm equally instead of biasing one
        set_enabled(False)
        sched_off = ProcessScheduler(workers=2, name="bench-obs-off")
        set_enabled(True)
        sched_on = ProcessScheduler(workers=2, name="bench-obs-on")
        t_off = t_on = t_trace = float("inf")
        res_off = res_on = res_trace = None
        try:
            run_off = lambda: plan.execute(source, scheduler=sched_off)
            run_on = lambda: plan.execute(source, scheduler=sched_on)
            run_traced = lambda: plan.execute(
                source, scheduler=sched_on, trace=Trace("bench"))
            # warm per-worker chunk caches and descriptor pipelines
            run_off(), run_on(), run_traced()
            for _ in range(PROC_REPEATS):
                set_enabled(False)
                try:
                    t, res_off = timed(run_off)
                finally:
                    set_enabled(True)
                t_off = min(t_off, t)
                t, res_on = timed(run_on)
                t_on = min(t_on, t)
                t, res_trace = timed(run_traced)
                t_trace = min(t_trace, t)
        finally:
            set_enabled(True)
            sched_on.close()
            sched_off.close()
        merged = [
            (inst.name, key, child.value)
            for inst in registry.instruments()
            if inst.name == "repro_par_worker_granules_total"
            for key, child in inst.remote_children().items()]

    metrics_overhead = t_on / max(t_off, 1e-9) - 1.0
    trace_overhead = t_trace / max(t_off, 1e-9) - 1.0
    worker_spans = sum(
        1 for s in res_trace.trace.spans if "proc" in s.attrs)
    return {
        "scan_off_ms": t_off * 1e3,
        "scan_metrics_ms": t_on * 1e3,
        "scan_traced_ms": t_trace * 1e3,
        "metrics_overhead": metrics_overhead,
        "trace_overhead": trace_overhead,
        "merged_worker_granules": sum(v for _, _, v in merged),
        "merged_lanes": sorted(key[-1] for _, key, _ in merged),
        "worker_spans": worker_spans,
        "rows": {"off": res_off.n_rows, "metrics": res_on.n_rows,
                 "traced": res_trace.n_rows},
    }


def _over_budget(arms: dict) -> bool:
    return (arms["metrics_overhead"] > MAX_METRICS_OVERHEAD
            or arms["trace_overhead"] > MAX_TRACE_OVERHEAD)


def _best_of(first: dict, second: dict) -> dict:
    """Fold two measurement passes of the same arms: keep each arm's
    best (min) time — exactly what doubling the repeat count would
    have produced — and recompute the overheads from those."""
    out = dict(second)
    for key in ("scan_off_ms", "scan_metrics_ms", "scan_traced_ms"):
        out[key] = min(first[key], second[key])
    base = max(out["scan_off_ms"], 1e-9)
    out["metrics_overhead"] = out["scan_metrics_ms"] / base - 1.0
    out["trace_overhead"] = out["scan_traced_ms"] / base - 1.0
    out["retried"] = True
    return out


def run(root: str, n: int) -> dict:
    directory = os.path.join(root, "events")
    rng = np.random.default_rng(0)
    write_table(directory, {
        "ts": np.arange(n, dtype=np.int64),
        "val": np.cumsum(rng.integers(-5, 6, n)).astype(np.int64),
    }, shard_rows=max(n // 8, 4096))

    # a shared box stalls for whole-second stretches; repeat passes
    # (folded as extra best-of rounds) separate a real regression from
    # having measured through such a stall
    arms = _overhead_arms(directory, n)
    for _ in range(2):
        if not _over_budget(arms):
            break
        time.sleep(1.0)  # let a whole-box stall pass before retrying
        arms = _best_of(arms, _overhead_arms(directory, n))
    proc = _process_tier_arms(directory, n)
    for _ in range(2):
        if not _over_budget(proc):
            break
        time.sleep(1.0)
        proc = _best_of(proc, _process_tier_arms(directory, n))

    checks = {
        "metrics_overhead_within_budget": bool(
            arms["metrics_overhead"] <= MAX_METRICS_OVERHEAD),
        "trace_overhead_within_budget": bool(
            arms["trace_overhead"] <= MAX_TRACE_OVERHEAD),
        "instrumented_results_identical": bool(
            arms["rows"]["off"] == arms["rows"]["metrics"]
            == arms["rows"]["traced"]),
        "trace_captured_spans": bool(arms["trace_spans"] > 0),
        "process_metrics_overhead_within_budget": bool(
            proc["metrics_overhead"] <= MAX_METRICS_OVERHEAD),
        "process_trace_overhead_within_budget": bool(
            proc["trace_overhead"] <= MAX_TRACE_OVERHEAD),
        "process_results_identical": bool(
            proc["rows"]["off"] == proc["rows"]["metrics"]
            == proc["rows"]["traced"] == arms["rows"]["off"]),
        "worker_telemetry_merged": bool(
            proc["merged_worker_granules"] > 0
            and proc["merged_lanes"]),
        "worker_spans_crossed_the_pipe": bool(
            proc["worker_spans"] > 0),
    }

    print(f"scan (0.5% selectivity, n={n}): "
         f"off {arms['scan_off_ms']:.3f} ms   "
         f"metrics {arms['scan_metrics_ms']:.3f} ms "
         f"({arms['metrics_overhead']:+.2%}, "
         f"budget {MAX_METRICS_OVERHEAD:.0%})   "
         f"traced {arms['scan_traced_ms']:.3f} ms "
         f"({arms['trace_overhead']:+.2%}, "
         f"budget {MAX_TRACE_OVERHEAD:.0%}, "
         f"{arms['trace_spans']} spans)")
    print(f"process tier: "
         f"off {proc['scan_off_ms']:.3f} ms   "
         f"metrics {proc['scan_metrics_ms']:.3f} ms "
         f"({proc['metrics_overhead']:+.2%})   "
         f"traced {proc['scan_traced_ms']:.3f} ms "
         f"({proc['trace_overhead']:+.2%}, "
         f"{proc['worker_spans']} worker spans)   "
         f"merged granules "
         f"{proc['merged_worker_granules']:g} over lanes "
         f"{','.join(proc['merged_lanes'])}")
    print("checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))

    return {
        "n": n,
        "overhead": arms,
        "process_tier": proc,
        "budgets": {"metrics": MAX_METRICS_OVERHEAD,
                    "trace": MAX_TRACE_OVERHEAD},
        "checks": checks,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default="BENCH_obs.json")
    parser.add_argument("--dir", default=None,
                        help="working directory (default: a temp dir)")
    args = parser.parse_args(argv)
    n = QUICK_N if args.quick else FULL_N
    print(headline(
        "Observability overhead benchmark",
        f"metrics + tracing cost on a 0.5%-selectivity scan (n={n}), "
        "thread tier and process tier"))
    root = args.dir or tempfile.mkdtemp(prefix="repro_obs_bench_")
    try:
        payload = run(root, n)
    finally:
        set_enabled(True)  # never leave the kill switch thrown
        if args.dir is None:
            shutil.rmtree(root, ignore_errors=True)
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.json}")
    failed = [name for name, ok in payload["checks"].items() if not ok]
    if failed:  # the CI smoke step must go red, not just record it
        raise SystemExit(f"obs bench checks failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
