"""The untraced pass (``--trace 0``): the six end-to-end metrics.

Set up twice, warm up, measure one window cut into slices, report the
quiet slice of each timing metric, then run the workload's
self-assertions — checks that make a silently wrong workload fail
loudly instead of reporting numbers for something else.
"""

from __future__ import annotations

import json
import sys

import e2e_churn as ch
import e2e_served as sv
import e2e_stats as st
import e2e_workloads as wl
from e2e_catalog import BETTER, SLICE_SECONDS, WARMUP_SECONDS

#: correct replies each ``contended`` stream must complete inside a
#: 24 s window — the issue's floor.  A shorter window owes its share (33
#: of 16 s), and the count is taken at reference speed like the timings:
#: the scanning stream completes 40-58 in 16 s on the reference box, 40
#: of them in an hour when the box ran 1.4x slow
CONTENDED_MIN_OPS_PER_24_S = 50


def _speed(out: dict, probe) -> list:
    """The speed factor of every slice of a measured window."""
    marks = out["marks"]
    return [probe.factor(lo[0], hi[0]) for lo, hi in zip(marks, marks[1:])]


def _result(out: dict, latency_stream: str, throughput_stream: str,
            setups: list, ratio: float, wrong: str | None,
            flags: list, probe, speed: list) -> dict:
    """Quiet-slice metrics of one measured window, plus what the run
    record keeps beside them.  Every timing value is first brought to
    the reference speed by what the speed probe saw during its own
    slice (or set-up): whole runs are slow together on this box (ten
    runs of one commit spread by 10-34 % raw), and a statistic inside
    one window cannot remove that."""
    marks = out["marks"]
    raw = st.slice_values(marks, out["ops"], latency_stream,
                          throughput_stream)
    slices = st.at_reference_speed(raw, speed)
    timing = ("latency_p50_ms", "throughput_ops_s", "cpu_ms_per_op")
    metrics = {name: st.quiet_slice(slices[name], BETTER[name])
               for name in timing}
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    metrics["setup_s"] = min(
        (t1 - t0) / probe.factor(t0, t1) for t0, t1 in setups)
    metrics["stored_bytes_per_raw_byte"] = ratio
    ops = [op for ops in out["ops"].values() for op in ops]
    note = "\n".join([
        "machine speed per slice (1.0 = the reference box undisturbed; "
        "timings are divided by it): "
        + " ".join(f"{f:.3f}" for f in speed),
        "as observed, before that (quiet slice of the raw values; "
        "set-ups in s): "
        + " ".join(f"{name} {st.quiet_slice(raw[name], BETTER[name]):.4g}"
                   for name in timing)
        + " setup_s " + " ".join(f"{t1 - t0:.3f}" for t0, t1 in setups)])
    return {"metrics": metrics, "slices": slices, "slices_raw": raw,
            "speed": speed, "setups": [t1 - t0 for t0, t1 in setups],
            "tables": [note],
            "attempted": len(ops),
            "failed": sum(1 for op in ops if not op[2]),
            "wrong": wrong, "flags": flags}


def _check_served(args, out: dict, speed: list) -> str | None:
    """Self-assertions that make a silently wrong workload fail loudly;
    returns what is wrong, or ``None``."""
    name = args.workload

    def stats_of(stream):
        return [op[3] for op in out["ops"][stream] if op[3] is not None]

    if name in ("proc_select", "contended"):
        for s in stats_of("select"):
            if s["granules_pruned"] < 0.95 * s["granules_total"]:
                return (f"select pruned only {s['granules_pruned']}"
                        f"/{s['granules_total']} granules")
    if name == "proc_full_agg":
        hits = sum(s["cache_hits"] for s in stats_of("full_agg"))
        misses = sum(s["cache_misses"] for s in stats_of("full_agg"))
        if hits >= 0.05 * (hits + misses):
            return (f"cache hit ratio {hits / (hits + misses):.3f} is "
                    "not < 0.05 — the working set must not fit")
    if name == "contended" and not args.smoke:
        floor = CONTENDED_MIN_OPS_PER_24_S * args.seconds // 24
        t_lo, t_hi = out["marks"][0][0], out["marks"][-1][0]
        machine = sum(speed) / len(speed)
        for stream, ops in out["ops"].items():
            done = sum(1 for op in ops if op[2] and t_lo < op[0] <= t_hi)
            if done * machine < floor:
                return (f"stream {stream} completed only {done} ops "
                        f"inside the window at machine speed "
                        f"{machine:.2f} (< {floor} at reference speed)")
    return None


def _wide_frame_check(served, inputs) -> str | None:
    """One ``wide_rows`` reply, re-encoded: not truncated and at least
    1 MB of JSON (scaled down with the table under ``--smoke``)."""
    plan, limit, check = wl.WideStream(inputs).next_op()
    with served.client() as client:
        reply = client.query(wl.TABLE, plan, limit=limit)
    frame = len(json.dumps(
        {"row_ids": reply["row_ids"].tolist(),
         "columns": {c: v.tolist()
                     for c, v in reply["columns"].items()}},
        separators=(",", ":")))
    if not check(reply) or \
            frame < (1 << 20) * inputs.n_rows // wl.FULL_ROWS:
        return f"reply wrong, truncated or only {frame} bytes"
    return None


def _slicing(seconds: int) -> tuple[float, float, int]:
    """``(warm-up, slice length, slices)`` of a window of ``seconds``:
    whole 4 s slices, or one short slice under ``--smoke``."""
    n = max(1, seconds // SLICE_SECONDS)
    return min(WARMUP_SECONDS, seconds / 3), seconds / n, n


def measure_served(args, inputs, workdir: str, src_dir: str,
                   probe) -> dict:
    spec = wl.SERVED[args.workload]
    with sv.Served(workdir, inputs, spec, src_dir) as first:
        setups = [first.setup]
    with sv.Served(workdir, inputs, spec, src_dir) as served:
        setups.append(served.setup)
        ratio = wl.stored_bytes_per_raw_byte(served.table_path)
        streams = [make(inputs) for make in spec.streams]
        wrong = _wide_frame_check(served, inputs) \
            if args.workload == "wide_rows" else None
        out = sv.run_streams(served, *_slicing(args.seconds), streams)
    speed = _speed(out, probe)
    return _result(
        out, streams[0].name, streams[-1].name, setups, ratio,
        wrong or _check_served(args, out, speed),
        wl.server_flags(spec, inputs), probe, speed)


def _check_steady(out: dict) -> str | None:
    """``ingest_churn`` must be in steady state: the work a point
    select does (granules it examines — a count, so interference cannot
    move it) may not drift by more than 10 % from the first slice to
    the last.  Slice throughput is compared too, but only reported: on
    a shared box interference alone moves it by more than that."""
    marks, rounds = out["marks"], out["ops"]["round"]

    def slice_of(k: int) -> tuple[float, float]:
        """Mean granules per select and rounds per second of slice k."""
        (t_lo, _), (t_hi, _) = marks[k], marks[k + 1]
        inside = [op[3] for op in rounds if t_lo < op[0] <= t_hi]
        return sum(inside) / len(inside), len(inside) / (t_hi - t_lo)

    (first, first_tp), (last, last_tp) = \
        slice_of(0), slice_of(len(marks) - 2)
    if abs(last - first) > 0.10 * first:
        return (f"not in steady state: a select examined {first:.0f} "
                f"granules in the first slice, {last:.0f} in the last")
    if abs(last_tp - first_tp) > 0.10 * first_tp:
        print(f"run.py: note: slice throughput went {first_tp:.2f} -> "
              f"{last_tp:.2f} rounds/s first to last while the work "
              f"per round held ({first:.0f} -> {last:.0f} granules per "
              "select): interference, not drift", file=sys.stderr)
    return None


def measure_churn(args, inputs, workdir: str, probe) -> dict:
    with ch.Churn(workdir, inputs) as first:
        setups = [first.setup]
    with ch.Churn(workdir, inputs) as churn:
        setups.append(churn.setup)
        out = ch.run_rounds(churn, *_slicing(args.seconds))
        replay_ok = churn.final_check()
        ratio = churn.ratio_at_fixed_round
    wrong = None if replay_ok else \
        "the reopened table differs from the numpy replay"
    return _result(out, "round", "round", setups, ratio,
                   wrong or _check_steady(out), [], probe,
                   _speed(out, probe))
