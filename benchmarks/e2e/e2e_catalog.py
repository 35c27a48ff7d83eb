"""The benchmark's catalogue: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is this module's
:func:`benchmark_json` written out; ``test_harness.py`` keeps the two
equal, so a name claimed by a later PR exists in exactly one place.
"""

from __future__ import annotations

#: length of one measured window and of its slices (seconds).  Four 4 s
#: slices: the contract's cap on total driver time (114 runs in 3420 s)
#: leaves ~30 s a run, and two ~3 s set-ups plus the warm-up take ten.
RUN_SECONDS = 16
SLICE_SECONDS = 4
#: closed-loop warm-up before the window (not timed)
WARMUP_SECONDS = 3.0
#: the window of a ``--smoke`` run (one short slice)
SMOKE_SECONDS = 3

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: name -> one-line reason the workload exists
WORKLOADS = {
    "proc_select":
        "0.5% ts-range select on the process tier: lane, plan and "
        "prune fixed costs dominate, decode and marshalling idle",
    "proc_full_agg":
        "filter+group-by+sum over all rows, quarter-MiB cache: every "
        "chunk loaded and decoded each op, lane cost a small share",
    "wide_rows":
        "50 000 rows x 4 columns in one ~1.2 MB JSON frame on the "
        "thread tier: result encode and decode dominate",
    "contended":
        "the same select beside a back-to-back quarter-table scan on "
        "one thread-tier server: scheduling and the GIL decide it",
    "ingest_churn":
        "in-process append/delete/update/flush/compact rounds with "
        "point selects: encode, WAL, deletion vectors, compaction",
}

#: (name, unit, better, bound).  The four timing metrics are at
#: reference speed (README, "Timing rule").  The issue asked for 0.10 on
#: them.  The driver accepts a benchmark only while the inter-quartile
#: spread of ten runs stays inside the bound, and asks for a third of
#: it: on the reference box that spread is 3-11 % (mean 6.5 %) on
#: latency, throughput and CPU even at reference speed, so 0.20 is the
#: tightest bound that rule supports here.  ``setup_s`` (two 2.4 s
#: set-ups a run, spread 7-19 %) has the contract's cap, as the
#: contract asks.  Set *medians* agree within 2.1 % (set-up: 7.3 %), so
#: the issue's own criterion holds at 0.10 (README, "Measured noise").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("throughput_ops_s", "1/s", "higher", 0.20),
    ("cpu_ms_per_op", "ms", "lower", 0.20),
    ("stored_bytes_per_raw_byte", "ratio", "lower", 0.01),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

#: (name, unit, better) — no bounds; 0 means "layer not on this
#: workload's path" (``mutate.*`` on served workloads, ``serve.*`` /
#: ``pool.*`` / ``par.*`` on ``ingest_churn``, ``par.*`` on the thread
#: tier)
PER_LAYER = [
    ("serve.plan_encode_us", "us", "lower"),
    ("serve.plan_revive_us", "us", "lower"),
    ("serve.result_encode_ms", "ms", "lower"),
    ("serve.result_decode_ms", "ms", "lower"),
    ("serve.frame_bytes", "B", "lower"),
    ("serve.request_ms", "ms", "lower"),
    ("serve.transport_ms", "ms", "lower"),
    ("serve.ping_us", "us", "lower"),
    ("serve.busy_rejects", "count", "lower"),
    ("exec.inline_ms", "ms", "lower"),
    ("exec.filter_ms", "ms", "lower"),
    ("exec.gather_ms", "ms", "lower"),
    ("exec.aggregate_ms", "ms", "lower"),
    ("exec.merge_ms", "ms", "lower"),
    ("exec.granules_per_op", "count", "lower"),
    ("exec.prune_ratio", "ratio", "higher"),
    ("exec.rows_examined_per_row_returned", "ratio", "lower"),
    ("pool.dispatch_overhead_ms", "ms", "lower"),
    ("pool.park_wait_ms", "ms", "lower"),
    ("pool.fg_slowdown", "ratio", "lower"),
    ("par.lane_overhead_ms", "ms", "lower"),
    ("par.roundtrip_us", "us", "lower"),
    ("par.dispatch_wait_us", "us", "lower"),
    ("par.granules_sent_per_op", "count", "lower"),
    ("par.useful_granule_ratio", "ratio", "higher"),
    ("par.bytes_per_op", "B", "lower"),
    ("par.respawns", "count", "lower"),
    ("par.needdesc", "count", "lower"),
    ("store.cache_hit_ratio", "ratio", "higher"),
    ("store.bytes_read_per_op", "B", "lower"),
    ("store.chunks_scanned_per_op", "count", "lower"),
    ("store.load_ms_per_chunk", "ms", "lower"),
    ("store.open_ms", "ms", "lower"),
    ("store.write_rows_per_s", "rows/s", "higher"),
    ("codecs.leco.decode_mb_s", "MB/s", "higher"),
    ("codecs.dict.decode_mb_s", "MB/s", "higher"),
    ("codecs.leco.gather_us", "us", "lower"),
    ("codecs.dict.gather_us", "us", "lower"),
    ("codecs.leco.encode_mb_s", "MB/s", "higher"),
    ("codecs.dict.encode_mb_s", "MB/s", "higher"),
    ("codecs.auto_select_ms_per_chunk", "ms", "lower"),
    ("codecs.leco_chunk_share", "ratio", "higher"),
    ("mutate.append_ms", "ms", "lower"),
    ("mutate.wal_fsync_ms", "ms", "lower"),
    ("mutate.delete_ms", "ms", "lower"),
    ("mutate.update_ms", "ms", "lower"),
    ("mutate.flush_ms", "ms", "lower"),
    ("mutate.dv_select_ms", "ms", "lower"),
    ("mutate.compact_ms", "ms", "lower"),
    ("mutate.round_max_ms", "ms", "lower"),
    ("mutate.ingest_rows_per_s", "rows/s", "higher"),
    ("mutate.wal_bytes_per_raw_byte", "ratio", "lower"),
    ("mutate.bytes_rewritten_per_raw_byte", "ratio", "lower"),
    ("mutate.reopen_ms", "ms", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.scrape_ms", "ms", "lower"),
    ("client.samples", "count", "higher"),
    ("client.latency_mean_ms", "ms", "lower"),
    ("client.latency_tail_ms", "ms", "lower"),
    ("client.tail_percentile", "count", "higher"),
    ("client.slice_spread", "ratio", "lower"),
    ("client.bg_latency_p50_ms", "ms", "lower"),
    ("client.fg_ops_s", "1/s", "higher"),
    ("client.unattributed_ms", "ms", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
BETTER = {name: better for name, _, better, _ in END_TO_END}


def benchmark_json() -> dict:
    """The exact object ``BENCHMARK.json`` holds."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better,
             "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER],
    }
