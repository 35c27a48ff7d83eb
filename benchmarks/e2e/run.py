"""The end-to-end benchmark: one driver, five workloads, six metrics.

::

    python benchmarks/e2e/run.py --workload NAME --seed S [--trace 0|1]
                                 [--out FILE] [--smoke]
    python benchmarks/e2e/run.py compare A.json B.json

A run builds its inputs from the seed, drives the stack through its
public entry points only, checks every answer against numpy, prints
every metric by name with its unit and ends with one JSON summary line
(``correct`` / ``attempted`` / ``failed`` / ``metrics``).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (a
separate pass — see ``README.md`` beside this file).  The run length is
the benchmark's, not the caller's: ``--seconds`` exists because the
driver's command line carries it, it defaults to the catalogue's
``run_seconds``, and ``compare`` refuses a record of any other length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import e2e_compare
from e2e_catalog import (END_TO_END_UNITS, PER_LAYER_UNITS, RUN_SECONDS,
                         SMOKE_SECONDS, WORKLOADS)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
#: scratch space for tables, inside the checkout and git-ignored
WORK = os.path.join(HERE, "_work")


def envelope(args, flags) -> dict:
    """What every result record carries besides its numbers."""
    import numpy

    commit = "unknown"
    if os.path.exists(os.path.join(REPO, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", REPO, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "timestamp": time.time(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "server_flags": flags,
    }


# -------------------------------------------------------------------- main
def run_workload(args) -> int:
    # the program under test lives in src/; without it there is nothing
    # to measure and the run must fail, not report
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import e2e_layers
    import e2e_measure
    import e2e_procs
    import e2e_workloads as wl

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=args.workdir)

    def on_signal(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, on_signal)
    probe = None
    try:
        inputs = wl.make_inputs(args.seed, smoke=args.smoke)
        churn = args.workload == "ingest_churn"
        if args.trace:
            result = e2e_layers.trace_churn(args, inputs, workdir) \
                if churn else \
                e2e_layers.trace_served(args, inputs, workdir, SRC)
            units = PER_LAYER_UNITS
        else:
            probe = e2e_procs.SpeedProbe()
            result = e2e_measure.measure_churn(
                args, inputs, workdir, probe) if churn else \
                e2e_measure.measure_served(
                    args, inputs, workdir, SRC, probe)
            units = END_TO_END_UNITS
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(args.workdir)  # the last run out removes it
        except OSError:
            pass

    missing = [name for name in units if name not in result["metrics"]]
    if missing:
        raise AssertionError(f"metrics not measured: {missing}")
    metrics = {name: {"value": float(result["metrics"][name]),
                      "unit": unit} for name, unit in units.items()}
    for text in result.get("tables", ()):
        print(text)
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
    if result.get("wrong"):
        # the run measured something other than the catalogue says, so
        # nothing it counted can be trusted: every op is a failure
        print(f"run.py: {args.workload}: self-assertion failed: "
              f"{result['wrong']}", file=sys.stderr)
        result["failed"] = result["attempted"]
    summary = {"correct": result["failed"] == 0,
               "attempted": int(result["attempted"]),
               "failed": int(result["failed"]), "metrics": metrics}
    if args.out:
        record = dict(envelope(args, result.get("flags", [])))
        record.update(summary)
        for key in ("slices", "slices_raw", "speed", "setups"):
            record[key] = result.get(key)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 1 if result.get("wrong") else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return e2e_compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help="length of the measured window: the "
                             "catalogue's run_seconds, as the driver "
                             "passes it (compare refuses any other)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced per-layer pass")
    parser.add_argument("--out", default=None,
                        help="append this run's record (JSON lines)")
    parser.add_argument("--workdir", default=WORK,
                        help="where tables are built and removed "
                             "again (default: _work beside this file)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"100 k rows, {SMOKE_SECONDS} s window — a "
                             "harness check, refused by compare")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
