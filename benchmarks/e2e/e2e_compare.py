"""``run.py compare A.json B.json`` — two sets of ``--out`` records.

Per (metric, workload): both sides' medians and quartiles, the ratio
B ÷ A with its base, and the verdict of :func:`e2e_stats.verdict`.
The comparison fails (exit 1) when any end-to-end pairing regressed,
when failed ÷ attempted rose on any workload, or when B lacks a
workload or a metric A has (a run that crashed must not pass by being
absent).  ``--smoke`` records and records of another window length
than the catalogue's ``run_seconds`` are refused: the first measure
the harness, the second are not comparable.
"""

from __future__ import annotations

import json
import sys

import e2e_stats as st
from e2e_catalog import END_TO_END, PER_LAYER, RUN_SECONDS


def load(path: str) -> dict:
    """``{workload: {"metrics": {name: [values...]}, "attempted",
    "failed"}}`` from a JSON-lines ``--out`` file, in run order."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("smoke"):
                raise ValueError(
                    f"{path}: holds a --smoke record; smoke runs check "
                    "the harness and are never compared")
            if record["seconds"] != RUN_SECONDS:
                raise ValueError(
                    f"{path}: holds a record of a {record['seconds']} s "
                    f"window; the benchmark's run length is "
                    f"{RUN_SECONDS} s and only such runs are comparable")
            side = out.setdefault(
                record["workload"],
                {"metrics": {}, "attempted": 0, "failed": 0})
            side["attempted"] += record["attempted"]
            side["failed"] += record["failed"]
            for name, m in record["metrics"].items():
                side["metrics"].setdefault(name, []).append(m["value"])
    return out


def compare(a: dict, b: dict) -> tuple[list, bool]:
    """Rows ``(workload, metric, verdict dict)`` and whether the
    comparison passed."""
    rules = {name: (better, bound)
             for name, _unit, better, bound in END_TO_END}
    rules.update({name: (better, None)
                  for name, _unit, better in PER_LAYER})
    rows = []
    passed = True
    for workload in a:
        if workload not in b:
            rows.append((workload, "(all metrics)",
                         {"verdict": "FAILED: workload missing from B"}))
            passed = False
            continue
        for name, a_values in a[workload]["metrics"].items():
            b_values = b[workload]["metrics"].get(name)
            if not b_values:
                rows.append((workload, name,
                             {"verdict": "FAILED: metric missing from B"}))
                passed = False
                continue
            better, bound = rules[name]
            v = st.verdict(a_values, b_values, better, bound)
            rows.append((workload, name, v))
            # per-layer rows explain; only end-to-end ones gate
            if v["verdict"] == "regressed" and bound is not None:
                passed = False
        rate_a = a[workload]["failed"] / a[workload]["attempted"]
        rate_b = b[workload]["failed"] / b[workload]["attempted"]
        if rate_b > rate_a:
            rows.append((workload, "failed/attempted",
                         {"a": {"median": rate_a}, "b": {"median": rate_b},
                          "verdict": "FAILED: failure rate rose"}))
            passed = False
    return rows, passed


def _cell(side: dict) -> str:
    if "q1" not in side:
        return f"{side['median']:.6g}"
    return (f"{side['median']:.5g} [{side['q1']:.5g}, "
            f"{side['q3']:.5g}] n={side['n']}")


def render(rows) -> str:
    lines = [f"{'workload':<14}{'metric':<36}{'A median [q1, q3]':>34}"
             f"{'B median [q1, q3]':>34}{'B/A':>8}  verdict"]
    for workload, name, v in rows:
        if "a" not in v:
            lines.append(f"{workload:<14}{name:<36}{'':>76}  "
                         f"{v['verdict']}")
            continue
        ratio = f"{v['ratio']:.3f}" if "ratio" in v else ""
        lines.append(f"{workload:<14}{name:<36}{_cell(v['a']):>34}"
                     f"{_cell(v['b']):>34}{ratio:>8}  {v['verdict']}"
                     + (f" ({v['b_wins']}/{v['pairs']} pairs)"
                        if "pairs" in v else ""))
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    try:
        rows, passed = compare(load(argv[0]), load(argv[1]))
    except ValueError as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    print(render(rows))
    print("comparison " + ("passed" if passed else "FAILED")
          + " (ratios are B ÷ A; the base is A's median)")
    return 0 if passed else 1
