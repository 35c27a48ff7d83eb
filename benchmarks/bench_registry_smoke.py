"""Registry conformance smoke benchmark — every codec through one harness.

Enumerates ``repro.codecs.available()`` and runs the §4.2 measurement
protocol (ratio, batch ``gather`` random access, decode/encode throughput)
against each integer codec, so a newly registered codec is benchmark-
smoke-run without editing this file.  Writes a ``BENCH_registry.json``
trajectory for regression tracking::

    python benchmarks/bench_registry_smoke.py [--quick] [--json PATH]
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro import codecs
from repro.bench import headline, measure_codec, render_table
from repro.datasets.registry import Dataset

FULL_N = 100_000
QUICK_N = 10_000


def _dataset(name: str, n: int, seed: int = 11) -> Dataset:
    """Serial-correlated non-negative keys every scheme can encode."""
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.integers(0, 40, n)).astype(np.int64)
    if codecs.info(name).requires_sorted:
        values = np.sort(values)
    return Dataset(name="smoke", values=values, width_bytes=8, sorted=True)


def run(n: int, probes: int) -> dict:
    rows = []
    results = {}
    for name in codecs.available():
        info = codecs.info(name)
        if not info.supports_integers:
            continue  # string codecs are covered by the conformance tests
        ds = _dataset(name, n)
        m = measure_codec(codecs.get(name), ds, n_random=probes,
                          repeats=1, access_mode="gather")
        rows.append([name, f"{100 * m.compression_ratio:.1f}%",
                     m.random_access_ns, m.decode_gbps, m.compress_gbps])
        results[name] = {
            "compression_ratio": m.compression_ratio,
            "gather_ns_per_elem": m.random_access_ns,
            "decode_gbps": m.decode_gbps,
            "compress_gbps": m.compress_gbps,
        }
    print(render_table(
        ["codec", "ratio", "gather ns/elem", "decode GB/s", "encode GB/s"],
        rows))
    return results


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", default="BENCH_registry.json")
    args = parser.parse_args()
    n = QUICK_N if args.quick else FULL_N
    probes = 1_000 if args.quick else 5_000
    print(headline(
        "Registry smoke benchmark",
        f"every registered integer codec, n={n}, {probes} gather probes"))
    results = run(n, probes)
    payload = {"n": n, "probes": probes, "codecs": results}
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()
