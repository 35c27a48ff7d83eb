"""sha256 of every integer codec's envelope over a fixed input matrix.

"Did this change move stored bytes?" is a ``diff`` of two runs::

    python benchmarks/codec_digests.py > /tmp/change.json
    python benchmarks/codec_digests.py --src /path/to/parent > /tmp/parent.json
    diff /tmp/parent.json /tmp/change.json        # empty = bytes unchanged

``--src`` names another checkout of this repository (a ``git clone`` or
``git worktree`` of the parent commit); its ``src/`` is imported in place
of this one's.  The matrix is every registered integer codec, bare and
under each partition plan, ``leco`` under every registered regressor and
``auto`` (``poly*``/``exponential``/``logarithm``/``sin*``/``auto``
included — LAPACK decides those bytes, so compare runs from one machine
only), over the golden inputs of
``tests/test_codec_conformance.py`` plus sensor-fixture chunks, 40-bit
jumps and full-range hashes.  Not a byte gate: some changes move bytes on
purpose; ``TestGoldenBytes`` pins the platform-independent subset.

Each image is also read back: ``codecs.from_bytes(blob)`` must decode to the
input and re-serialise to ``blob`` byte for byte.  The first form that does
not is named on stderr and the run exits 1, so an empty ``diff`` covers
revive as well as write, and CI runs the script (output discarded) as a
round-trip gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

PLANS = ("fixed", "variable", "auto", 64, 1024)
#: ``leco`` regressor -> the plans it is encoded under.  The basis
#: families skip the searched ``"fixed"`` plan: it fits every candidate
#: size, which takes longer than the rest of the matrix together.
REGRESSOR_PLANS = {
    **dict.fromkeys(("constant", "linear", "poly2", "poly3", "auto"),
                    ("fixed", 64, 1024)),
    **dict.fromkeys(("exponential", "logarithm", "sin1", "sin2"),
                    (64, 1024)),
}


def inputs(sensor_fixture) -> dict:
    i = np.arange(3000)
    rng = np.random.default_rng(23)
    jumps = rng.integers(-50, 50, 2500)
    jumps[rng.integers(0, 2500, 40)] += 1 << 40
    data = {
        "arith": 1000 + 37 * i,
        "step": (i // 250) * 100_000 + (i % 250) * 3,
        "scramble": (np.arange(2500) * 2654435761) % 1_000_003 - 500_000,
        # 1237 is prime: no partition size divides it
        "ragged": np.cumsum(np.arange(1237) % 7) * 5 - 9000,
        "jumps": np.cumsum(jumps),
        "hashes": rng.integers(-(1 << 63), (1 << 63) - 1, 2100),
        "near_edge": (1 << 62) + np.cumsum(rng.integers(0, 1 << 30, 2048)),
        "tiny": np.array([7, 7, 9]),
    }
    for seed in (1, 5):
        for name, column in sensor_fixture(6144, seed=seed).items():
            data[f"sensor{seed}.{name}"] = column[2048:4096]
            data[f"sensor{seed}.{name}.tail"] = column[4096:4096 + 72]
    return {name: values.astype(np.int64) for name, values in data.items()}


def forms(codecs) -> dict:
    """``label -> (registry name, constructor keywords)``."""
    out = {}
    for name in codecs.available():
        info = codecs.info(name)
        if not info.supports_integers:
            continue
        out[name] = (name, {})
        if not info.partitioned:
            continue
        for plan in PLANS:
            out[f"{name}/{plan}"] = (name, {"partitioner": plan})
        if name == "leco":
            for regressor, plans in REGRESSOR_PLANS.items():
                for plan in plans:
                    out[f"{name}/{regressor}/{plan}"] = (
                        name, {"regressor": regressor, "partitioner": plan})
    return out


def digests() -> tuple[dict, str | None]:
    """The digest table, and the first ``dataset/form`` whose image does
    not read back (``None`` when every one does)."""
    from repro import codecs
    from repro.datasets import sensor_fixture

    table, mismatch = {}, None
    for dataset, values in inputs(sensor_fixture).items():
        row = table[dataset] = {}
        for label, (name, kwargs) in forms(codecs).items():
            data = np.sort(np.abs(values)) \
                if codecs.info(name).requires_sorted else values
            blob = codecs.get(name, **kwargs).encode(data).to_bytes()
            row[label] = hashlib.sha256(blob).hexdigest()
            revived = codecs.from_bytes(blob)
            if mismatch is None and (
                    revived.to_bytes() != blob
                    or not np.array_equal(revived.decode_all(), data)):
                mismatch = f"{dataset}/{label}"
    return table, mismatch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="checkout whose src/ to import (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.src), "src"))
    table, mismatch = digests()
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
    import repro

    print(f"{sum(len(row) for row in table.values())} digests over "
          f"{len(table)} inputs, from {os.path.dirname(repro.__file__)}",
          file=sys.stderr)
    if mismatch is not None:
        print(f"{mismatch}: the image does not read back (decoded values "
              f"or re-serialised bytes differ)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
