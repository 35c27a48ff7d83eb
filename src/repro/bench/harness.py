"""Micro-benchmark harness (paper §4.2 methodology).

For each (codec, dataset) pair the harness measures:

* **compression ratio** — serialised size / natural raw size, plus the model
  share (Fig. 10's cross-hatched split);
* **random access** — latency of uniformly random point decodes.  The
  default ``access_mode="gather"`` drives the vectorised batch protocol
  (one ``gather`` over all probe positions — the executor's late-
  materialization path); ``access_mode="scalar"`` keeps the paper-faithful
  per-position ``get`` loop for point-query latency numbers;
* **decompression throughput** — full decode, raw GB/s;
* **compression throughput** — encode, raw GB/s.

All measurements run single-threaded in memory, repeated ``repeats`` times
with the mean reported, mirroring the paper's setup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.base import Codec, EncodedSequence
from repro.datasets.registry import Dataset

_ACCESS_MODES = ("gather", "scalar")

#: the paper's Fig. 10 line-up, by registry name (rANS and Elias-Fano are
#: added by the experiments where they apply)
LINEUP = ("for", "delta", "delta-var", "leco-fix", "leco-var")


@dataclass
class Measurement:
    """One (codec, dataset) benchmark row."""

    codec: str
    dataset: str
    compression_ratio: float
    model_ratio: float
    random_access_ns: float
    decode_gbps: float
    compress_gbps: float
    compressed_bytes: int
    access_mode: str = "gather"


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _measure_random_access(codec: Codec, encoded: EncodedSequence,
                           values, n_random: int, rng,
                           access_mode: str) -> float:
    """Mean per-position random-access latency in nanoseconds."""
    if access_mode == "gather" and hasattr(encoded, "gather"):
        positions = rng.integers(0, len(values), n_random)
        start = time.perf_counter()
        out = encoded.gather(positions)
        elapsed = time.perf_counter() - start
        if not np.array_equal(np.asarray(out, dtype=np.int64),
                              np.asarray(values, dtype=np.int64)[positions]):
            raise AssertionError(
                f"codec {codec.name}: gather disagrees with the input")
        return elapsed / n_random * 1e9
    # scalar loop: sequential-access codecs get a reduced probe budget
    probes = n_random if not codec.sequential_access else max(
        n_random // 100, 10)
    positions = rng.integers(0, len(values), probes)
    start = time.perf_counter()
    for pos in positions:
        encoded.get(int(pos))
    return (time.perf_counter() - start) / probes * 1e9


def measure_codec(codec: Codec, dataset: Dataset,
                  n_random: int = 2_000, repeats: int = 3,
                  seed: int = 11,
                  access_mode: str = "gather") -> Measurement:
    """Run the paper's §4.2 protocol for one codec on one dataset.

    ``access_mode="gather"`` (default) measures batch random access through
    the vectorised protocol; ``"scalar"`` loops point ``get`` calls.
    """
    if access_mode not in _ACCESS_MODES:
        raise ValueError(
            f"access_mode must be one of {_ACCESS_MODES}, got {access_mode!r}")
    values = dataset.values
    raw_bytes = dataset.uncompressed_bytes
    rng = np.random.default_rng(seed)

    encode_times = []
    encoded: EncodedSequence | None = None
    for _ in range(repeats):
        start = time.perf_counter()
        encoded = codec.encode(values)
        encode_times.append(time.perf_counter() - start)
    assert encoded is not None

    size = encoded.compressed_size_bytes()
    model_bytes = (encoded.model_size_bytes()
                   if hasattr(encoded, "model_size_bytes") else 0)

    ra_ns = _measure_random_access(codec, encoded, values, n_random, rng,
                                   access_mode)

    decode_times = [_time_once(encoded.decode_all) for _ in range(repeats)]
    out = encoded.decode_all()
    if not np.array_equal(out, np.asarray(values, dtype=np.int64)):
        raise AssertionError(
            f"codec {codec.name} is lossy on {dataset.name}")

    return Measurement(
        codec=codec.name,
        dataset=dataset.name,
        compression_ratio=size / raw_bytes,
        model_ratio=model_bytes / raw_bytes,
        random_access_ns=ra_ns,
        decode_gbps=raw_bytes / np.mean(decode_times) / 1e9,
        compress_gbps=raw_bytes / np.mean(encode_times) / 1e9,
        compressed_bytes=size,
        access_mode=access_mode,
    )


def weighted_average(measurements: list[Measurement], field: str,
                     weights: list[int] | None = None) -> float:
    """Dataset-size-weighted mean of a measurement field (paper Fig. 2)."""
    values = np.array([getattr(m, field) for m in measurements])
    if weights is None:
        weights = [m.compressed_bytes / max(m.compression_ratio, 1e-12)
                   for m in measurements]
    weights = np.asarray(weights, dtype=np.float64)
    return float((values * weights).sum() / weights.sum())
