"""repro — a from-scratch reproduction of LeCo (SIGMOD'24).

LeCo (Learned Compression) removes *serial* redundancy from columnar data:
fit a lightweight regression model per partition, store only bit-packed
prediction residuals, and decode any position with one model inference plus
one slot read.

Public surface:

* :mod:`repro.codecs` — the unified codec registry, :class:`CodecSpec`,
  and the self-describing serialization envelope;
* :func:`repro.compress` / :func:`repro.decompress` — integer columns
  (the one-call shim over ``codecs.get``);
* :class:`repro.StringCompressor` — varchar columns (§3.4);
* :mod:`repro.baselines` — RLE, Delta, Elias-Fano, rANS, FSST (FOR is
  ``codecs.get("for")``: LeCo with the constant regressor);
* :mod:`repro.store` — the persistent sharded columnar store (§5.1's
  host system: mmap'd shards, zone maps, counted reads);
* :mod:`repro.exec` — the unified planner/operator layer (plans run
  unchanged over the store or in-memory arrays);
* :mod:`repro.mutate` — WAL-backed mutable tables over the store
  (snapshot-isolated reads, deletion vectors, background compaction);
* :mod:`repro.kvstore` — RocksDB-like LSM store (§5.2);
* :mod:`repro.datasets` — every dataset family from the evaluation.
"""

from repro import codecs
from repro.codecs import CodecSpec
from repro.core import (
    CompressedArray,
    CompressedStrings,
    LecoEncoder,
    StringCompressor,
    compress,
    decompress,
)

__version__ = "0.1.0"

__all__ = [
    "codecs",
    "CodecSpec",
    "compress",
    "decompress",
    "CompressedArray",
    "CompressedStrings",
    "LecoEncoder",
    "StringCompressor",
    "__version__",
]
