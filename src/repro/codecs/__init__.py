"""``repro.codecs`` — the unified codec registry and serialization envelope.

One coherent surface for every compression scheme in the repo::

    from repro import codecs

    codec = codecs.get("leco", partitioner="variable")   # any scheme
    seq = codec.encode(values)                  # EncodedSequence protocol
    seq.gather(indices)                         # batch random access
    seq.decode_range(lo, hi)                    # partition-pruned decode
    blob = seq.to_bytes()                       # self-describing envelope
    codecs.from_bytes(blob)                     # revives ANY codec's blob

    codecs.available()                          # every registered name
    codecs.info("delta").sequential_access      # capability flags

New schemes call :func:`register` (and :func:`register_wire` for their
payload decoder) and are immediately reachable by every consumer — the
table store, the KV store, the benchmark harness, and the shared
conformance test suite.
"""

from repro.codecs import envelope
from repro.codecs.registry import (
    CodecInfo,
    available,
    from_bytes,
    get,
    info,
    register,
    register_wire,
)
from repro.codecs.spec import CodecSpec, default_selector
from repro.codecs import builtin as _builtin  # noqa: F401  (registers built-ins)

MAGIC = envelope.MAGIC

__all__ = [
    "CodecInfo",
    "CodecSpec",
    "MAGIC",
    "available",
    "default_selector",
    "envelope",
    "from_bytes",
    "get",
    "info",
    "register",
    "register_wire",
]
