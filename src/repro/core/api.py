"""High-level public API of the LeCo library.

Typical usage::

    import numpy as np
    from repro import compress, decompress
    from repro.codecs import CodecSpec

    keys = np.cumsum(np.random.poisson(40, 100_000))
    arr = compress(keys)                    # CompressedArray
    arr[12_345]                             # random access, no full decode
    blob = arr.to_bytes()                   # self-describing envelope
    assert np.array_equal(decompress(arr), keys)

    arr = compress(keys, CodecSpec(mode="var", regressor="auto"))

:func:`compress` is the one-call shim over ``codecs.get(spec.codec,
spec=spec).encode(values)``: configuration travels as one
:class:`~repro.codecs.CodecSpec`, and the keyword form builds a spec on
the fly.  ``mode`` picks the
partitioning strategy: ``"fix"`` (sampling-searched fixed-length
partitions), ``"var"`` (split–merge variable-length), or ``"auto"``
(hardness-based advice, §3.2.3).  ``regressor="auto"`` lets the
Hyperparameter-Advisor recommend a model family per partition (§3.1); the
selector it uses lives on the spec (injectable, lazily built, thread-safe)
rather than in a module-global singleton.
"""

from __future__ import annotations

import numpy as np

from repro import codecs
from repro.codecs.spec import CodecSpec
from repro.core.encoding import CompressedArray


def compress(values: np.ndarray, mode: str | CodecSpec = "fix",
             regressor: str = "linear", tau: float = 0.05,
             max_partition_size: int = 10_000,
             selector=None) -> CompressedArray:
    """Compress an integer sequence with LeCo.

    Parameters
    ----------
    values:
        Any integer numpy array (or list) within the int64 range.
    mode:
        ``"fix"``, ``"var"``, ``"auto"`` (advisor decides fix vs var) —
        or a full :class:`~repro.codecs.CodecSpec`, in which case the
        remaining keywords are ignored.
    regressor:
        A registered regressor name, or ``"auto"`` for the per-partition
        Regressor Selector.
    selector:
        Optional Regressor-Selector instance for ``regressor="auto"``
        (defaults to the shared lazily-built one).
    """
    if isinstance(mode, CodecSpec):
        spec = mode
    else:
        spec = CodecSpec(codec="leco", mode=mode, regressor=regressor,
                         tau=tau, max_partition_size=max_partition_size,
                         selector=selector)
    if codecs.info(spec.codec).wire_id != CompressedArray.wire_id:
        raise ValueError(
            f"compress() is the LeCo shim; use repro.codecs.get({spec.codec!r})"
            " for other schemes")
    return codecs.get(spec.codec, spec=spec).encode(values)


def decompress(compressed: CompressedArray | bytes) -> np.ndarray:
    """Inverse of :func:`compress`; accepts the object or its bytes.

    Byte inputs may be either a raw ``CompressedArray`` payload or any
    registered codec's self-describing envelope
    (:func:`repro.codecs.from_bytes`).
    """
    if isinstance(compressed, (bytes, bytearray)):
        blob = bytes(compressed)
        if blob[:4] == codecs.MAGIC:
            compressed = codecs.from_bytes(blob)
        else:
            compressed = CompressedArray.from_payload(blob)
    return np.asarray(compressed.decode_all())
