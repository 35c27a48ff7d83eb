"""Encoded columnar arrays — the engine's Arrow-array stand-in (§5.1).

An :class:`EncodedColumn` stores one column under one of the paper's
encodings and serves the three access patterns the execution engine needs:

* ``filter_range`` — predicate evaluation producing a position bitmap, with
  LeCo's model-based partition pruning;
* ``take`` — late-materialized batch random access driven by a bitmap;
* ``decode_all`` — full scan.

The column is a thin consumer of the codec registry: the encoding name is
resolved through :func:`repro.codecs.get` and every access dispatches
through the vectorised :class:`~repro.baselines.base.EncodedSequence`
protocol — no per-encoding branches.  ``dict`` keeps Parquet's behaviour
of falling back to ``plain`` at high cardinality; the column records both
``requested_encoding`` and ``effective_encoding`` so callers and
benchmarks can tell what actually ran.
"""

from __future__ import annotations

import numpy as np

from repro import codecs

ENCODINGS = ("plain", "dict", "for", "delta", "leco")
#: registry keywords beyond the partition plan (Parquet's dict falls back
#: to plain at high cardinality)
_OPTIONS = {"dict": {"plain_fallback": True}}


class EncodedColumn:
    """One column under one registry-built encoding."""

    def __init__(self, values: np.ndarray, encoding: str,
                 partition_size: int = 10_000):
        values = np.asarray(values, dtype=np.int64)
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown encoding {encoding!r}")
        self.requested_encoding = encoding
        self.n = len(values)
        info = codecs.info(encoding)
        kwargs = dict(_OPTIONS.get(encoding, {}))
        if info.partitioned:
            kwargs["partitioner"] = partition_size
        self._seq = codecs.get(encoding, **kwargs).encode(values)
        # the effective encoding is what the sequence actually is (a dict
        # column beyond the cardinality threshold is a plain one)
        self.effective_encoding = encoding \
            if self._seq.wire_id == info.wire_id else self._seq.wire_id

    @property
    def encoding(self) -> str:
        """The encoding that actually ran (``effective_encoding``)."""
        return self.effective_encoding

    @property
    def sequence(self):
        """The underlying :class:`EncodedSequence` (protocol surface)."""
        return self._seq

    # ---------------------------------------------------------------- size
    def size_bytes(self) -> int:
        return self._seq.size_bytes()

    def payload_bytes(self) -> bytes:
        """Serialised image (used for block compression and I/O charging).

        The self-describing envelope: any column chunk can be revived with
        :func:`repro.codecs.from_bytes` without knowing its encoding.
        """
        return self._seq.to_bytes()

    # -------------------------------------------------------------- access
    def decode_all(self) -> np.ndarray:
        return self._seq.decode_all()

    def take(self, positions: np.ndarray) -> np.ndarray:
        """Decode selected positions (bitmap-driven late materialization)."""
        return self._seq.gather(np.asarray(positions, dtype=np.int64))

    def gather(self, positions: np.ndarray) -> np.ndarray:
        """Protocol alias of :meth:`take` (the exec layer's spelling)."""
        return self.take(positions)

    def filter_range(self, lo: int, hi: int) -> np.ndarray:
        """Positions with ``lo <= v < hi`` as a boolean bitmap.

        LeCo-family sequences prune whole partitions whose model+width
        band misses the range (§5.1.1); other encodings materialise and
        compare — both behind the sequence protocol's ``filter_range``.
        """
        return self._seq.filter_range(lo, hi)
