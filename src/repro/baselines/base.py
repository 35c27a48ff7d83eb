"""Common codec interface shared by LeCo and every baseline.

The microbenchmarks (paper §4) measure four things per scheme: compression
ratio, random-access latency, full-decompression throughput, and compression
throughput.  Every scheme therefore exposes the same surface, and the
contract is vectorised end to end:

* ``Codec.encode(values) -> EncodedSequence``
* ``EncodedSequence.gather(indices)`` — batch random access
* ``EncodedSequence.decode_range(lo, hi)`` — contiguous range decode
* ``EncodedSequence.decode_all()`` — full decompression
* ``EncodedSequence.size_bytes()`` — serialised size
* ``EncodedSequence.to_bytes()`` / ``repro.codecs.from_bytes`` —
  self-describing serialisation envelope

Scalar ``get`` normalises its position exactly as :meth:`gather` does and
reads it through :meth:`_get` — a one-element gather unless the subclass
has a cheaper point-read path (one model inference + one slot read); no
consumer may loop it over more than O(1) positions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


def normalize_indices(indices, n: int) -> np.ndarray:
    """Index contract of ``gather`` and scalar ``get``: int64, negatives
    wrap once, bounds checked."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        # only out-of-range input pays for the wrap and the second check
        indices = np.where(indices < 0, indices + n, indices)
        if (indices < 0).any() or (indices >= n).any():
            raise IndexError(f"gather index out of range [0, {n})")
    return indices


class SelfDescribing:
    """Envelope serialisation shared by integer and string sequences."""

    #: envelope codec id this sequence serialises under (None = no wire
    #: format; ``to_bytes`` raises NotImplementedError)
    wire_id: str | None = None

    def payload_bytes(self) -> bytes:
        """Codec-specific serialised image (no envelope)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define a wire format")

    @classmethod
    def from_payload(cls, payload: bytes) -> "SelfDescribing":
        """Inverse of :meth:`payload_bytes`."""
        raise NotImplementedError(
            f"{cls.__name__} does not define a wire format")

    def to_bytes(self) -> bytes:
        """Self-describing image: envelope (magic + codec id) + payload.

        Round-trips through :func:`repro.codecs.from_bytes` without the
        caller knowing the scheme.
        """
        if self.wire_id is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no wire_id")
        from repro.codecs import envelope

        return envelope.pack(self.wire_id, self.payload_bytes())


class EncodedSequence(SelfDescribing, ABC):
    """A losslessly encoded integer sequence."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def decode_all(self) -> np.ndarray:
        """Decode the entire sequence as int64."""

    @abstractmethod
    def compressed_size_bytes(self) -> int:
        """Serialised size in bytes (legacy name; see :meth:`size_bytes`)."""

    # ------------------------------------------------------ random access
    def _check_indices(self, indices) -> np.ndarray:
        """Normalise ``indices`` to in-range int64 (negatives wrap once)."""
        return normalize_indices(indices, len(self))

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Batch random access: ``gather(idx)[k] == self[idx[k]]``.

        The base implementation materialises a full decode and indexes it —
        correct for every codec, and the honest cost model for strictly
        sequential schemes.  Formats with real random access override this
        with one vectorised model inference + slot gather.
        """
        indices = self._check_indices(indices)
        if indices.size == 0:
            return np.empty(0, dtype=np.int64)
        return self.decode_all()[indices]

    def get(self, position: int) -> int:
        """Random access to one decoded value (negatives wrap once)."""
        return self._get(int(normalize_indices(position, len(self))))

    def _get(self, position: int) -> int:
        """Point read of an in-range position (default: one-element gather)."""
        return int(self.gather(np.array([position], dtype=np.int64))[0])

    def __getitem__(self, position: int) -> int:
        return self.get(position)

    # ------------------------------------------------------ range access
    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Decode positions ``[lo, hi)``.

        Contract: the base implementation **falls back to a full decode**
        and slices it — always correct, never better than O(n).  Formats
        whose layout allows it (partitioned schemes like LeCo and Delta)
        override this to decode only the partitions covering the range.
        """
        n = len(self)
        if not 0 <= lo <= hi <= n:
            raise IndexError(f"bad range [{lo}, {hi}) for n={n}")
        return self.decode_all()[lo:hi]

    def filter_range(self, lo: int, hi: int) -> np.ndarray:
        """Boolean bitmap of positions with ``lo <= value < hi``.

        Base contract: materialise and compare.  The LeCo family
        overrides this to skip whole partitions via model-derived value
        bounds (§5.1.1).
        """
        values = self.decode_all()
        return (values >= lo) & (values < hi)

    # ------------------------------------------------------------- bounds
    def model_bounds(self) -> tuple[int, int] | None:
        """Conservative ``(lo, hi)`` value bounds without decoding, or None.

        Contract: when not ``None``, every encoded value satisfies
        ``lo <= v <= hi`` — the bounds may be loose but never exclude a
        stored value (consumers use them to prune, e.g. the store's zone
        maps).  The base returns ``None`` (no cheap bound); the LeCo format
        derives bounds from the model band + residual width.
        """
        return None

    # ------------------------------------------------------------- sizing
    def size_bytes(self) -> int:
        """Serialised payload size in bytes (protocol name)."""
        return self.compressed_size_bytes()


class Codec(ABC):
    """Factory producing :class:`EncodedSequence` objects."""

    name: str = "abstract"
    #: True when :meth:`EncodedSequence.get` requires sequential decoding
    sequential_access: bool = False

    @abstractmethod
    def encode(self, values: np.ndarray) -> EncodedSequence: ...

    def encode_many(self, chunks) -> list[EncodedSequence]:
        """Encode every chunk into its own sequence: ``encode_many(chunks)[i]``
        is byte for byte ``encode(chunks[i])``.  The default loops
        :meth:`encode`; a codec that can share work across chunks (LeCo
        stacks their partitions into one matrix) overrides it."""
        return [self.encode(values) for values in chunks]


def as_int64(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise TypeError(f"integer input required, got {values.dtype}")
    return values.astype(np.int64)
