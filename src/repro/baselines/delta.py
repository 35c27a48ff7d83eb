"""Delta encoding with fixed- and variable-length partitions (paper §2, §4).

Each partition stores its first value explicitly (the "model") and the
bias-encoded differences between neighbours.  Random access must rebuild the
prefix sum up to the requested position — the sequential-decode cost the
paper measures as an order of magnitude slower than FOR/LeCo.

``Delta-var`` is the paper's improved variant: the same split–merge
partitioner as LeCo, driven by a cost adapter whose ``Δ`` is the bit-width
of the difference span (the incremental formula of §3.2.2).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, EncodedSequence, as_int64
from repro.bitio import (
    BitPackedArray,
    decode_svarint,
    decode_uvarint,
    encode_svarint,
    encode_uvarint,
)
from repro.core.partitioners import resolve_partitioner
from repro.core.regressors.base import Regressor


class DeltaCostAdapter(Regressor):
    """Cost-model adapter letting Delta reuse LeCo's partitioners.

    The "model" is one stored value (8 bytes); ``Δ`` is the width of the
    first-difference span, maintained incrementally during the split phase.
    """

    name = "delta-cost"
    min_partition_size = 2
    param_count = 1
    fast_delta_order = 1

    def fit_many(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[1] == 0:
            return np.zeros((len(rows), 1))
        return rows[:, :1].astype(np.float64)

    def predict_many(self, params: np.ndarray, length: int) -> np.ndarray:
        return np.repeat(params[:, :1], length, axis=1)

    #: the stored width *is* the first-difference span
    delta_bits_many = Regressor.fast_delta_bits_many


class _DeltaPartition:
    __slots__ = ("start", "length", "first", "bias", "packed")

    def __init__(self, start: int, values: np.ndarray):
        self.start = start
        self.length = len(values)
        self.first = int(values[0])
        diffs = np.diff(values)
        if diffs.size:
            self.bias = int(diffs.min())
            self.packed = BitPackedArray.from_values(
                (diffs - self.bias).astype(np.uint64))
        else:
            self.bias = 0
            self.packed = BitPackedArray.from_values(
                np.empty(0, dtype=np.uint64))

    def decode(self) -> np.ndarray:
        out = np.empty(self.length, dtype=np.int64)
        out[0] = self.first
        if self.length > 1:
            diffs = self.packed.to_numpy().astype(np.int64) + self.bias
            out[1:] = self.first + np.cumsum(diffs)
        return out

    def decode_prefix(self, local: int) -> int:
        """Prefix-sum decode up to local position (the slow RA path).

        Still O(position) work — Delta has no random access — but the
        prefix's slots come from one vectorised read instead of a scalar
        ``read_slot`` loop.
        """
        if local == 0:
            return self.first
        slots = self.packed.slice(0, local)
        # exact (unbounded) slot sum: uint64 slots can reach 2**64 - 1, so
        # sum the halves separately to avoid both int64 wrap and float paths
        total = (int((slots >> np.uint64(32)).sum(dtype=np.uint64)) << 32) \
            + int((slots & np.uint64(0xFFFFFFFF)).sum(dtype=np.uint64))
        return self.first + local * self.bias + total

    def size_bytes(self) -> int:
        # first value (8) + bias (8) + width byte + payload
        return 8 + 8 + 1 + self.packed.nbytes

    @classmethod
    def from_parts(cls, start: int, length: int, first: int, bias: int,
                   packed: BitPackedArray) -> "_DeltaPartition":
        part = cls.__new__(cls)
        part.start = start
        part.length = length
        part.first = first
        part.bias = bias
        part.packed = packed
        return part


class DeltaEncodedSequence(EncodedSequence):
    wire_id = "delta"

    def __init__(self, n: int, partitions: list[_DeltaPartition]):
        self.n = n
        self.partitions = partitions
        self._starts = np.array([p.start for p in partitions],
                                dtype=np.int64)

    def __len__(self) -> int:
        return self.n

    def _get(self, position: int) -> int:
        idx = int(np.searchsorted(self._starts, position, side="right")) - 1
        part = self.partitions[idx]
        return part.decode_prefix(position - part.start)

    def gather(self, positions: np.ndarray) -> np.ndarray:
        """Batch access: decode each covering partition once, then index.

        Delta has no true random access, but batching amortises the
        sequential prefix work — every touched partition is decoded with
        one vectorised cumsum instead of a prefix walk per position.
        """
        positions = self._check_indices(positions)
        out = np.empty(len(positions), dtype=np.int64)
        part_ids = np.searchsorted(self._starts, positions,
                                   side="right") - 1
        for pid in np.unique(part_ids):
            part = self.partitions[int(pid)]
            decoded = part.decode()
            mask = part_ids == pid
            out[mask] = decoded[positions[mask] - part.start]
        return out

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Range decode touching only the partitions covering ``[lo, hi)``."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"bad range [{lo}, {hi}) for n={self.n}")
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        idx = int(np.searchsorted(self._starts, lo, side="right")) - 1
        chunks = []
        pos = lo
        while pos < hi:
            part = self.partitions[idx]
            decoded = part.decode()
            end = min(hi, part.start + part.length)
            chunks.append(decoded[pos - part.start: end - part.start])
            pos = part.start + part.length
            idx += 1
        return np.concatenate(chunks)

    def decode_all(self) -> np.ndarray:
        if not self.partitions:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([p.decode() for p in self.partitions])

    def compressed_size_bytes(self) -> int:
        meta = 8 * len(self.partitions)  # start offsets
        return meta + sum(p.size_bytes() for p in self.partitions)

    def payload_bytes(self) -> bytes:
        out = bytearray()
        out += encode_uvarint(self.n)
        out += encode_uvarint(len(self.partitions))
        for part in self.partitions:
            out += encode_uvarint(part.start)
            out += encode_svarint(part.first)
            out += encode_svarint(part.bias)
            out += part.packed.to_bytes()
        return bytes(out)

    @classmethod
    def from_payload(cls, payload: bytes) -> "DeltaEncodedSequence":
        n, offset = decode_uvarint(payload, 0)
        m, offset = decode_uvarint(payload, offset)
        parts: list[_DeltaPartition] = []
        for _ in range(m):
            start, offset = decode_uvarint(payload, offset)
            first, offset = decode_svarint(payload, offset)
            bias, offset = decode_svarint(payload, offset)
            packed, offset = BitPackedArray.from_bytes(payload, offset)
            # a partition of L values stores L-1 diffs
            parts.append(_DeltaPartition.from_parts(
                start, len(packed) + 1, first, bias, packed))
        return cls(n, parts)


class DeltaCodec(Codec):
    """Delta encoding under any partition plan (``partitioner=`` as read by
    :func:`repro.core.partitioners.resolve_partitioner`)."""

    sequential_access = True

    def __init__(self, partitioner="fixed", tau: float = 0.05,
                 max_partition_size: int = 10_000):
        self.name = "delta-var" if partitioner == "variable" else "delta-fix"
        self._cost = DeltaCostAdapter()
        self._partitioner = resolve_partitioner(partitioner, tau,
                                                max_partition_size)

    def encode(self, values: np.ndarray) -> DeltaEncodedSequence:
        values = as_int64(values)
        if len(values) == 0:
            return DeltaEncodedSequence(0, [])
        bounds = self._partitioner.partition(values, self._cost)
        parts = [_DeltaPartition(a, values[a:b]) for a, b in bounds]
        return DeltaEncodedSequence(len(values), parts)
