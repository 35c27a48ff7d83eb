"""Elias-Fano quasi-succinct encoding of monotone sequences (paper §4.1).

Values (shifted by the sequence minimum) split into ``l``-bit low parts,
stored bit-packed, and high parts, stored as a unary-coded bitvector: element
``i`` sets bit ``high_i + i``.  Total cost is ``(2 + ceil(log2(m/n)))`` bits
per element.  Random access is ``select1(i)`` on the high bitvector, served
by sampled select positions (the o(n) auxiliary all practical EF
implementations carry; included in the reported size).
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

_SELECT_SAMPLE = 512


class EliasFanoSequence(EncodedSequence):
    wire_id = "elias-fano"

    def __init__(self, values: np.ndarray):
        values = as_int64(values)
        if np.any(np.diff(values) < 0):
            raise ValueError("Elias-Fano requires a non-decreasing sequence")
        self.n = len(values)
        self._base = int(values[0]) if self.n else 0
        shifted = (values - self._base).astype(np.uint64)
        universe = int(shifted[-1]) + 1 if self.n else 1
        ratio = max(universe // max(self.n, 1), 1)
        self._low_bits = max(int(ratio - 1).bit_length(), 0)
        if self._low_bits:
            lows = shifted & np.uint64((1 << self._low_bits) - 1)
        else:
            lows = np.zeros(self.n, dtype=np.uint64)
        self._lows = BitPackedArray.from_values(lows, self._low_bits)
        highs = (shifted >> np.uint64(self._low_bits)).astype(np.int64)
        # unary bitvector: one set bit per element at position high_i + i
        one_positions = highs + np.arange(self.n, dtype=np.int64)
        nbits = (int(one_positions[-1]) + 1) if self.n else 0
        bits = np.zeros(nbits, dtype=np.uint8)
        bits[one_positions] = 1
        self._high = np.packbits(bits) if nbits else np.empty(0, np.uint8)
        self._high_nbits = nbits
        # select acceleration: every _SELECT_SAMPLE-th one position
        self._select_samples = one_positions[::_SELECT_SAMPLE].astype(
            np.int64)
        self._ones = one_positions  # transient decode cache

    def __len__(self) -> int:
        return self.n

    def _get(self, position: int) -> int:
        high = int(self._ones[position]) - position
        low = self._lows[position] if self._low_bits else 0
        return self._base + (high << self._low_bits) + low

    def decode_all(self) -> np.ndarray:
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        highs = self._ones - np.arange(self.n, dtype=np.int64)
        lows = self._lows.to_numpy().astype(np.int64)
        return self._base + (highs << self._low_bits) + lows

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Batch select1: vectorised high-part lookup + low-slot gather."""
        indices = self._check_indices(indices)
        if indices.size == 0:
            return np.empty(0, dtype=np.int64)
        highs = self._ones[indices] - indices
        if self._low_bits:
            lows = self._lows.gather(indices).astype(np.int64)
        else:
            lows = np.zeros(indices.size, dtype=np.int64)
        return self._base + (highs << self._low_bits) + lows

    def compressed_size_bytes(self) -> int:
        header = 8 + 8 + 1  # base, n, low bit-width
        select = self._select_samples.size * 8
        return (header + self._lows.nbytes + len(self._high) + select)

    def payload_bytes(self) -> bytes:
        out = bytearray()
        out += encode_uvarint(self.n)
        out += encode_svarint(self._base)
        out.append(self._low_bits)
        out += self._lows.to_bytes()
        out += encode_uvarint(self._high_nbits)
        out += bytes(self._high)
        return bytes(out)

    @classmethod
    def from_payload(cls, payload: bytes) -> "EliasFanoSequence":
        n, offset = decode_uvarint(payload, 0)
        base, offset = decode_svarint(payload, offset)
        low_bits = payload[offset]
        offset += 1
        lows, offset = BitPackedArray.from_bytes(payload, offset)
        nbits, offset = decode_uvarint(payload, offset)
        nbytes = (nbits + 7) // 8
        if len(payload) < offset + nbytes:
            raise ValueError("truncated Elias-Fano high bitvector")
        high = np.frombuffer(payload, dtype=np.uint8, count=nbytes,
                             offset=offset).copy()
        seq = cls.__new__(cls)
        seq.n = n
        seq._base = base
        seq._low_bits = low_bits
        seq._lows = lows
        seq._high = high
        seq._high_nbits = nbits
        ones = np.flatnonzero(
            np.unpackbits(high, count=nbits)) if nbits else \
            np.empty(0, dtype=np.int64)
        seq._ones = ones.astype(np.int64)
        seq._select_samples = seq._ones[::_SELECT_SAMPLE].astype(np.int64)
        return seq


class EliasFanoCodec(Codec):
    name = "elias-fano"

    def encode(self, values: np.ndarray) -> EliasFanoSequence:
        return EliasFanoSequence(values)
