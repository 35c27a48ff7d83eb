"""Run-Length Encoding: the "identical frame" special case of FOR (paper §2).

Stores (value, run length) pairs; random access binary-searches the
cumulative run starts.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, EncodedSequence, as_int64
from repro.bitio import (
    BitPackedArray,
    decode_uvarint,
    encode_uvarint,
    zigzag_decode,
    zigzag_encode,
)


class RLEEncodedSequence(EncodedSequence):
    wire_id = "rle"

    def __init__(self, n: int, run_values: np.ndarray,
                 run_starts: np.ndarray):
        self.n = n
        self._values = run_values
        self._starts = run_starts
        self._packed_values = BitPackedArray.from_values(
            zigzag_encode(run_values))
        self._packed_starts = BitPackedArray.from_values(
            run_starts.astype(np.uint64))

    def __len__(self) -> int:
        return self.n

    def _get(self, position: int) -> int:
        idx = int(np.searchsorted(self._starts, position, side="right")) - 1
        return int(self._values[idx])

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Batch access: one vectorised run binary-search per call."""
        indices = self._check_indices(indices)
        if indices.size == 0:
            return np.empty(0, dtype=np.int64)
        runs = np.searchsorted(self._starts, indices, side="right") - 1
        return self._values[runs].astype(np.int64)

    def decode_all(self) -> np.ndarray:
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        lengths = np.diff(np.append(self._starts, self.n))
        return np.repeat(self._values, lengths)

    def compressed_size_bytes(self) -> int:
        return self._packed_values.nbytes + self._packed_starts.nbytes + 18

    def payload_bytes(self) -> bytes:
        return (encode_uvarint(self.n)
                + self._packed_values.to_bytes()
                + self._packed_starts.to_bytes())

    @classmethod
    def from_payload(cls, payload: bytes) -> "RLEEncodedSequence":
        n, offset = decode_uvarint(payload, 0)
        packed_values, offset = BitPackedArray.from_bytes(payload, offset)
        packed_starts, offset = BitPackedArray.from_bytes(payload, offset)
        values = zigzag_decode(packed_values.to_numpy()).astype(np.int64)
        starts = packed_starts.to_numpy().astype(np.int64)
        return cls(n, values, starts)


class RLECodec(Codec):
    name = "rle"

    def encode(self, values: np.ndarray) -> RLEEncodedSequence:
        values = as_int64(values)
        if len(values) == 0:
            return RLEEncodedSequence(0, np.empty(0, dtype=np.int64),
                                      np.empty(0, dtype=np.int64))
        change = np.flatnonzero(np.diff(values)) + 1
        starts = np.concatenate([[0], change]).astype(np.int64)
        return RLEEncodedSequence(len(values), values[starts], starts)
