"""Plain and dictionary codecs behind the common sequence protocol.

These are Parquet's default encodings (§5.1).  As registered codecs they
serve every consumer — store columns, benchmarks, the conformance suite —
through the same vectorised surface as LeCo and the baselines.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, EncodedSequence, as_int64
from repro.bitio import BitPackedArray, decode_uvarint, encode_uvarint

#: Parquet's Default rule: a column whose distinct-value share exceeds
#: this is written plain, since its dictionary cannot pay for itself
DICT_MAX_FRACTION = 0.5


def natural_width(values: np.ndarray) -> int:
    """Bytes per value of the uncompressed image (4 for int32 ranges)."""
    if values.size == 0:
        return 4
    lo, hi = int(values.min()), int(values.max())
    return 4 if lo >= -(1 << 31) and hi < (1 << 31) else 8


class PlainSequence(EncodedSequence):
    """Uncompressed int64 column at its natural width."""

    wire_id = "plain"

    def __init__(self, values: np.ndarray):
        self._values = as_int64(values)

    def __len__(self) -> int:
        return len(self._values)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        return self._values[self._check_indices(indices)]

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        if not 0 <= lo <= hi <= len(self._values):
            raise IndexError(
                f"bad range [{lo}, {hi}) for n={len(self._values)}")
        return self._values[lo:hi]

    def decode_all(self) -> np.ndarray:
        return self._values

    def compressed_size_bytes(self) -> int:
        return len(self._values) * natural_width(self._values)

    def payload_bytes(self) -> bytes:
        return self._values.tobytes()

    @classmethod
    def from_payload(cls, payload: bytes) -> "PlainSequence":
        return cls(np.frombuffer(payload, dtype=np.int64).copy())


class PlainCodec(Codec):
    name = "plain"

    def encode(self, values: np.ndarray) -> PlainSequence:
        return PlainSequence(values)


class DictEncodedSequence(EncodedSequence):
    """Sorted dictionary + bit-packed codes (Parquet's default)."""

    wire_id = "dict"

    def __init__(self, uniques: np.ndarray, codes: BitPackedArray):
        self._uniques = as_int64(uniques)
        self._codes = codes

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def cardinality(self) -> int:
        return len(self._uniques)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        codes = self._codes.gather(self._check_indices(indices))
        return self._uniques[codes.astype(np.int64)]

    def decode_all(self) -> np.ndarray:
        return self._uniques[self._codes.to_numpy().astype(np.int64)]

    def compressed_size_bytes(self) -> int:
        return self._codes.nbytes + len(self._uniques) * 8 + 16

    def payload_bytes(self) -> bytes:
        return (encode_uvarint(len(self._uniques))
                + self._uniques.tobytes()
                + self._codes.to_bytes())

    @classmethod
    def from_payload(cls, payload: bytes) -> "DictEncodedSequence":
        n_unique, offset = decode_uvarint(payload, 0)
        uniques = np.frombuffer(payload, dtype=np.int64, count=n_unique,
                                offset=offset).copy()
        codes, _ = BitPackedArray.from_bytes(payload, offset + 8 * n_unique)
        return cls(uniques, codes)


class DictCodec(Codec):
    """Dictionary encoding: sorted uniques plus bit-packed codes."""

    name = "dict"

    def encode(self, values: np.ndarray) -> EncodedSequence:
        values = as_int64(values)
        uniques, codes = np.unique(values, return_inverse=True)
        packed = BitPackedArray.from_values(codes.astype(np.uint64))
        return DictEncodedSequence(uniques, packed)
