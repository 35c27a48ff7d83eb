"""LeCo variants exposed through the common codec interface.

``LecoCodec`` wraps :class:`repro.core.encoding.LecoEncoder`, and because
FOR and Delta are special cases of the framework (paper §2), ``FORCodec`` is
literally LeCo with the constant regressor.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, EncodedSequence, as_int64
from repro.core.encoding import CompressedArray, LecoEncoder
from repro.core.regressors import ConstantRegressor, Regressor


class LecoEncodedSequence(EncodedSequence):
    """Adapter giving :class:`CompressedArray` the codec surface."""

    wire_id = "leco"

    def __init__(self, array: CompressedArray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def get(self, position: int) -> int:
        return self.array.get(position)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Batch random access via partition-grouped slot gathers."""
        return self.array.take(self._check_indices(indices))

    def decode_all(self) -> np.ndarray:
        return self.array.decode_all()

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Partition-pruned range decode (only covering partitions)."""
        return self.array.decode_range(lo, hi)

    def filter_range(self, lo: int, hi: int) -> np.ndarray:
        """Range predicate with model-based partition pruning (§5.1.1).

        Partitions whose model + residual-width band cannot intersect
        ``[lo, hi)`` are skipped without touching their delta arrays.
        """
        array = self.array
        if not array.partitions:
            return np.zeros(len(self), dtype=bool)
        bitmap = np.zeros(len(self), dtype=bool)
        bounds = array.partition_value_bounds()
        for j, part in enumerate(array.partitions):
            if bounds[j, 1] < lo or bounds[j, 0] >= hi:
                continue  # pruned: cannot contain matches
            decoded = part.decode_slice(0, part.length)
            bitmap[part.start: part.end] = (decoded >= lo) & (decoded < hi)
        return bitmap

    def model_bounds(self) -> tuple[int, int] | None:
        """Sequence-wide value bounds from the per-partition model bands.

        Aggregates :meth:`CompressedArray.partition_value_bounds` — no
        delta array is touched, so the store's zone maps come for free.
        Conservative: never excludes a stored value, may be loose (the
        residual-width band, and non-monotone regressors widen to a
        near-int64 sentinel range).
        """
        if not self.array.partitions or len(self) == 0:
            return None
        bounds = self.array.partition_value_bounds()
        return int(bounds[:, 0].min()), int(bounds[:, 1].max())

    def compressed_size_bytes(self) -> int:
        return self.array.compressed_size_bytes()

    def model_size_bytes(self) -> int:
        return self.array.model_size_bytes()

    def payload_bytes(self) -> bytes:
        return self.array.to_bytes()

    @classmethod
    def from_payload(cls, payload: bytes) -> "LecoEncodedSequence":
        return cls(CompressedArray.from_bytes(payload))


class LecoCodec(Codec):
    """LeCo with a configurable regressor and partitioner."""

    supports_range_pruning = True

    def __init__(self, regressor: Regressor | str = "linear",
                 partitioner="fixed", tau: float = 0.05,
                 max_partition_size: int = 10_000,
                 name: str | None = None, selector=None):
        self._encoder = LecoEncoder(regressor=regressor,
                                    partitioner=partitioner, tau=tau,
                                    max_partition_size=max_partition_size,
                                    selector=selector)
        if name is not None:
            self.name = name
        else:
            suffix = "var" if partitioner == "variable" else "fix"
            self.name = f"leco-{suffix}"

    def encode(self, values: np.ndarray) -> LecoEncodedSequence:
        return LecoEncodedSequence(self._encoder.encode(as_int64(values)))


class FORCodec(LecoCodec):
    """Frame-of-Reference: the constant-model special case of LeCo.

    Each frame stores its reference (the residual bias, i.e. the frame
    minimum up to centering) and bit-packs offsets — exactly the paper's
    description of FOR as a horizontal-line regressor (§2).
    """

    def __init__(self, frame_size: int | None = None,
                 max_partition_size: int = 10_000):
        partitioner = frame_size if frame_size is not None else "fixed"
        super().__init__(regressor=ConstantRegressor(),
                         partitioner=partitioner,
                         max_partition_size=max_partition_size,
                         name="for")
