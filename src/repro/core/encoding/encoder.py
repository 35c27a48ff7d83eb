"""The LeCo Encoder: model fitting + residual packing (paper §3.3).

The Encoder receives the partition plan and the original sequence, fits one
model per partition, computes integer residuals against the floored
predictions, and bit-packs them with bias encoding.  Linear partitions also
get their serial-decoding correction list (§3.3 optimisation) built here.
"""

from __future__ import annotations

import numpy as np

from repro.bitio import BitPackedArray
from repro.core.encoding.format import (
    CompressedArray,
    Partition,
    accumulate_predictions,
)
from repro.core.regressors import (
    ConstantRegressor,
    FittedModel,
    Regressor,
    floor_to_int64,
    get_regressor,
)

#: residuals larger than this trigger the constant-model fallback guard
_RESIDUAL_GUARD = 2.0 ** 62


def _safe_residuals(values: np.ndarray, model: FittedModel
                    ) -> np.ndarray | None:
    """Residuals, or ``None`` when the model mispredicts catastrophically."""
    positions = np.arange(len(values))
    pred_f = model.predict_float(positions)
    if not np.all(np.isfinite(pred_f)):
        return None
    if np.abs(values.astype(np.float64) - pred_f).max(initial=0.0) \
            > _RESIDUAL_GUARD:
        return None
    return values - floor_to_int64(pred_f)


def _linear_corrections(params: np.ndarray, length: int
                        ) -> list[tuple[int, int]]:
    """Positions where slope accumulation floors differently (§3.3)."""
    if length == 0:
        return []
    theta0, theta1 = float(params[0]), float(params[1])
    direct = np.floor(theta0 + theta1 * np.arange(length, dtype=np.float64))
    accum = np.floor(accumulate_predictions(theta0, theta1, length))
    mismatch = np.flatnonzero(direct != accum)
    return [(int(i), int(direct[i] - accum[i])) for i in mismatch]


def encode_partition(values: np.ndarray, start: int,
                     regressor: Regressor,
                     build_corrections: bool = True) -> Partition:
    """Fit and encode one partition (``values`` is the partition slice)."""
    values = np.asarray(values, dtype=np.int64)
    model = regressor.fit(values)
    residuals = _safe_residuals(values, model)
    name = regressor.name
    if residuals is None:
        fallback = ConstantRegressor()
        model = fallback.fit(values)
        residuals = _safe_residuals(values, model)
        name = fallback.name
    if residuals.size:
        bias = int(residuals.min())
        packed = BitPackedArray.from_values(
            (residuals - bias).astype(np.uint64))
    else:
        bias = 0
        packed = BitPackedArray.from_values(np.empty(0, dtype=np.uint64))
    corrections = None
    serial_ok = False
    if build_corrections and name == "linear":
        corrections = _linear_corrections(model.params, len(values))
        # only keep the serial path when the correction list is sparse;
        # at large magnitudes float accumulation drifts at almost every
        # position and the list would dwarf the delta array
        serial_ok = len(corrections) <= max(len(values) // 16, 4)
        if not serial_ok:
            corrections = None
    return Partition(start, len(values), name, model.params, bias, packed,
                     corrections, serial_ok)


class LecoEncoder:
    """High-level compression entry point.

    Parameters
    ----------
    regressor:
        A :class:`Regressor` instance or registered name (``"linear"``,
        ``"poly2"``, ...), or ``"auto"``: partition with the linear cost
        model, then let the Regressor Selector recommend a family per
        partition (§3.1).
    partitioner:
        A :class:`Partitioner`, or one of the convenience specs:
        ``"fixed"`` (sampling-based size search, §3.2.1), ``"variable"``
        (split–merge greedy, §3.2.2), ``"auto"`` (hardness-based advice
        picks one of the two per input, §3.2.3), or an ``int`` fixed
        partition size.
    tau:
        Split aggressiveness for ``"variable"`` (paper sweeps [0, 0.15]).
    build_corrections:
        Whether to build the §3.3 serial-decode correction lists.
    selector:
        The Regressor Selector ``regressor="auto"`` consults; ``None``
        means the shared lazily-built default.
    """

    def __init__(self, regressor: Regressor | str = "linear",
                 partitioner="fixed", tau: float = 0.05,
                 max_partition_size: int = 10_000,
                 build_corrections: bool = True, selector=None):
        from repro.core.partitioners import (
            AutoFixedPartitioner,
            FixedLengthPartitioner,
            Partitioner,
            SplitMergePartitioner,
        )

        #: ``regressor="auto"``: the linear model plans the partitions,
        #: the selector then picks each partition's family
        self.selecting = regressor == "auto"
        if isinstance(regressor, str):
            regressor = get_regressor(
                "linear" if self.selecting else regressor)
        self.regressor = regressor
        self.selector = selector
        #: the two plans ``partitioner="auto"`` is advised between
        self._advised = {
            False: AutoFixedPartitioner(max_size=max_partition_size),
            True: SplitMergePartitioner(tau=tau),
        }
        if isinstance(partitioner, Partitioner) or partitioner == "auto":
            self.partitioner = partitioner
        elif partitioner == "fixed":
            self.partitioner = self._advised[False]
        elif partitioner == "variable":
            self.partitioner = self._advised[True]
        elif isinstance(partitioner, int):
            self.partitioner = FixedLengthPartitioner(partitioner)
        else:
            raise ValueError(f"unknown partitioner spec {partitioner!r}")
        self.build_corrections = build_corrections

    def encode(self, values: np.ndarray) -> CompressedArray:
        """Compress ``values`` (any integer array) losslessly."""
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            raise TypeError(f"integer input required, got {values.dtype}")
        values = values.astype(np.int64)
        partitioner = self.partitioner
        if partitioner == "auto":
            from repro.core.partitioners import advise_partitioning

            partitioner = self._advised[
                advise_partitioning(values).recommend_variable]
        selector = None
        if self.selecting:
            from repro.codecs.spec import default_selector

            selector = self.selector if self.selector is not None \
                else default_selector()
        bounds = partitioner.partition(values, self.regressor)
        partitions = []
        for a, b in bounds:
            regressor = self.regressor
            if selector is not None:
                regressor = selector.recommend(values[a:b])
                if b - a < regressor.min_partition_size:
                    regressor = get_regressor("constant")
            partitions.append(encode_partition(
                values[a:b], a, regressor, self.build_corrections))
        fixed_size = None
        if partitioner.fixed_length and bounds:
            fixed_size = bounds[0][1] - bounds[0][0]
        return CompressedArray(len(values), partitions, fixed_size,
                               self.regressor.name)
