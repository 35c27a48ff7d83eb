"""The LeCo Encoder: model fitting + residual packing (paper §3.3).

The Encoder receives the partition plan and the original sequence, fits one
model per partition, computes integer residuals against the floored
predictions, and bit-packs them with bias encoding.  Linear partitions also
get their serial-decoding correction list (§3.3 optimisation) built here.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, as_int64
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
    if residuals is None:
        return _encode_wide(values, start)
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


def _encode_wide(values: np.ndarray, start: int) -> Partition:
    """A partition spanning more than 2**63 (64-bit hashes): no model keeps
    its residuals inside int64, so store ``v - floor`` as uint64 slots.

    ``floor`` is the largest float64 at or below the minimum (integral, and
    inside int64, so the decoder's prediction is exactly it); a span below
    2**64 keeps every slot in range, and int64 decode arithmetic wraps back
    to the value.
    """
    lowest = int(values.min())
    floor = np.float64(lowest)
    if int(floor) > lowest:
        floor = np.nextafter(floor, -np.inf)
    slots = values.astype(np.uint64) - np.uint64(int(floor) % (1 << 64))
    return Partition(start, len(values), "constant", [floor], 0,
                     BitPackedArray.from_values(slots))


class LecoEncoder(Codec):
    """The LeCo codec: a partitioner plus a regressor (paper §2–§3).

    ``codecs.get("leco" | "leco-fix" | "leco-var" | "leco-auto" | "for")``
    all return one of these; FOR is the constant-regressor special case.

    Parameters
    ----------
    regressor:
        A :class:`Regressor` instance or registered name (``"linear"``,
        ``"poly2"``, ...), or ``"auto"``: partition with the linear cost
        model, then let the Regressor Selector recommend a family per
        partition (§3.1).
    partitioner:
        The partition plan, as read by
        :func:`repro.core.partitioners.resolve_partitioner`: ``"fixed"``,
        ``"variable"``, ``"auto"``, an ``int`` fixed partition size, or a
        :class:`Partitioner`; ``tau`` and ``max_partition_size`` tune the
        variable and the searched-fixed plan.
    build_corrections:
        Whether to build the §3.3 serial-decode correction lists.
    selector:
        The Regressor Selector ``regressor="auto"`` consults; ``None``
        means the shared lazily-built default.
    name:
        Reported codec name; defaults to ``leco-fix`` / ``leco-var`` /
        ``leco-auto`` after the plan.
    """

    def __init__(self, regressor: Regressor | str = "linear",
                 partitioner="fixed", tau: float = 0.05,
                 max_partition_size: int = 10_000,
                 build_corrections: bool = True, selector=None,
                 name: str | None = None):
        from repro.core.partitioners import resolve_partitioner

        #: ``regressor="auto"``: the linear model plans the partitions,
        #: the selector then picks each partition's family
        self.selecting = regressor == "auto"
        if isinstance(regressor, str):
            regressor = get_regressor(
                "linear" if self.selecting else regressor)
        self.regressor = regressor
        self.selector = selector
        self.partitioner = resolve_partitioner(partitioner, tau,
                                               max_partition_size)
        self.build_corrections = build_corrections
        self.name = name or {"variable": "leco-var", "auto": "leco-auto"
                             }.get(partitioner, "leco-fix")

    def encode(self, values: np.ndarray) -> CompressedArray:
        """Compress ``values`` (any integer array) losslessly."""
        values = as_int64(values)
        partitioner = self.partitioner.choose(values)
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
