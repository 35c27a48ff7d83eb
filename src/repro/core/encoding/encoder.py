"""The LeCo Encoder: model fitting + residual packing (paper §3.3).

The Encoder receives the partition plan and the original sequence, fits one
model per partition, computes integer residuals against the floored
predictions, and bit-packs them with bias encoding.  Linear partitions also
get their serial-decoding correction list (§3.3 optimisation) built here.

The unit of work is a matrix: partitions of one length are the rows of an
``(R, L)`` array that is fitted, subtracted, biased, corrected and packed in
one pass (:func:`encode_rows`).  One partition is its one-row case, one
array the one-chunk case of :meth:`LecoEncoder.encode_many`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, as_int64
from repro.bitio import BitPackedArray, pack_unsigned
from repro.core.encoding.format import CompressedArray, Partition
from repro.core.regressors import (
    ConstantRegressor,
    Regressor,
    floor_to_int64,
    get_regressor,
)

#: residuals larger than this trigger the constant-model fallback guard
_RESIDUAL_GUARD = 2.0 ** 62
#: most values one ``(R, L)`` block of stacked partitions holds: the fit,
#: residual and correction passes keep about ten such temporaries alive,
#: a few MiB however long the input is
_BLOCK_VALUES = 1 << 15


def _pack_rows(slots: np.ndarray) -> list[BitPackedArray]:
    """Bit-pack every row of ``slots`` (``(R, L)`` uint64) at its own width.

    Rows of one width whose ``L x width`` bits end on a byte boundary go
    through the pack kernel together: the groups it forms never straddle
    two rows, so the joint buffer is the rows' buffers end to end.
    """
    n_rows, length = slots.shape
    top = slots.max(axis=1).tolist() if length else [0] * n_rows
    by_width: dict[int, list[int]] = {}
    for r, value in enumerate(top):
        by_width.setdefault(value.bit_length(), []).append(r)
    packed: list[BitPackedArray | None] = [None] * n_rows
    for width, rows in by_width.items():
        nbytes, ragged = divmod(length * width, 8)
        if ragged:
            for r in rows:
                packed[r] = BitPackedArray.from_values(slots[r], width)
            continue
        same = slots if len(rows) == n_rows else slots[rows]
        data = pack_unsigned(same.ravel(), width)
        for k, r in enumerate(rows):
            packed[r] = BitPackedArray(data[k * nbytes: (k + 1) * nbytes],
                                       width, length)
    return packed


def _linear_corrections(params: np.ndarray, pred: np.ndarray
                        ) -> list[list[tuple[int, int]] | None]:
    """Per linear row, the positions where slope accumulation floors
    differently from the direct predictions ``pred`` (§3.3) — or ``None``
    where that list is dense: at large magnitudes float accumulation
    drifts at almost every position, the list would dwarf the delta array,
    and the serial path is not worth keeping.
    """
    n_rows, length = pred.shape
    found: list[list[tuple[int, int]]] = [[] for _ in range(n_rows)]
    if length == 0:
        return found
    steps = np.empty((n_rows, length), dtype=np.float64)
    steps[:, 0] = params[:, 0]
    steps[:, 1:] = params[:, 1:2]
    # row by row the same strictly sequential sum as the decoder's
    # accumulate_predictions
    direct = np.floor(pred)
    accum = np.floor(np.add.accumulate(steps, axis=1))
    rows, cols = np.nonzero(direct != accum)
    drift = direct[rows, cols] - accum[rows, cols]
    for r, i, diff in zip(rows.tolist(), cols.tolist(), drift.tolist()):
        found[r].append((i, int(diff)))
    sparse = max(length // 16, 4)
    return [c if len(c) <= sparse else None for c in found]


def encode_rows(rows: np.ndarray, starts: list[int], regressor: Regressor,
                build_corrections: bool = True) -> list[Partition]:
    """Fit and encode every row of ``rows`` (``(R, L)`` int64) as the
    partition starting at ``starts[r]``, in one pass over the matrix: fit,
    residuals against the floored predictions, bias, bit-pack, and the
    linear rows' serial-decode corrections.

    A row its model mispredicts catastrophically (non-finite, or further
    off than ``_RESIDUAL_GUARD``) is encoded again under the constant
    model, and one the constant model cannot hold as a wide partition.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n_rows, length = rows.shape
    params = regressor.fit_many(rows)
    pred = regressor.predict_many(params, length)
    with np.errstate(invalid="ignore"):
        safe = np.abs(rows.astype(np.float64) - pred).max(
            axis=1, initial=0.0) <= _RESIDUAL_GUARD
    out: list[Partition | None] = [None] * n_rows
    kept = np.arange(n_rows)
    if not safe.all():
        unsafe = np.flatnonzero(~safe).tolist()
        if regressor.name == "constant":
            again = [_encode_wide(rows[r], starts[r]) for r in unsafe]
        else:
            again = encode_rows(rows[unsafe], [starts[r] for r in unsafe],
                                ConstantRegressor(), build_corrections)
        for r, part in zip(unsafe, again):
            out[r] = part
        kept = np.flatnonzero(safe)
        rows, params, pred = rows[kept], params[kept], pred[kept]
    residuals = rows - floor_to_int64(pred)
    bias = residuals.min(axis=1) if length else np.zeros(len(rows), np.int64)
    packed = _pack_rows((residuals - bias[:, None]).astype(np.uint64))
    corrections: list = [None] * len(rows)
    if build_corrections and regressor.name == "linear":
        corrections = _linear_corrections(params, pred)
    for r, theta, lowest, deltas, fixes in zip(
            kept.tolist(), params, bias.tolist(), packed, corrections):
        out[r] = Partition(starts[r], length, regressor.name, theta, lowest,
                           deltas, fixes, fixes is not None)
    return out


def encode_partition(values: np.ndarray, start: int,
                     regressor: Regressor,
                     build_corrections: bool = True) -> Partition:
    """Fit and encode one partition (``values`` is the partition slice):
    the one-row case of :func:`encode_rows`."""
    values = np.asarray(values, dtype=np.int64)
    return encode_rows(values[None, :], [start], regressor,
                       build_corrections)[0]


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
        """Compress ``values`` (any integer array) losslessly: the
        one-chunk case of :meth:`encode_many`."""
        return self.encode_many([values])[0]

    def encode_many(self, chunks) -> list[CompressedArray]:
        """Compress every chunk (integer arrays) into its own sequence.

        Each chunk is planned on its own; then every partition of every
        chunk that shares a length and a regressor — the full-length
        partitions of a fixed plan, above all — is stacked and encoded as
        one matrix (:func:`encode_rows`), ``_BLOCK_VALUES`` values at a
        time.
        """
        chunks = [as_int64(values) for values in chunks]
        selector = None
        if self.selecting:
            from repro.codecs.spec import default_selector

            selector = self.selector if self.selector is not None \
                else default_selector()
        fixed_sizes: list[int | None] = []
        encoded: list[list[Partition | None]] = []
        alike: dict[tuple[Regressor, int], list[tuple[int, int, int]]] = {}
        for c, values in enumerate(chunks):
            partitioner = self.partitioner.choose(values)
            bounds = partitioner.partition(values, self.regressor)
            fixed_sizes.append(bounds[0][1] - bounds[0][0]
                               if partitioner.fixed_length and bounds
                               else None)
            encoded.append([None] * len(bounds))
            for j, (a, b) in enumerate(bounds):
                regressor = self.regressor
                if selector is not None:
                    regressor = selector.recommend(values[a:b])
                    if b - a < regressor.min_partition_size:
                        regressor = get_regressor("constant")
                alike.setdefault((regressor, b - a), []).append((c, j, a))
        for (regressor, length), members in alike.items():
            step = max(_BLOCK_VALUES // length, 1)
            for lo in range(0, len(members), step):
                block = members[lo: lo + step]
                parts = encode_rows(
                    np.stack([chunks[c][a: a + length] for c, _, a in block]),
                    [a for _, _, a in block], regressor,
                    self.build_corrections)
                for (c, j, _), part in zip(block, parts):
                    encoded[c][j] = part
        return [CompressedArray(len(values), partitions, fixed_size,
                                self.regressor.name)
                for values, partitions, fixed_size
                in zip(chunks, encoded, fixed_sizes)]
