"""The LeCo Encoder: model fitting + residual packing (paper §3.3).

The Encoder receives the partition plan and the original sequence, fits one
model per partition, computes integer residuals against the floored
predictions, and bit-packs them with bias encoding.  Linear partitions also
get their serial-decoding correction list (§3.3 optimisation) built here.

The unit of work is a matrix: partitions of one length are the rows of an
``(R, L)`` array that is fitted, subtracted, biased, corrected and packed in
one pass (:func:`encode_rows`), which emits them column by column as a
:class:`~repro.core.encoding.format.Rows`.  :meth:`LecoEncoder.encode_many`
stacks the partitions of every chunk that share a length and a family, then
writes each chunk's image from the rows its partitions landed in.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Codec, as_int64
from repro.bitio import pack_unsigned
from repro.core.encoding.format import (
    CompressedArray,
    Rows,
    accumulate_predictions,
)
from repro.core.regressors import Regressor, floor_to_int64, get_regressor

#: residuals larger than this trigger the constant-model fallback guard
_RESIDUAL_GUARD = 2.0 ** 62
#: most values one ``(R, L)`` block of stacked partitions holds: the fit,
#: residual and correction passes keep about ten such temporaries alive,
#: a few MiB however long the input is
_BLOCK_VALUES = 1 << 15


def _pack_rows(slots: np.ndarray) -> tuple[np.ndarray, list[bytes]]:
    """Bit-pack every row of ``slots`` (``(R, L)`` uint64) at its own width;
    returns the widths and each row's packed bytes.

    Rows of one width whose ``L x width`` bits end on a byte boundary go
    through the pack kernel together: the groups it forms never straddle
    two rows, so the joint buffer is the rows' buffers end to end.
    """
    n_rows, length = slots.shape
    top = slots.max(axis=1).tolist() if length else [0] * n_rows
    widths = [value.bit_length() for value in top]
    by_width: dict[int, list[int]] = {}
    for r, width in enumerate(widths):
        by_width.setdefault(width, []).append(r)
    packed = [b""] * n_rows
    for width, rows in by_width.items():
        nbytes, ragged = divmod(length * width, 8)
        if ragged:
            for r in rows:
                packed[r] = pack_unsigned(slots[r], width)
            continue
        same = slots if len(rows) == n_rows else slots[rows]
        data = pack_unsigned(same.ravel(), width)
        for k, r in enumerate(rows):
            packed[r] = data[k * nbytes: (k + 1) * nbytes]
    return np.array(widths, dtype=np.int64), packed


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
    direct = np.floor(pred)
    accum = np.floor(accumulate_predictions(params, length))
    rows, cols = np.nonzero(direct != accum)
    drift = direct[rows, cols] - accum[rows, cols]
    for r, i, diff in zip(rows.tolist(), cols.tolist(), drift.tolist()):
        found[r].append((i, int(diff)))
    sparse = max(length // 16, 4)
    return [c if len(c) <= sparse else None for c in found]


def _fill(out: Rows, at: np.ndarray, family: str, params: np.ndarray,
          residuals: np.ndarray, biases: np.ndarray,
          corrections: list | None = None) -> None:
    """Rows ``at`` of ``out`` become ``family``'s partitions: its
    ``params``, the ``biases``, and ``residuals - biases`` packed."""
    out.params[at, :params.shape[1]] = params
    out.biases[at] = biases
    out.widths[at], packed = _pack_rows(
        (residuals - biases[:, None]).astype(np.uint64))
    for k, r in enumerate(at.tolist()):
        out.regressors[r] = family
        out.packed[r] = packed[k]
        out.corrections[r] = None if corrections is None else corrections[k]


def encode_rows(rows: np.ndarray, regressor: Regressor,
                build_corrections: bool = True) -> Rows:
    """Fit and encode every row of ``rows`` (``(R, L)`` int64) as one
    partition, in one pass over the matrix: fit, residuals against the
    floored predictions, bias, bit-pack, and the linear rows'
    serial-decode corrections.

    A row its model mispredicts catastrophically (non-finite, or further
    off than ``_RESIDUAL_GUARD``) is encoded again under the constant
    model, and one the constant model cannot hold as a wide partition.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n_rows, length = rows.shape
    out = Rows(length, [""] * n_rows,
               np.zeros((n_rows, regressor.param_count)),
               np.zeros(n_rows, np.int64), np.zeros(n_rows, np.int64),
               [b""] * n_rows, [None] * n_rows)
    families = [regressor]
    if regressor.name != "constant":
        families.append(get_regressor("constant"))
    todo = np.arange(n_rows)
    for family in families:
        if not todo.size:
            break
        params = family.fit_many(rows[todo])
        pred = family.predict_many(params, length)
        with np.errstate(invalid="ignore"):
            safe = np.abs(rows[todo].astype(np.float64) - pred).max(
                axis=1, initial=0.0) <= _RESIDUAL_GUARD
        params, pred = params[safe], pred[safe]
        residuals = rows[todo[safe]] - floor_to_int64(pred)
        bias = residuals.min(axis=1) if length else \
            np.zeros(len(residuals), np.int64)
        fixes = None
        if build_corrections and family.name == "linear":
            fixes = _linear_corrections(params, pred)
        _fill(out, todo[safe], family.name, params, residuals, bias, fixes)
        todo = todo[~safe]
    if todo.size:
        floor, residuals = _encode_wide(rows[todo])
        _fill(out, todo, "constant", floor[:, None], residuals,
              np.zeros(len(todo), np.int64))
    return out


def _encode_wide(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partitions spanning more than 2**63 (64-bit hashes): no model keeps
    their residuals inside int64, so each row stores ``v - floor`` as
    uint64 slots under the constant model ``floor``, with bias 0.  Returns
    the floors and the residuals (wrapped).

    ``floor`` is the largest float64 at or below the row's minimum
    (integral, and inside int64, so the decoder's prediction is exactly
    it); a span below 2**64 keeps every slot in range, and int64 decode
    arithmetic wraps back to the value.
    """
    lowest = rows.min(axis=1)
    floor = lowest.astype(np.float64)
    above = floor.astype(np.int64) > lowest
    floor[above] = np.nextafter(floor[above], -np.inf)
    return floor, rows - floor.astype(np.int64)[:, None]


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
        plans: list[tuple[int | None, list[int]]] = []
        parts: list[list] = []
        alike: dict[tuple[Regressor, int], list[tuple[int, int, int]]] = {}
        for c, values in enumerate(chunks):
            partitioner = self.partitioner.choose(values)
            bounds = partitioner.partition(values, self.regressor)
            plans.append((bounds[0][1] - bounds[0][0]
                          if partitioner.fixed_length and bounds else None,
                          [a for a, _ in bounds]))
            parts.append([None] * len(bounds))
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
                rows = encode_rows(
                    np.stack([chunks[c][a: a + length] for c, _, a in block]),
                    regressor, self.build_corrections)
                for r, (c, j, _) in enumerate(block):
                    parts[c][j] = (rows, r)
        return [CompressedArray.assemble(len(values), fixed_size,
                                         self.regressor.name, starts, chunk)
                for values, (fixed_size, starts), chunk
                in zip(chunks, plans, parts)]
