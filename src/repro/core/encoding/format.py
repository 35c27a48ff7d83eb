"""LeCo's self-describing storage format and decoder (paper §3.3, Fig. 7).

A compressed sequence is a list of partitions.  Each partition stores a
header (model parameters, residual bit-width, bias) followed by a bit-packed
delta array.  Decoding position ``i`` is a model inference plus one slot
read: ``value = floor(F(i - start)) + bias + slot``.

Residuals are *bias-encoded*: the header keeps ``bias = min(residual)`` and
slots hold ``residual - bias`` in ``bits(max - min)`` bits.  For a minimax
fit this width equals the paper's ``ceil(log2 delta_maxabs) + 1``; for
asymmetric residual distributions (e.g. Delta encoding on ascending keys) it
is never worse.

Linear partitions may carry a *correction list* for the serial-decoding
optimisation (§3.3): full-range decodes replace the per-position
``theta0 + theta1 * i`` with a running accumulation, and the list patches
the few positions where floating-point accumulation floors differently.

:class:`CompressedArray` *is* the ``"leco"`` wire format's
:class:`~repro.baselines.base.EncodedSequence`: ``payload_bytes()`` is the
raw ``LECO`` image above, ``to_bytes()`` wraps it in the registry envelope
like every other sequence.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import EncodedSequence
from repro.bitio import (
    BitPackedArray,
    decode_svarint,
    decode_uvarint,
    encode_svarint,
    encode_uvarint,
    unpack_rows,
)
from repro.core.regressors import (
    FittedModel,
    floor_to_int64,
    get_regressor,
)

MAGIC = b"LECO"
VERSION = 1

_FLAG_FIXED = 1
_FLAG_MIXED = 2


class Partition:
    """One encoded partition: header fields plus the packed delta array."""

    __slots__ = ("start", "length", "regressor_name", "params", "bias",
                 "deltas", "corrections", "serial_ok", "_model")

    def __init__(self, start: int, length: int, regressor_name: str,
                 params: np.ndarray, bias: int, deltas: BitPackedArray,
                 corrections: list[tuple[int, int]] | None = None,
                 serial_ok: bool = False):
        self.start = start
        self.length = length
        self.regressor_name = regressor_name
        self.params = np.asarray(params, dtype=np.float64)
        self.bias = bias
        self.deltas = deltas
        self.corrections = corrections or []
        # serial (accumulation) decoding is only worth storing corrections
        # for when they are sparse; otherwise decode directly
        self.serial_ok = serial_ok
        self._model: FittedModel | None = None

    @property
    def model(self) -> FittedModel:
        if self._model is None:
            self._model = get_regressor(self.regressor_name).load(self.params)
        return self._model

    @property
    def end(self) -> int:
        return self.start + self.length

    def _predict(self, positions: np.ndarray) -> np.ndarray:
        """Integer predictions at local ``positions``, bitwise what the
        encoder saw.  Constant and linear predictions are elementwise; a
        basis model's matrix product may round differently with the
        number of rows, so it predicts the whole partition — the
        encoder's shape — and indexes."""
        if self.regressor_name in ("constant", "linear"):
            return self.model.predict_int(positions)
        return self.model.predict_int(np.arange(self.length))[positions]

    def decode_slice(self, local_lo: int, local_hi: int) -> np.ndarray:
        """Decode local positions ``[local_lo, local_hi)`` (vectorised)."""
        pred = self._predict(np.arange(local_lo, local_hi))
        slots = self.deltas.slice(local_lo, local_hi).astype(np.int64)
        return pred + slots + self.bias

    def decode_one(self, local: int) -> int:
        pred = int(self._predict(np.array([local]))[0])
        return pred + self.deltas[local] + self.bias

    def decode_many(self, local_positions: np.ndarray) -> np.ndarray:
        """Batch random access: decode arbitrary local positions.

        One vectorised model inference plus one :meth:`BitPackedArray.gather`
        over the covering bytes of all requested slots — the batch analogue
        of :meth:`decode_one`.
        """
        positions = np.asarray(local_positions, dtype=np.int64)
        pred = self._predict(positions)
        slots = self.deltas.gather(positions).astype(np.int64)
        return pred + slots + self.bias

    def decode_serial(self) -> np.ndarray:
        """Full-partition decode via slope accumulation + correction list.

        Only linear models have a meaningful serial form; other kinds fall
        back to the direct decode.
        """
        if (self.regressor_name != "linear" or self.length == 0
                or not self.serial_ok):
            return self.decode_slice(0, self.length)
        theta0, theta1 = float(self.params[0]), float(self.params[1])
        acc = accumulate_predictions(theta0, theta1, self.length)
        pred = np.clip(np.floor(acc), -(2.0 ** 63), 2.0 ** 63 - 1
                       ).astype(np.int64)
        for pos, diff in self.corrections:
            pred[pos] += diff
        slots = self.deltas.slice(0, self.length).astype(np.int64)
        return pred + slots + self.bias

    # ------------------------------------------------------ serialisation
    def to_bytes(self, mixed: bool, reg_ids: dict[str, int]) -> bytes:
        out = bytearray()
        if mixed:
            out.append(reg_ids[self.regressor_name])
        for p in self.params:
            out += np.float64(p).tobytes()
        out += encode_svarint(self.bias)
        out.append(1 if self.serial_ok else 0)
        out += encode_uvarint(len(self.corrections))
        prev = 0
        for pos, diff in self.corrections:
            out += encode_uvarint(pos - prev)
            out += encode_svarint(diff)
            prev = pos
        out += self.deltas.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int, start: int, length: int,
                   mixed: bool, reg_names: list[str], default_name: str
                   ) -> tuple["Partition", int]:
        if mixed:
            name = reg_names[buf[offset]]
            offset += 1
        else:
            name = default_name
        count = get_regressor(name).param_count
        params = np.frombuffer(buf, dtype=np.float64, count=count,
                               offset=offset).copy()
        offset += 8 * count
        bias, offset = decode_svarint(buf, offset)
        serial_ok = bool(buf[offset])
        offset += 1
        n_corr, offset = decode_uvarint(buf, offset)
        corrections = []
        pos = 0
        for _ in range(n_corr):
            gap, offset = decode_uvarint(buf, offset)
            diff, offset = decode_svarint(buf, offset)
            pos += gap
            corrections.append((pos, diff))
        deltas, offset = BitPackedArray.from_bytes(buf, offset)
        return cls(start, length, name, params, bias, deltas,
                   corrections, serial_ok), offset


def accumulate_predictions(theta0: float, theta1: float, n: int
                           ) -> np.ndarray:
    """Sequential float accumulation ``theta0, theta0+theta1, ...``.

    Implemented with ``np.add.accumulate`` which performs strictly
    sequential summation, so encoder and decoder observe the same rounding.
    """
    steps = np.empty(n, dtype=np.float64)
    steps[0] = theta0
    steps[1:] = theta1
    return np.add.accumulate(steps)


class CompressedArray(EncodedSequence):
    """A losslessly compressed integer sequence with random access.

    The sequence protocol plus what only this format can do:

    * ``arr[i]`` / :meth:`get` — random access (two bounded memory reads);
    * :meth:`gather` — batch random access, grouped by partition;
    * :meth:`decode_range` / :meth:`decode_all` — partition-pruned decodes;
    * :meth:`decode_all_serial` — full decode via the §3.3 accumulation
      optimisation (bit-identical output, validated in tests);
    * :meth:`filter_range` / :meth:`model_bounds` / :meth:`search_sorted`
      — pruning and search on :meth:`partition_value_bounds`;
    * :meth:`payload_bytes` (raw image, what
      :meth:`compressed_size_bytes` measures) / :meth:`to_bytes`.
    """

    wire_id = "leco"

    def __init__(self, n: int, partitions: list[Partition],
                 fixed_size: int | None, default_regressor: str):
        self.n = n
        self.partitions = partitions
        self.fixed_size = fixed_size
        self.default_regressor = default_regressor
        self._starts = np.array([p.start for p in partitions],
                                dtype=np.int64)
        #: a fixed plan under one regressor decodes as one ``(R, L)``
        #: matrix (:meth:`_decode_partitions`); anything else walks
        self._batched = fixed_size is not None and len(
            {p.regressor_name for p in partitions}) == 1
        self._serialized: bytes | None = None
        self._value_bounds: np.ndarray | None = None

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return self.n

    def _get(self, position: int) -> int:
        """Random access to one value (paper's point-query path)."""
        part = self.partitions[self._partition_index_for(position)]
        return part.decode_one(position - part.start)

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Decode positions ``[lo, hi)`` as an int64 array."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"bad range [{lo}, {hi}) for n={self.n}")
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        first = self._partition_index_for(lo)
        last = self._partition_index_for(hi - 1) + 1
        # a short last partition decodes alone: batch only for two or
        # more full-length ones
        short = last == len(self.partitions) and \
            self.partitions[-1].length != self.fixed_size
        if self._batched and last - first - short > 1:
            base = self.partitions[first].start
            return self._decode_partitions(first, last)[lo - base: hi - base]
        chunks = []
        idx = first
        pos = lo
        while pos < hi:
            part = self.partitions[idx]
            local_lo = pos - part.start
            local_hi = min(hi, part.end) - part.start
            chunks.append(part.decode_slice(local_lo, local_hi))
            pos = part.end
            idx += 1
        return np.concatenate(chunks)

    def _decode_partitions(self, first: int, last: int) -> np.ndarray:
        """Decode whole partitions ``[first, last)`` of a batched plan in
        one pass: one ``predict_many`` + floor over the ``(R, L)``
        parameter matrix (row ``r`` is bitwise what ``decode_slice``
        predicts), every row's slots unpacked together, the biases
        broadcast, one add.  int64 arithmetic wraps the same way in any
        order, so a ``_encode_wide`` partition decodes here too.  A short
        last partition is the one row decoded on its own.
        """
        parts = self.partitions[first:last]
        size = self.fixed_size
        tail = parts.pop() if parts[-1].length != size else None
        pieces = []
        if parts:
            regressor = get_regressor(parts[0].regressor_name)
            rows = floor_to_int64(regressor.predict_many(
                np.stack([p.params for p in parts]), size))
            rows += np.array([p.bias for p in parts], dtype=np.int64)[:, None]
            rows += unpack_rows([p.deltas for p in parts], size
                                ).view(np.int64)
            pieces.append(rows.ravel())
        if tail is not None:
            pieces.append(tail.decode_slice(0, tail.length))
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def _partition_index_for(self, position: int) -> int:
        if self.fixed_size is not None:
            return position // self.fixed_size
        return int(np.searchsorted(self._starts, position, "right")) - 1

    def decode_all(self) -> np.ndarray:
        return self.decode_range(0, self.n)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Decode an arbitrary set of positions (late materialization).

        Strictly increasing positions that are dense over the chunk (the
        span they cover at most four times their count) decode that span
        in one :meth:`decode_range` and index it.  Otherwise positions are
        grouped by partition; dense groups decode the covering slice
        vectorised, sparse groups batch-gather their slots — the
        decoder-side analogue of the engine's bitmap-driven scans (§5.1).
        """
        positions = self._check_indices(indices)
        if positions.size == 0:
            return np.empty(0, dtype=np.int64)
        lo, hi = int(positions[0]), int(positions[-1]) + 1
        if (hi - lo) <= 4 * len(positions) and \
                bool((positions[1:] > positions[:-1]).all()):
            return self.decode_range(lo, hi)[positions - lo]
        out = np.empty(len(positions), dtype=np.int64)
        if self.fixed_size is not None:
            part_ids = positions // self.fixed_size
        else:
            part_ids = np.searchsorted(self._starts, positions,
                                       side="right") - 1
        order = np.argsort(part_ids, kind="stable")
        sorted_ids = part_ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        for group in np.split(order, boundaries):
            part = self.partitions[int(part_ids[group[0]])]
            local = positions[group] - part.start
            lo, hi = int(local.min()), int(local.max()) + 1
            if (hi - lo) <= 4 * len(group):
                decoded = part.decode_slice(lo, hi)
                out[group] = decoded[local - lo]
            else:
                out[group] = part.decode_many(local)
        return out

    def search_sorted(self, value: int) -> int:
        """First position ``i`` with ``self[i] >= value`` (n if none).

        Valid only when the encoded sequence is non-decreasing (sorted keys,
        block offsets, ...).  Runs a binary search over partitions using the
        model-derived value bounds, then a binary search of decoded slots
        inside one partition — O(log m + log L) random accesses, never a
        full decompression.  This is the lower-bound primitive behind the
        KV store's index-block lookups (§5.2).
        """
        if self.n == 0:
            return 0
        bounds = self.partition_value_bounds()
        # first partition whose upper bound can reach `value`
        lo, hi = 0, len(self.partitions) - 1
        first = len(self.partitions)
        while lo <= hi:
            mid = (lo + hi) // 2
            if bounds[mid, 1] >= value:
                first = mid
                hi = mid - 1
            else:
                lo = mid + 1
        for idx in range(first, len(self.partitions)):
            part = self.partitions[idx]
            if bounds[idx, 0] >= value:
                return part.start
            plo, phi = 0, part.length - 1
            answer = -1
            while plo <= phi:
                pmid = (plo + phi) // 2
                if part.decode_one(pmid) >= value:
                    answer = pmid
                    phi = pmid - 1
                else:
                    plo = pmid + 1
            if answer >= 0:
                return part.start + answer
        return self.n

    def partition_value_bounds(self) -> np.ndarray:
        """Per-partition conservative [min, max] bounds, shape (m, 2).

        Derived from the model band plus the residual width without touching
        the delta array — the basis of LeCo's filter pruning (§5.1.1).
        Where there is no cheap sound bound the partition gets the whole
        int64 range, which never prunes: a non-monotone model, or a band
        that leaves int64 (the decoder's arithmetic wrapped — predictions
        at the int64 edge, or a partition spanning more than 2**63).
        Computed once per sequence (read-only: every caller shares it).
        """
        if self._value_bounds is not None:
            return self._value_bounds
        info = np.iinfo(np.int64)
        lows = [info.min] * len(self.partitions)
        highs = [info.max] * len(self.partitions)
        # constant and linear predictions are monotone in the position, so
        # the partition edges bound the whole prediction band: predict
        # both edges of every such partition in one pass
        banded, theta, last = [], [], []
        for j, part in enumerate(self.partitions):
            if part.length == 0:
                lows[j], highs[j] = 0, -1
            elif part.regressor_name in ("constant", "linear"):
                banded.append(j)
                theta.append((part.params[0], part.params[1]
                              if len(part.params) > 1 else 0.0))
                last.append(part.length - 1.0)
        theta = np.array(theta, dtype=np.float64).reshape(-1, 2)
        ends = np.stack([np.zeros(len(last)), np.array(last)], axis=1)
        edges = floor_to_int64(theta[:, :1] + theta[:, 1:] * ends)
        for j, lo, hi in zip(banded, edges.min(axis=1).tolist(),
                             edges.max(axis=1).tolist()):
            part = self.partitions[j]
            lo += part.bias
            hi += part.bias + (1 << part.deltas.width) - 1
            if info.min <= lo and hi <= info.max:
                lows[j], highs[j] = lo, hi
        bounds = np.array([lows, highs], dtype=np.int64).T
        bounds.setflags(write=False)
        self._value_bounds = bounds
        return bounds

    def filter_range(self, lo: int, hi: int) -> np.ndarray:
        """Range predicate with model-based partition pruning (§5.1.1).

        Partitions whose model + residual-width band cannot intersect
        ``[lo, hi)`` are skipped without touching their delta arrays.
        """
        bitmap = np.zeros(self.n, dtype=bool)
        bounds = self.partition_value_bounds()
        for j, part in enumerate(self.partitions):
            if bounds[j, 1] < lo or bounds[j, 0] >= hi:
                continue  # pruned: cannot contain matches
            decoded = part.decode_slice(0, part.length)
            bitmap[part.start: part.end] = (decoded >= lo) & (decoded < hi)
        return bitmap

    def model_bounds(self) -> tuple[int, int] | None:
        """Sequence-wide value bounds from the per-partition model bands.

        No delta array is touched, so the store's zone maps come for free.
        Conservative (the residual-width band may be loose); ``None`` when
        some partition has no cheap bound — the caller's exact min/max is
        then both sound and tighter than the whole int64 range.
        """
        if self.n == 0:
            return None
        bounds = self.partition_value_bounds()
        lo, hi = int(bounds[:, 0].min()), int(bounds[:, 1].max())
        info = np.iinfo(np.int64)
        return None if (lo, hi) == (info.min, info.max) else (lo, hi)

    def decode_all_serial(self) -> np.ndarray:
        """Full decode using slope accumulation + corrections (§3.3)."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([p.decode_serial() for p in self.partitions])

    # ---------------------------------------------------------------- size
    def compressed_size_bytes(self) -> int:
        """Length of the raw payload (the envelope header is not counted)."""
        return len(self.payload_bytes())

    def model_size_bytes(self) -> int:
        """Total bytes spent on model parameters (Fig. 10's cross pattern)."""
        return sum(8 * len(p.params) for p in self.partitions)

    def compression_ratio(self, uncompressed_bytes: int) -> float:
        """compressed / uncompressed, as a fraction (paper reports %)."""
        return self.compressed_size_bytes() / max(uncompressed_bytes, 1)

    # ------------------------------------------------------- serialisation
    def payload_bytes(self) -> bytes:
        """The raw ``LECO`` image (``to_bytes()`` adds the envelope)."""
        if self._serialized is not None:
            return self._serialized
        names = sorted({p.regressor_name for p in self.partitions})
        mixed = len(names) > 1
        flags = (_FLAG_FIXED if self.fixed_size is not None else 0)
        if mixed:
            flags |= _FLAG_MIXED
        out = bytearray()
        out += MAGIC
        out.append(VERSION)
        out.append(flags)
        # partitions carry a name only when mixed: a lone name (every
        # partition took the encoder's fallback) is the header's default
        default = self.default_regressor if mixed or not names else names[0]
        out.append(len(default))
        out += default.encode()
        out += encode_uvarint(self.n)
        out += encode_uvarint(len(self.partitions))
        if self.fixed_size is not None:
            out += encode_uvarint(self.fixed_size)
        else:
            starts = BitPackedArray.from_values(
                self._starts.astype(np.uint64))
            out += starts.to_bytes()
        if mixed:
            out.append(len(names))
            for name in names:
                out.append(len(name))
                out += name.encode()
        reg_ids = {name: i for i, name in enumerate(names)}
        for part in self.partitions:
            out += part.to_bytes(mixed, reg_ids)
        self._serialized = bytes(out)
        return self._serialized

    @classmethod
    def from_payload(cls, buf: bytes) -> "CompressedArray":
        if buf[:4] != MAGIC:
            raise ValueError("not a LeCo buffer (bad magic)")
        if buf[4] != VERSION:
            raise ValueError(f"unsupported version {buf[4]}")
        flags = buf[5]
        offset = 6
        name_len = buf[offset]
        offset += 1
        default = buf[offset: offset + name_len].decode()
        offset += name_len
        n, offset = decode_uvarint(buf, offset)
        m, offset = decode_uvarint(buf, offset)
        fixed_size = None
        if flags & _FLAG_FIXED:
            fixed_size, offset = decode_uvarint(buf, offset)
            starts = np.arange(m, dtype=np.int64) * fixed_size
        else:
            packed, offset = BitPackedArray.from_bytes(buf, offset)
            starts = packed.to_numpy().astype(np.int64)
        reg_names: list[str] = []
        mixed = bool(flags & _FLAG_MIXED)
        if mixed:
            n_names = buf[offset]
            offset += 1
            for _ in range(n_names):
                ln = buf[offset]
                offset += 1
                reg_names.append(buf[offset: offset + ln].decode())
                offset += ln
        partitions: list[Partition] = []
        for j in range(m):
            start = int(starts[j])
            end = int(starts[j + 1]) if j + 1 < m else n
            part, offset = Partition.from_bytes(
                buf, offset, start, end - start, mixed, reg_names, default)
            partitions.append(part)
        # not memoised as ``_serialized``: every partition already owns
        # a copy of its packed bytes, and a chunk cache full of revived
        # sequences would hold each payload twice for a ``to_bytes()``
        # nothing on the read path makes (it re-serialises on demand,
        # byte for byte)
        return cls(n, partitions, fixed_size, default)
