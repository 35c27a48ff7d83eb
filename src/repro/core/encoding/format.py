"""LeCo's self-describing storage format and decoder (paper §3.3, Fig. 7).

A compressed sequence is a list of partitions.  Each partition stores a
header (model parameters, residual bit-width, bias) followed by a bit-packed
delta array.  Decoding position ``i`` is a model inference plus one slot
read: ``value = floor(F(i - start)) + bias + slot``.

In memory a sequence is those headers column by column, one array entry
per partition — ``starts``, ``regressor_ids`` (into ``regressor_names``),
the zero-padded ``params`` matrix, ``biases``, residual ``widths`` and the
bit ``offsets`` of each partition's slots — over its ``LECO`` image, which
holds the slots themselves.  Every access path is one computation over
those arrays (:meth:`CompressedArray._decode`): find each position's
partition, predict from its parameters, read its slot at
``offsets[part] + local * widths[part]``, add its bias.

Residuals are *bias-encoded*: the header keeps ``bias = min(residual)`` and
slots hold ``residual - bias`` in ``bits(max - min)`` bits.  For a minimax
fit this width equals the paper's ``ceil(log2 delta_maxabs) + 1``; for
asymmetric residual distributions (e.g. Delta encoding on ascending keys) it
is never worse.

Linear partitions may carry a *correction list* for the serial-decoding
optimisation (§3.3): full-range decodes replace the per-position
``theta0 + theta1 * i`` with a running accumulation, and the list patches
the few positions where floating-point accumulation floors differently.

The ``LECO`` v1 image is a header — magic, version, flags (fixed plan,
mixed regressors), the default regressor name, ``n``, the partition count,
the fixed size or the bit-packed starts, and the name table of a mixed
image — then one record per partition (:func:`partition_record`).

:class:`CompressedArray` *is* the ``"leco"`` wire format's
:class:`~repro.baselines.base.EncodedSequence`: ``payload_bytes()`` is the
raw ``LECO`` image above, ``to_bytes()`` wraps it in the registry envelope
like every other sequence.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.baselines.base import EncodedSequence
from repro.bitio import (
    BitPackedArray,
    decode_uvarint,
    encode_svarint,
    encode_uvarint,
    gather_bits,
)
from repro.core.regressors import floor_to_int64, get_regressor

MAGIC = b"LECO"
VERSION = 1

_FLAG_FIXED = 1
_FLAG_MIXED = 2

#: families whose prediction is a line (a constant's slope is 0), so it can
#: be evaluated at any single position
_LINES = ("constant", "linear")

#: positions one pass of the decoder's vector arithmetic takes: its dozen
#: int64 temporaries stay at 64 KiB each, inside the cache and under the
#: allocator's mmap threshold.  On the 2-core reference box a 22 000-
#: position gather ran in 0.38 ms cut at 8 192 and in 0.91 ms whole.
DECODE_SLICE = 8192



class Rows(NamedTuple):
    """Partitions of one ``length`` as the encoder emits them, column by
    column: entry ``r`` of every other field belongs to row ``r``."""

    length: int
    #: each row's regressor family
    regressors: list
    #: ``(R, k)`` float64, zero past each family's parameter count
    params: np.ndarray
    biases: np.ndarray
    widths: np.ndarray
    #: each row's residual slots, bit-packed at its width
    packed: list
    #: each row's ``[(position, difference), ...]`` serial-decode list, or
    #: ``None`` where the row has no serial decode
    corrections: list


def accumulate_predictions(params: np.ndarray, length: int) -> np.ndarray:
    """Sequential float accumulation ``theta0, theta0+theta1, ...`` of every
    row of a linear ``(R, >= 2)`` parameter matrix, as ``(R, length)``.

    ``np.add.accumulate`` sums each row strictly in order, so encoder and
    decoder observe the same rounding.
    """
    steps = np.empty((len(params), length), dtype=np.float64)
    steps[:, :1] = params[:, :1]
    steps[:, 1:] = params[:, 1:2]
    return np.add.accumulate(steps, axis=1)


def partition_record(rows: Rows, r: int, reg_id: int | None = None) -> bytes:
    """Row ``r`` of ``rows`` as its image record: its regressor id (in a
    mixed image), parameters, bias, serial flag and correction list, then
    its slots as a :class:`BitPackedArray`."""
    out = bytearray() if reg_id is None else bytearray([reg_id])
    count = get_regressor(rows.regressors[r]).param_count
    out += rows.params[r, :count].tobytes()
    out += encode_svarint(int(rows.biases[r]))
    fixes = rows.corrections[r]
    out.append(fixes is not None)
    out += encode_uvarint(len(fixes or ()))
    prev = 0
    for pos, diff in fixes or ():
        out += encode_uvarint(pos - prev) + encode_svarint(diff)
        prev = pos
    out.append(int(rows.widths[r]))
    out += rows.length.to_bytes(8, "big") + rows.packed[r]
    return bytes(out)


class CompressedArray(EncodedSequence):
    """A losslessly compressed integer sequence with random access.

    The sequence protocol plus what only this format can do:

    * ``arr[i]`` / :meth:`get` — random access (one model inference plus
      one slot read);
    * :meth:`gather` — batch random access at any positions;
    * :meth:`decode_range` / :meth:`decode_all` — range decodes;
    * :meth:`decode_all_serial` — full decode via the §3.3 accumulation
      optimisation (bit-identical output, validated in tests);
    * :meth:`filter_range` / :meth:`model_bounds` / :meth:`search_sorted`
      — pruning and search on :meth:`partition_value_bounds`;
    * :meth:`payload_bytes` (raw image, what
      :meth:`compressed_size_bytes` measures) / :meth:`to_bytes`.

    The per-partition arrays are public, for reading: ``starts``,
    ``lengths``, ``regressor_ids`` into ``regressor_names``, ``params``
    (``(m, k)``, zero past each family's parameter count), ``biases``,
    ``widths``, ``offsets`` (each partition's first slot, in bits into the
    image), ``serial`` (decoded by accumulation in
    :meth:`decode_all_serial`) and ``corrections``, the serial
    partitions' lists as one ``(c, 2)`` array of ``(position, difference)``
    rows in position order.
    """

    wire_id = "leco"

    def __init__(self, image: bytes, n: int, fixed_size: int | None,
                 regressor_names, starts, lengths, regressor_ids, params,
                 biases, widths, offsets, serial, corrections):
        # every array arrives typed (int64; ``regressor_ids`` intp,
        # ``serial`` bool, ``corrections`` (c, 2) int64): revival builds
        # them once and nothing here converts them again
        self._image = image
        self.n = n
        self.fixed_size = fixed_size
        self.regressor_names = tuple(regressor_names)
        self.starts = starts
        self.lengths = lengths
        self.regressor_ids = regressor_ids
        self.params = params
        self.biases = biases
        self.widths = widths
        self.offsets = offsets
        self.serial = serial
        self.corrections = corrections
        #: partitions of a basis family, which predict whole (see _predict)
        curved = [name not in _LINES for name in self.regressor_names]
        self._curved = np.array(curved)[regressor_ids] if any(curved) \
            else np.zeros(len(starts), dtype=bool)
        self._value_bounds: np.ndarray | None = None

    # -------------------------------------------------------------- decode
    def _part_of(self, positions: np.ndarray) -> np.ndarray:
        if self.fixed_size is not None:
            return positions // self.fixed_size
        return np.searchsorted(self.starts, positions, side="right") - 1

    def _decode(self, positions: np.ndarray,
                accumulate: bool = False) -> np.ndarray:
        """The value at each of ``positions`` (in range, int64): find its
        partition, predict, read its slot, add the bias.  int64 arithmetic
        wraps the same way in any order, so a wide partition (uint64
        slots) decodes here too.  Positions go through
        :data:`DECODE_SLICE` at a time."""
        if positions.size <= DECODE_SLICE:
            return self._decode_slice(positions, accumulate)
        out = np.empty(positions.size, dtype=np.int64)
        for lo in range(0, positions.size, DECODE_SLICE):
            hi = lo + DECODE_SLICE
            out[lo:hi] = self._decode_slice(positions[lo:hi], accumulate)
        return out

    def _decode_slice(self, positions: np.ndarray,
                      accumulate: bool) -> np.ndarray:
        part = self._part_of(positions)
        local = positions - self.starts[part]
        width = self.widths[part]
        slots = gather_bits(self._image, self.offsets[part] + local * width,
                            width)
        return self._predict(part, local, accumulate) \
            + slots.view(np.int64) + self.biases[part]

    def _predict(self, part: np.ndarray, local: np.ndarray,
                 accumulate: bool = False) -> np.ndarray:
        """Integer predictions of partitions ``part`` at ``local``
        positions, bitwise what the encoder floored.

        A line is evaluated at each position alone.  A basis model's matrix
        product may round differently with the number of rows, so its
        partitions predict whole — the encoder's shape, one
        ``predict_many`` per family and length — and are indexed.  So do
        the serial partitions when ``accumulate``: by slope accumulation,
        their correction lists patching the floors that drift (as floats,
        so a prediction beyond int64 clamps as the encoder's did).
        """
        pred = self.params[:, 0][part] + self.params[:, 1][part] * local
        whole = self._curved | self.serial if accumulate else self._curved
        at = np.flatnonzero(whole[part]) if whole.any() else ()
        if not len(at):
            return floor_to_int64(pred)
        # every touched partition's predictions, laid end to end
        ids = np.flatnonzero(np.bincount(part[at], minlength=len(whole)))
        shape = self.regressor_ids[ids] * (self.n + 1) + self.lengths[ids]
        base = np.zeros(len(whole), dtype=np.int64)
        table, size = [], 0
        for key in np.unique(shape):
            group = ids[shape == key]
            name = self.regressor_names[self.regressor_ids[group[0]]]
            length = int(self.lengths[group[0]])
            if name == "linear":       # serial partitions, accumulating
                rows = np.floor(accumulate_predictions(self.params[group],
                                                       length))
            else:
                regressor = get_regressor(name)
                rows = regressor.predict_many(
                    self.params[group, :regressor.param_count], length)
            base[group] = size + length * np.arange(len(group))
            size += rows.size
            table.append(rows.ravel())
        table = np.concatenate(table)
        if accumulate:
            pos, diff = self.corrections.T
            owner = self._part_of(pos)
            fix = np.isin(owner, ids)
            table[base[owner[fix]] + (pos - self.starts[owner])[fix]] \
                += diff[fix]
        pred[at] = table[base[part[at]] + local[at]]
        return floor_to_int64(pred)

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return self.n

    def _get(self, position: int) -> int:
        """Random access to one value (paper's point-query path)."""
        return int(self._decode(np.array([position]))[0])

    def decode_range(self, lo: int, hi: int) -> np.ndarray:
        """Decode positions ``[lo, hi)`` as an int64 array."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError(f"bad range [{lo}, {hi}) for n={self.n}")
        return self._decode(np.arange(lo, hi, dtype=np.int64))

    def decode_all(self) -> np.ndarray:
        return self.decode_range(0, self.n)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Decode an arbitrary set of positions (late materialization):
        one model inference and one slot read per position, whatever
        partitions they fall in — what the executor's bitmap-driven
        scans call (§5.1)."""
        return self._decode(self._check_indices(indices))

    @classmethod
    def gather_many(cls, pairs) -> np.ndarray:
        """:meth:`EncodedSequence.gather_many` as one decode.  The
        sequences' directories are joined end to end over their joined
        images — partition starts and positions shifted by the values
        before them, slot offsets by the image bits before them,
        regressor ids into one name table — and every position reads
        through that one directory: a batch of chunks pays the decode's
        fixed costs once, not once a chunk."""
        if len(pairs) < 2:
            return super().gather_many(pairs)
        seqs = [seq for seq, _ in pairs]
        bases, base, local = [], 0, []
        for seq, positions in pairs:
            bases.append(base)
            local.append(np.arange(base, base + seq.n, dtype=np.int64)
                         if positions is None else
                         np.asarray(positions, dtype=np.int64) + base)
            base += seq.n
        positions = np.concatenate(local)
        if not positions.size:
            return positions
        # every sequence's positions in its own range, two reductions in
        # all; only out-of-range input pays for each one's own check
        counts = np.array([len(p) for p in local])
        ends = np.array(bases) + [seq.n for seq in seqs]
        held = counts > 0
        at = (np.cumsum(counts) - counts)[held]
        if (np.minimum.reduceat(positions, at) < np.array(bases)[held]).any() \
                or (np.maximum.reduceat(positions, at) >= ends[held]).any():
            positions = np.concatenate([
                seq._check_indices(p - b) + b
                for seq, p, b in zip(seqs, local, bases)])
        parts = [len(seq.starts) for seq in seqs]
        names = seqs[0].regressor_names
        if all(seq.regressor_names == names for seq in seqs):
            ids = np.concatenate([seq.regressor_ids for seq in seqs])
        else:
            table: dict[str, int] = {}
            ids = np.concatenate([np.array(
                [table.setdefault(name, len(table))
                 for name in seq.regressor_names],
                dtype=np.intp)[seq.regressor_ids] for seq in seqs])
            names = tuple(table)
        k = max(seq.params.shape[1] for seq in seqs)
        params = np.concatenate([
            seq.params if seq.params.shape[1] == k
            else np.pad(seq.params, ((0, 0), (0, k - seq.params.shape[1])))
            for seq in seqs])
        image_bits = np.cumsum([0] + [8 * len(seq._image)
                                      for seq in seqs[:-1]])
        corrections = np.concatenate([seq.corrections for seq in seqs])
        corrections[:, 0] += np.repeat(
            bases, [len(seq.corrections) for seq in seqs])
        # a fixed size all share still finds partitions by division when
        # every sequence before the last fills its partitions exactly
        fixed = seqs[0].fixed_size
        if fixed is None or any(
                seq.fixed_size != fixed for seq in seqs) or any(
                seq.n % fixed for seq in seqs[:-1]):
            fixed = None
        joined = cls(
            b"".join(seq._image for seq in seqs), base, fixed, names,
            np.concatenate([seq.starts for seq in seqs])
            + np.repeat(bases, parts),
            np.concatenate([seq.lengths for seq in seqs]), ids, params,
            np.concatenate([seq.biases for seq in seqs]),
            np.concatenate([seq.widths for seq in seqs]),
            np.concatenate([seq.offsets for seq in seqs])
            + np.repeat(image_bits, parts),
            np.concatenate([seq.serial for seq in seqs]), corrections)
        return joined._decode(positions)

    def search_sorted(self, value: int) -> int:
        """First position ``i`` with ``self[i] >= value`` (n if none).

        Valid only when the encoded sequence is non-decreasing (sorted keys,
        block offsets, ...).  The answer lies in the first partition whose
        last value reaches ``value``: one decode of every partition's last
        position finds it, one decode of that partition the position —
        never a full decompression.  This is the lower-bound primitive
        behind the KV store's index-block lookups (§5.2).
        """
        ends = self.starts + self.lengths
        reach = np.flatnonzero(self._decode(ends - 1) >= value)
        if reach.size == 0:
            return self.n
        lo, hi = int(self.starts[reach[0]]), int(ends[reach[0]])
        return lo + int(np.searchsorted(self.decode_range(lo, hi), value))

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
        # a line is monotone in the position, so the partition's two edges
        # bound its whole prediction band
        lines = np.flatnonzero(~self._curved)
        edges = self._predict(np.concatenate([lines, lines]), np.concatenate(
            [np.zeros_like(lines), self.lengths[lines] - 1])).reshape(2, -1)
        # the band's ends exactly, as Python ints
        bias = self.biases[lines].astype(object)
        lo = edges.min(axis=0).astype(object) + bias
        hi = edges.max(axis=0).astype(object) + bias \
            + (1 << self.widths[lines].astype(object)) - 1
        fits = (lo >= info.min) & (hi <= info.max)
        bounds = np.empty((len(self.starts), 2), dtype=np.int64)
        bounds[:] = info.min, info.max
        bounds[lines[fits], 0] = lo[fits]
        bounds[lines[fits], 1] = hi[fits]
        bounds.setflags(write=False)
        self._value_bounds = bounds
        return bounds

    def filter_range(self, lo: int, hi: int) -> np.ndarray:
        """Range predicate with model-based partition pruning (§5.1.1).

        The model + residual-width bands decide every partition without
        touching its delta array: one that cannot intersect ``[lo, hi)``
        is all ``False``, one that lies inside it all ``True`` (the bands
        are conservative, so both are sound).  Only the partitions
        straddling ``lo`` or ``hi`` decode and compare.
        """
        bounds = self.partition_value_bounds()
        inside = (bounds[:, 0] >= lo) & (bounds[:, 1] < hi)
        edge = (bounds[:, 1] >= lo) & (bounds[:, 0] < hi) & ~inside
        bitmap = np.repeat(inside, self.lengths)
        if edge.any():
            positions = np.flatnonzero(np.repeat(edge, self.lengths))
            values = self._decode(positions)
            bitmap[positions] = (values >= lo) & (values < hi)
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
        return self._decode(np.arange(self.n), accumulate=True)

    # ---------------------------------------------------------------- size
    def compressed_size_bytes(self) -> int:
        """Length of the raw payload (the envelope header is not counted)."""
        return len(self._image)

    def model_size_bytes(self) -> int:
        """Total bytes spent on model parameters (Fig. 10's cross pattern)."""
        counts = np.array([get_regressor(name).param_count
                           for name in self.regressor_names])
        return 8 * int(counts[self.regressor_ids].sum())

    def compression_ratio(self, uncompressed_bytes: int) -> float:
        """compressed / uncompressed, as a fraction (paper reports %)."""
        return self.compressed_size_bytes() / max(uncompressed_bytes, 1)

    # ------------------------------------------------------- serialisation
    def payload_bytes(self) -> bytes:
        """The raw ``LECO`` image (``to_bytes()`` adds the envelope)."""
        return self._image

    @classmethod
    def assemble(cls, n: int, fixed_size: int | None, default: str,
                 starts, parts: list[tuple[Rows, int]]) -> "CompressedArray":
        """The sequence of ``n`` values whose partitions start at
        ``starts`` and are ``parts`` — ``(rows, r)``: row ``r`` of an
        encoded batch — with its image written.  Partitions name their
        regressor only in a mixed image; a lone family (every partition on
        the encoder's fallback, say) is the header's default, else
        ``default`` is."""
        names = sorted({rows.regressors[r] for rows, r in parts})
        mixed = len(names) > 1
        ids = {name: i for i, name in enumerate(names)}
        default = default if mixed or not names else names[0]
        out = bytearray(MAGIC)
        out.append(VERSION)
        out.append((_FLAG_FIXED if fixed_size is not None else 0)
                   | (_FLAG_MIXED if mixed else 0))
        out.append(len(default))
        out += default.encode()
        out += encode_uvarint(n) + encode_uvarint(len(parts))
        if fixed_size is not None:
            out += encode_uvarint(fixed_size)
        else:
            out += BitPackedArray.from_values(
                np.asarray(starts, dtype=np.uint64)).to_bytes()
        if mixed:
            out.append(len(names))
            for name in names:
                out.append(len(name))
                out += name.encode()
        offsets = []
        for rows, r in parts:
            out += partition_record(
                rows, r, ids[rows.regressors[r]] if mixed else None)
            offsets.append(8 * (len(out) - len(rows.packed[r])))
        params = np.zeros((len(parts), max([2] + [
            rows.params.shape[1] for rows, _ in parts])))
        for j, (rows, r) in enumerate(parts):
            params[j, :rows.params.shape[1]] = rows.params[r]
        fixes = [rows.corrections[r] for rows, r in parts]
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.subtract(starts[1:], starts[:-1])
        return cls(
            bytes(out), n, fixed_size, names or [default], starts,
            np.append(lengths, n - starts[-1:]),
            np.array([ids.get(rows.regressors[r], 0) for rows, r in parts],
                     dtype=np.intp), params,
            np.array([rows.biases[r] for rows, r in parts], dtype=np.int64),
            np.array([rows.widths[r] for rows, r in parts], dtype=np.int64),
            np.array(offsets, dtype=np.int64),
            np.array([f is not None for f in fixes], dtype=bool),
            np.array([(start + pos, diff) for start, f in zip(starts, fixes)
                      for pos, diff in f or ()],
                     dtype=np.int64).reshape(-1, 2))

    @classmethod
    def from_payload(cls, buf: bytes) -> "CompressedArray":
        """Revive an image: the arrays point into ``buf`` itself, which the
        sequence keeps as its image.  Raises a one-line :class:`ValueError`
        on an image that is truncated, runs past its last partition, or
        whose directory does not cover its values exactly once."""
        if buf[:4] != MAGIC:
            raise ValueError("not a LeCo buffer (bad magic)")
        try:
            return cls._parse(buf)
        except IndexError:
            raise ValueError("truncated or corrupt LeCo image") from None

    @classmethod
    def _parse(cls, buf: bytes) -> "CompressedArray":
        if buf[4] != VERSION:
            raise ValueError(f"unsupported version {buf[4]}")
        flags = buf[5]
        offset = 7 + buf[6]
        names = [buf[7: offset].decode()]
        n, offset = decode_uvarint(buf, offset)
        m, offset = decode_uvarint(buf, offset)
        def uncovered() -> ValueError:
            return ValueError(f"LeCo image's {m} partitions do not cover "
                              f"its {n} values exactly once")

        # a partition record takes more than a byte, and every length
        # is an int64: checked before anything is sized by them
        if n >> 63 or m > len(buf) or (n > 0) != (m > 0):
            raise uncovered()
        fixed_size = None
        if flags & _FLAG_FIXED:
            fixed_size, offset = decode_uvarint(buf, offset)
            last = n - (m - 1) * fixed_size
            if m and not 0 < last <= fixed_size:
                raise uncovered()
            starts = list(range(0, n, fixed_size)) if m else []
            lengths = [fixed_size] * (m - 1) + [last] if m else []
        else:
            packed, offset = BitPackedArray.from_bytes(buf, offset)
            starts = packed.to_numpy().tolist()
            lengths = [b - a for a, b in zip(starts, starts[1:] + [n])]
            if len(starts) != m or m and (starts[0] != 0
                                          or min(lengths) <= 0):
                raise uncovered()
        if flags & _FLAG_MIXED:
            count, offset, names = buf[offset], offset + 1, []
            for _ in range(count):
                end = offset + 1 + buf[offset]
                names.append(buf[offset + 1: end].decode())
                offset = end
        counts = [get_regressor(name).param_count for name in names]
        k_max = max([2] + counts)
        # each name's parameter count, whether it decodes serially (a
        # linear model's), and the zero bytes padding its parameters to
        # k_max: looked up once an image, not once a partition
        families = [(k, name == "linear", bytes(8 * (k_max - k)))
                    for k, name in zip(counts, names)]
        mixed = bool(flags & _FLAG_MIXED)
        # one pass over the records fills these lists, one array each
        ids, biases, widths, offsets, serial, param_bytes, corrections = (
            [] for _ in range(7))
        reg = 0
        k, linear, pad = families[0]
        for start, length in zip(starts, lengths):
            if mixed:
                reg, offset = buf[offset], offset + 1
                k, linear, pad = families[reg]
            param_bytes.append(buf[offset: offset + 8 * k] + pad)
            # varints of one byte — most of them — are read inline
            offset += 8 * k
            zz = buf[offset]
            if zz < 0x80:
                offset += 1
            else:
                zz, offset = decode_uvarint(buf, offset)
            bias = (zz >> 1) ^ -(zz & 1)
            flag = buf[offset]
            n_corr = buf[offset + 1]
            if n_corr < 0x80:
                offset += 2
            else:
                n_corr, offset = decode_uvarint(buf, offset + 1)
            pos = start
            for _ in range(n_corr):
                gap = buf[offset]
                if gap < 0x80:
                    offset += 1
                else:
                    gap, offset = decode_uvarint(buf, offset)
                zz = buf[offset]
                if zz < 0x80:
                    offset += 1
                else:
                    zz, offset = decode_uvarint(buf, offset)
                pos += gap
                corrections.append((pos, (zz >> 1) ^ -(zz & 1)))
            # the serial decode is a linear model's; its list patches it
            serial.append(bool(flag) and linear)
            if n_corr and not serial[-1]:
                del corrections[-n_corr:]
            width = buf[offset]
            count = int.from_bytes(buf[offset + 1: offset + 9], "big")
            if count != length or width > 64:
                raise ValueError(f"LeCo partition at {start} stores {count} "
                                 f"{width}-bit slots for its {length} values")
            ids.append(reg)
            biases.append(bias)
            widths.append(width)
            offsets.append(8 * (offset + 9))
            offset += 9 + (count * width + 7) // 8
        if offset != len(buf):
            raise ValueError(f"LeCo image is {len(buf)} bytes but its "
                             f"partitions end at byte {offset}")
        params = np.frombuffer(b"".join(param_bytes),
                               dtype=np.float64).reshape(m, k_max)
        # the int columns as the rows of one array: one conversion
        starts, lengths, ids, biases, widths, offsets, serial = np.array(
            starts + lengths + ids + biases + widths + offsets + serial,
            dtype=np.int64).reshape(7, m)
        return cls(buf, n, fixed_size, names, starts, lengths, ids, params,
                   biases, widths, offsets, serial.astype(bool),
                   np.array(corrections, dtype=np.int64).reshape(-1, 2))
