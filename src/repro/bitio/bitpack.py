"""Fixed-width bit packing with O(1) random access.

All codecs in the library store their residual ("delta") arrays with this
format: ``n`` unsigned integers, each occupying exactly ``width`` bits,
concatenated MSB-first into a byte buffer.  ``width == 0`` encodes the
degenerate (but common) case where every value is zero and no payload is
stored at all.

Kernel design
=============

The pack/unpack kernels are *word-parallel*: they never materialise the
``n x width`` per-bit matrix the obvious ``np.unpackbits`` formulation
needs (an O(64x) memory blowup).  Two complementary strategies cover the
access patterns:

**Group (dis)assembly — contiguous pack/unpack.**  ``lcm(width, 8)`` bits
is the smallest byte-aligned repeating unit of the stream, covering
``g = lcm(width, 8) / width`` slots in ``B = lcm(width, 8) / 8`` bytes.
Reshaping the value array into ``(m, g)`` groups (and the byte buffer into
``(m, B)``) makes every group structurally identical, so the slot<->byte
bit routing is a *static* table of at most ``B + g`` (byte, slot) overlap
pairs.  Each pair becomes one whole-array shift/mask/or over the ``m``
groups — roughly 1–9 vector ops per value instead of ``width`` per-bit
ops.  Byte-aligned widths (8/16/32/64) skip even that and go through a
big-endian dtype view (a single ``astype``).

**Covering-window gather — random access.**  A slot of at most 64 bits
lies inside the nine bytes from its first byte on.  :func:`gather_bits`
reads them for *every* requested slot at once — the first eight through
one unaligned big-endian ``u8`` view of the buffer, the ninth (needed only
past 57 bits) by one byte gather — and shifts each slot out.  Every
slot carries its own bit offset and width, so slots of many bit-packed
arrays sharing one buffer (a LeCo image's partitions) are read by one
call.  Windows are clamped to the buffer's end instead of padding it, so
no copy of the payload is ever made.

:meth:`BitPackedArray.gather` exposes the batch kernel; its contract is
``gather(idx)[k] == arr[idx[k]]`` for any integer array ``idx`` (negative
indices wrap once, out-of-range raises ``IndexError``), returning
``uint64`` for ``width <= 64`` and an object array beyond that.  Scalar
``read_slot`` / ``__getitem__`` remain the true O(1) point-read path and
do not touch numpy.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

_U64_MAX = (1 << 64) - 1

#: big-endian dtypes for the byte-aligned fast path
_ALIGNED_DTYPES = {8: ">u1", 16: ">u2", 32: ">u4", 64: ">u8"}


def bits_for_unsigned(value: int) -> int:
    """Number of bits needed to represent the unsigned integer ``value``.

    ``bits_for_unsigned(0) == 0`` by convention: an all-zero array packs to an
    empty payload.
    """
    if value < 0:
        raise ValueError(f"expected unsigned value, got {value}")
    return int(value).bit_length()


@lru_cache(maxsize=None)
def _group_pieces(width: int) -> tuple[int, int, tuple]:
    """Static bit-routing table for the group (dis)assembly kernels.

    Returns ``(g, B, pieces)`` where ``g`` slots occupy ``B`` bytes per
    byte-aligned group and each piece ``(k, b, shift_r, shift_l, mask)``
    routes ``mask``'s worth of bits between slot ``k`` (``>> shift_r``
    from its LSB) and byte ``b`` (``<< shift_l`` from its LSB).
    """
    g = 8 // gcd(width, 8)
    nbytes = width * g // 8
    pieces = []
    for k in range(g):
        lo_bit = k * width
        hi_bit = lo_bit + width
        for b in range(lo_bit // 8, (hi_bit - 1) // 8 + 1):
            lo = max(8 * b, lo_bit)
            hi = min(8 * b + 8, hi_bit)
            shift_r = hi_bit - hi
            shift_l = 8 * b + 8 - hi
            pieces.append((k, b, np.uint64(shift_r), np.uint64(shift_l),
                           np.uint64((1 << (hi - lo)) - 1)))
    return g, nbytes, tuple(pieces)


def pack_unsigned(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` (unsigned, each < 2**width) into an MSB-first buffer."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if width < 0 or width > 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    if width == 0:
        if values.size and int(values.max()) != 0:
            raise ValueError("width 0 requires all values to be zero")
        return b""
    if values.size == 0:
        return b""
    limit = _U64_MAX if width == 64 else (1 << width) - 1
    if int(values.max()) > limit:
        raise ValueError(f"value {int(values.max())} does not fit in {width} bits")
    if width in _ALIGNED_DTYPES:
        return values.astype(_ALIGNED_DTYPES[width]).tobytes()
    n = values.size
    if width == 1:
        return np.packbits(values.astype(np.uint8)).tobytes()
    g = 8 // gcd(width, 8)
    m = -(-n // g)
    if m * g != n:
        padded = np.zeros(m * g, dtype=np.uint64)
        padded[:n] = values
        values = padded
    total = (n * width + 7) // 8
    if width * g <= 64:
        return _pack_tree(values, width, g)[:total]
    return _pack_groups(values, width, m)[:total]


def _pack_tree(values: np.ndarray, width: int, g: int) -> bytes:
    """Pairwise shift/or tree pack for widths with ``lcm(width, 8) <= 64``.

    Adjacent slots merge into double-width words until one byte-aligned
    ``lcm``-bit word per group remains, then the word bytes are emitted
    big-endian — all contiguous (stride-2) array ops, no bit matrices.
    """
    a = values
    combined = width
    for _ in range(g.bit_length() - 1):
        a = (a[0::2] << np.uint64(combined)) | a[1::2]
        combined *= 2
    nbytes = combined // 8
    m = a.size
    out = np.empty((m, nbytes), dtype=np.uint8)
    for b in range(nbytes):
        out[:, b] = (a >> np.uint64(8 * (nbytes - 1 - b))).astype(np.uint8)
    return out.tobytes()


def _pack_groups(values: np.ndarray, width: int, m: int) -> bytes:
    """Group-assembly pack via the static bit-routing table (any width)."""
    g, group_bytes, pieces = _group_pieces(width)
    cols = values.reshape(m, g)
    out = np.zeros((m, group_bytes), dtype=np.uint8)
    for k, b, shift_r, shift_l, mask in pieces:
        piece = (cols[:, k] >> shift_r) & mask
        out[:, b] |= (piece << shift_l).astype(np.uint8)
    return out.tobytes()


def unpack_unsigned(data: bytes, width: int, count: int) -> np.ndarray:
    """Vectorised inverse of :func:`pack_unsigned`; returns ``uint64`` array."""
    if width < 0 or width > 64:
        raise ValueError(f"width must be in [0, 64], got {width}")
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    if width in _ALIGNED_DTYPES:
        return np.frombuffer(data, dtype=_ALIGNED_DTYPES[width],
                             count=count).astype(np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    return _decode_contiguous(raw, width, count)


def _decode_contiguous(raw: np.ndarray, width: int, count: int) -> np.ndarray:
    """Decode ``count`` slots from a byte-aligned ``uint8`` view."""
    if width in _ALIGNED_DTYPES:
        k = width // 8
        if raw.size == count * k and raw.flags.c_contiguous:
            return raw.view(_ALIGNED_DTYPES[width]).astype(np.uint64)
        return np.frombuffer(raw[: count * k].tobytes(),
                             dtype=_ALIGNED_DTYPES[width]).astype(np.uint64)
    if width <= 7:
        return _unpack_bits_small(raw, width, count)
    g = 8 // gcd(width, 8)
    m = -(-count // g)
    need = m * (width * g // 8)
    if raw.size < need:
        padded = np.zeros(need, dtype=np.uint8)
        padded[: raw.size] = raw
        raw = padded
    if width * g <= 64:
        return _unpack_tree(raw[:need], width, count, g)
    return _unpack_groups(raw[:need], width, count, g)


def _unpack_bits_small(raw: np.ndarray, width: int,
                       count: int) -> np.ndarray:
    """Decode widths <= 7 via ``np.unpackbits`` + uint8 column combine."""
    bits = np.unpackbits(raw[: (count * width + 7) // 8],
                         count=count * width)
    if width == 1:
        return bits.astype(np.uint64)
    cols = bits.reshape(count, width)
    acc = cols[:, 0]
    for j in range(1, width):
        acc = (acc << np.uint8(1)) | cols[:, j]
    return acc.astype(np.uint64)


def _unpack_tree(raw: np.ndarray, width: int, count: int,
                 g: int) -> np.ndarray:
    """Pairwise split-tree decode for widths with ``lcm(width, 8) <= 64``."""
    combined = width * g
    nbytes = combined // 8
    byt = np.ascontiguousarray(raw).reshape(-1, nbytes)
    a = byt[:, 0].astype(np.uint64)
    for b in range(1, nbytes):
        a = (a << np.uint64(8)) | byt[:, b]
    while combined > width:
        half = combined // 2
        nxt = np.empty(a.size * 2, dtype=np.uint64)
        nxt[0::2] = a >> np.uint64(half)
        nxt[1::2] = a & np.uint64((1 << half) - 1)
        a = nxt
        combined = half
    return a[:count]


def _unpack_groups(raw: np.ndarray, width: int, count: int,
                   g: int) -> np.ndarray:
    """Group-disassembly decode via the static bit-routing table."""
    _, group_bytes, pieces = _group_pieces(width)
    byt = np.ascontiguousarray(raw).reshape(-1, group_bytes)
    out = np.zeros((byt.shape[0], g), dtype=np.uint64)
    for k, b, shift_r, shift_l, mask in pieces:
        piece = (byt[:, b].astype(np.uint64) >> shift_l) & mask
        out[:, k] |= piece << shift_r
    return out.reshape(-1)[:count]


def gather_bits(data: bytes, bit_starts: np.ndarray, widths) -> np.ndarray:
    """The ``widths[k]``-bit slot (at most 64 bits, MSB-first) starting at
    bit ``bit_starts[k]`` of ``data``, for every ``k`` at once, as
    ``uint64``; ``widths`` may be one width for all.

    A slot of at most 57 bits lies inside the eight bytes from its first
    byte ``b`` on, ``b`` pulled back so they stay inside the buffer: the
    slot is that big-endian word shifted up by its bit offset in it, then
    down by ``64 - width``.  A wider slot may need a ninth byte, shifted
    into place beside the word.  numpy shifts of 64 bits or more give 0:
    the ninth byte's shift in the wrong direction wraps to such a shift,
    and so does the final one of a 0-bit slot.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size < 9:
        buf = np.concatenate([buf, np.zeros(9, dtype=np.uint8)])
    drop = (64 - np.asarray(widths, dtype=np.int64)).astype(np.uint64)
    window = 9 if drop.size and drop.min() < 7 else 8
    words = np.ndarray((buf.size - 7,), dtype=">u8", buffer=buf,
                       strides=(1,))
    byte = np.minimum(bit_starts >> 3, buf.size - window)
    skew = (bit_starts - 8 * byte).view(np.uint64)
    top = words.take(byte)
    top = top.byteswap(inplace=True).view(np.uint64)
    top <<= skew
    if window == 9:
        ninth = buf.take(byte + 8).astype(np.uint64)
        top |= ninth >> (8 - skew) | ninth << (skew - 8)
    top >>= drop
    return top


def pack_unsigned_big(values: list[int], width: int) -> bytes:
    """Pack arbitrary-precision unsigned ints (width may exceed 64 bits).

    Used by the string extension, whose order-preserving string-to-integer
    mapping can exceed the machine word.  A classic MSB-first bit writer.
    """
    if width == 0:
        if any(v != 0 for v in values):
            raise ValueError("width 0 requires all values to be zero")
        return b""
    out = bytearray()
    acc = 0
    nbits = 0
    limit = 1 << width
    for value in values:
        if not 0 <= value < limit:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (acc << width) | value
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def unpack_unsigned_big(data: bytes, width: int, count: int,
                        bit_offset: int = 0) -> list[int]:
    """Chunked inverse of :func:`pack_unsigned_big` for any ``width``.

    Streams the buffer once through a small accumulator (mirroring the
    writer) instead of re-reading the covering bytes per slot, so a range
    decode costs O(total bits) instead of O(count * width) buffer slices.
    ``bit_offset`` positions the first slot at an arbitrary bit.
    """
    if width == 0 or count == 0:
        return [0] * count
    pos = bit_offset >> 3
    skew = bit_offset & 7
    if skew:
        acc = data[pos] & ((1 << (8 - skew)) - 1)
        nbits = 8 - skew
        pos += 1
    else:
        acc = 0
        nbits = 0
    out = []
    mask = (1 << width) - 1
    for _ in range(count):
        while nbits < width:
            acc = (acc << 8) | data[pos]
            pos += 1
            nbits += 8
        nbits -= width
        out.append((acc >> nbits) & mask)
        acc &= (1 << nbits) - 1
    return out


def read_slot(data: bytes, width: int, index: int) -> int:
    """Read the ``index``-th ``width``-bit slot from ``data`` in O(1).

    This is the random-access path used by the decoders: two bounded memory
    reads (the covering bytes) plus shift/mask arithmetic.
    """
    if width == 0:
        return 0
    bit_start = index * width
    bit_end = bit_start + width
    byte_start = bit_start >> 3
    byte_end = (bit_end + 7) >> 3
    chunk = int.from_bytes(data[byte_start:byte_end], "big")
    tail = byte_end * 8 - bit_end
    return (chunk >> tail) & ((1 << width) - 1)


class BitPackedArray:
    """An immutable fixed-width bit-packed vector of unsigned integers.

    Supports O(1) ``__getitem__``, vectorised slicing, batch random access
    via :meth:`gather`, and round-trip serialisation via :meth:`to_bytes` /
    :meth:`from_bytes`.
    """

    __slots__ = ("_data", "_width", "_count")

    def __init__(self, data: bytes, width: int, count: int):
        expected = (count * width + 7) // 8
        if len(data) < expected:
            raise ValueError(
                f"buffer of {len(data)} bytes too small for "
                f"{count} x {width}-bit slots"
            )
        self._data = data
        self._width = width
        self._count = count

    @classmethod
    def from_values(cls, values: np.ndarray, width: int | None = None
                    ) -> "BitPackedArray":
        values = np.asarray(values)
        if values.dtype == object:
            ints = [int(v) for v in values]
            if width is None:
                width = max((v.bit_length() for v in ints), default=0)
            return cls(pack_unsigned_big(ints, width), width, len(ints))
        values = np.ascontiguousarray(values, dtype=np.uint64)
        if width is None:
            width = bits_for_unsigned(int(values.max())) if values.size else 0
        return cls(pack_unsigned(values, width), width, values.size)

    @property
    def width(self) -> int:
        return self._width

    @property
    def nbytes(self) -> int:
        return len(self._data)

    @property
    def data(self) -> bytes:
        return self._data

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"index {index} out of range [0, {self._count})")
        return read_slot(self._data, self._width, index)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Batch random access: ``gather(idx)[k] == self[idx[k]]``.

        Computes the covering-byte windows of all indices at once — the
        vectorised replacement for scalar ``read_slot`` loops.  Returns
        ``uint64`` for ``width <= 64``, an object array beyond that.
        Negative indices wrap once; out-of-range raises ``IndexError``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.zeros(0, dtype=np.uint64)
        indices = np.where(indices < 0, indices + self._count, indices)
        if np.any((indices < 0) | (indices >= self._count)):
            raise IndexError(f"gather index out of range [0, {self._count})")
        if self._width == 0:
            return np.zeros(indices.size, dtype=np.uint64)
        if self._width > 64:
            return np.array(
                [read_slot(self._data, self._width, int(i)) for i in indices],
                dtype=object,
            )
        return gather_bits(self._data, indices * self._width, self._width)

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Decode slots ``[start, stop)`` as a ``uint64`` array."""
        if not 0 <= start <= stop <= self._count:
            raise IndexError(f"bad slice [{start}, {stop}) for {self._count}")
        n = stop - start
        if n == 0 or self._width == 0:
            return np.zeros(n, dtype=np.uint64)
        if self._width > 64:
            return np.array(
                unpack_unsigned_big(self._data, self._width, n,
                                    bit_offset=start * self._width),
                dtype=object,
            )
        bit_lo = start * self._width
        if bit_lo & 7 == 0:
            raw = np.frombuffer(self._data, dtype=np.uint8,
                                offset=bit_lo >> 3)
            return _decode_contiguous(raw, self._width, n)
        # unaligned start: batch-gather the n slot windows
        return gather_bits(self._data, bit_lo + np.arange(n) * self._width,
                           self._width)

    def to_numpy(self) -> np.ndarray:
        return self.slice(0, self._count)

    def to_bytes(self) -> bytes:
        header = self._width.to_bytes(1, "big") + self._count.to_bytes(8, "big")
        return header + self._data

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int = 0
                   ) -> tuple["BitPackedArray", int]:
        if len(buf) < offset + 9:
            raise ValueError(
                f"truncated BitPackedArray header: need 9 bytes at offset "
                f"{offset}, buffer has {len(buf)}"
            )
        width = buf[offset]
        count = int.from_bytes(buf[offset + 1: offset + 9], "big")
        nbytes = (count * width + 7) // 8
        end = offset + 9 + nbytes
        if len(buf) < end:
            raise ValueError(
                f"truncated BitPackedArray payload: header declares "
                f"{nbytes} bytes, buffer has {len(buf) - offset - 9}"
            )
        payload = buf[offset + 9: end]
        return cls(payload, width, count), end

