"""Bit-level I/O primitives shared by every codec in the library.

The module provides three building blocks:

* :class:`BitPackedArray` — a fixed-width bit-packed vector of unsigned
  integers with O(1) random slot access and vectorised full decode.
* zigzag transforms for mapping signed integers onto unsigned ones.
* LEB128-style varints used by the block compressor and string codecs.

:mod:`repro.bitio.colblocks` is the odd one out — byte-level, not
bit-level: the header + raw int64 column-block record that the WAL's
append record and the table server's binary row reply share.
"""

from repro.bitio.bitpack import (
    BitPackedArray,
    bits_for_unsigned,
    pack_unsigned,
    pack_unsigned_big,
    unpack_unsigned,
    unpack_unsigned_big,
    gather_bits,
    read_slot,
)
from repro.bitio.varint import (
    encode_uvarint,
    decode_uvarint,
    encode_svarint,
    decode_svarint,
)
from repro.bitio.zigzag import zigzag_encode, zigzag_decode

__all__ = [
    "BitPackedArray",
    "bits_for_unsigned",
    "pack_unsigned",
    "pack_unsigned_big",
    "unpack_unsigned",
    "unpack_unsigned_big",
    "gather_bits",
    "read_slot",
    "encode_uvarint",
    "decode_uvarint",
    "encode_svarint",
    "decode_svarint",
    "zigzag_encode",
    "zigzag_decode",
]
