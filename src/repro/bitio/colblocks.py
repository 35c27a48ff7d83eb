"""Header + raw int64 column blocks: one layout for disk and socket.

The WAL's append record (:mod:`repro.mutate.wal`) and the table
server's binary row reply (:mod:`repro.serve.wire`) carry the same
thing — a small JSON header and a handful of equally-typed columns —
in the same bytes::

    header_len (4 B LE) | header JSON | block | block | ...

Each block is one column's values as contiguous little-endian int64.
How many values each block holds is the header's business (the WAL
stores one ``n`` for all of them, the wire a ``[name, count]`` list),
so :func:`unpack_blocks` asks its caller to read the counts out of the
header it just parsed.
"""

from __future__ import annotations

import json

import numpy as np

_HLEN = 4


def pack_blocks(header: dict, arrays=(), align: int = 1) -> list:
    """The buffers of one record, in order: length field, header JSON,
    then one ``memoryview`` per array — over the array's own memory
    when it is already contiguous ``<i8``, so nothing is copied until
    the caller writes or joins them.

    ``align`` pads the header with trailing spaces to a multiple of
    that many bytes, for a reader that wants the blocks on a boundary.
    """
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    head += b" " * (-len(head) % align)
    parts: list = [len(head).to_bytes(_HLEN, "little"), head]
    for values in arrays:
        block = np.ascontiguousarray(values, dtype="<i8")
        parts.append(memoryview(block).cast("B"))
    return parts


def unpack_blocks(buf, counts_of, offset: int = 0) -> tuple[dict, list]:
    """Parse one record starting at ``buf[offset]`` and running to the
    end of ``buf``; returns ``(header, arrays)``.

    ``counts_of(header)`` names the value count of every block, in
    order.  The arrays are ``np.frombuffer`` views of ``buf`` (writable
    when ``buf`` is), never copies.  Any disagreement between the
    lengths raises :class:`ValueError`.
    """
    size = len(buf)
    if offset + _HLEN > size:
        raise ValueError("record ends inside its header length field")
    start = offset + _HLEN
    hlen = int.from_bytes(buf[offset:start], "little")
    if start + hlen > size:
        raise ValueError(
            f"header length {hlen} runs past the {size}-byte record")
    header = json.loads(bytes(buf[start:start + hlen]))
    start += hlen
    counts = list(counts_of(header))
    if size - start != 8 * sum(counts):
        raise ValueError(
            f"data section holds {size - start} bytes, the header "
            f"promises {8 * sum(counts)}")
    arrays = []
    for count in counts:
        arrays.append(np.frombuffer(buf, dtype="<i8", count=count,
                                    offset=start))
        start += 8 * count
    return header, arrays
