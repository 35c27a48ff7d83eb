"""Write-ahead log of one mutable table (length-prefixed, checksummed).

Every mutation is logged *before* it touches the memtable, so reopening
a table replays exactly the operations that were acknowledged and a
crash loses at most the records that never finished hitting the disk.
The file layout::

    +------+-----+----------------------------------------------+
    | RPWL | ver |  record  record  record ...                  |
    | 4 B  | 1 B |                                              |
    +------+-----+----------------------------------------------+

    record := payload_len (4 B LE) | crc32(payload) (4 B LE) | payload
    payload := op (1 B: A/U/D) | header_len (4 B LE) | header JSON | data

Everything after the op byte is one :mod:`repro.bitio.colblocks` record
(the table server's binary row reply is the other user of that layout).
``A`` (append) carries the batch schema in the header and the raw
column values — int64 little-endian, one contiguous block per column in
header order — as the data section.  ``U`` (update-by-key) and ``D``
(delete-by-predicate) are header-only: the update's key/values and the
delete's serialised predicate tree are logical, so replay re-derives
the affected rows deterministically from the state it rebuilt so far.

Recovery (:func:`replay`) walks records until the first frame whose
length or checksum fails — a torn tail written mid-crash — and returns
everything before it.  The WAL is *generational*: ``wal-<gen>.log``
applies on top of manifest generation ``gen``, so a flush that published
generation ``g+1`` but crashed before deleting ``wal-<g>.log`` cannot
double-apply on reopen (the stale file's generation no longer matches).
"""

from __future__ import annotations

import os
import time
import zlib

import numpy as np

from repro import faults
from repro.bitio.colblocks import pack_blocks, unpack_blocks
from repro.exec.expr import And, Expr, InSet, Or, Range
from repro.obs import metrics as obs_metrics

_M_APPENDS = obs_metrics.counter(
    "repro_wal_appends_total", "records framed into a WAL")
_M_BYTES = obs_metrics.counter(
    "repro_wal_bytes_total", "framed bytes written to WALs")
_M_FSYNC = obs_metrics.histogram(
    "repro_wal_fsync_seconds", "WAL fsync latency (sync=True only)")

#: WAL file leading magic
WAL_MAGIC = b"RPWL"
#: WAL layout version
WAL_VERSION = 1
#: header: magic + version byte
WAL_HEADER_LEN = len(WAL_MAGIC) + 1
#: record frame: 4-byte LE payload length + 4-byte LE crc32
FRAME_LEN = 8

OP_APPEND = b"A"
OP_UPDATE = b"U"
OP_DELETE = b"D"


def wal_file_name(generation: int) -> str:
    return f"wal-{generation:06d}.log"


# ------------------------------------------------------ expr (de)serialise
def expr_to_doc(expr: Expr) -> dict:
    """Serialise a delete predicate (Range/InSet/And/Or trees only —
    positional terms like Bitmap are snapshot-relative and not logged)."""
    if isinstance(expr, Range):
        return {"t": "range", "c": expr.column, "lo": expr.lo,
                "hi": expr.hi}
    if isinstance(expr, InSet):
        return {"t": "in", "c": expr.column,
                "v": [int(x) for x in expr.values]}
    if isinstance(expr, And):
        return {"t": "and", "ch": [expr_to_doc(c) for c in expr.children]}
    if isinstance(expr, Or):
        return {"t": "or", "ch": [expr_to_doc(c) for c in expr.children]}
    raise TypeError(
        f"cannot log a {type(expr).__name__} predicate to the WAL "
        "(only Range / InSet / And / Or trees are replayable)")


def expr_from_doc(doc: dict) -> Expr:
    kind = doc["t"]
    if kind == "range":
        return Range(doc["c"], doc["lo"], doc["hi"])
    if kind == "in":
        return InSet(doc["c"], doc["v"])
    if kind == "and":
        return And.of(*(expr_from_doc(c) for c in doc["ch"]))
    if kind == "or":
        return Or.of(*(expr_from_doc(c) for c in doc["ch"]))
    raise ValueError(f"unknown predicate node type {kind!r} in WAL")


# ------------------------------------------------------------ records
# every payload is the op byte + one ``colblocks`` record: header-only
# for U/D, header + one block per column for A
def _encode_append(columns: dict[str, np.ndarray]) -> bytes:
    names = list(columns)
    n = len(next(iter(columns.values())))
    return b"".join([OP_APPEND, *pack_blocks(
        {"columns": names, "n": n}, [columns[name] for name in names])])


def _encode_update(key_column: str, key: int, values: dict) -> bytes:
    return b"".join([OP_UPDATE, *pack_blocks(
        {"key_column": key_column, "key": int(key),
         "values": {k: int(v) for k, v in values.items()}})])


def _encode_delete(expr: Expr) -> bytes:
    return b"".join([OP_DELETE, *pack_blocks(
        {"predicate": expr_to_doc(expr)})])


def _append_counts(header: dict) -> list[int]:
    return [header["n"]] * len(header["columns"])


def _decode_payload(payload: bytes):
    """One replayable record: ``("append", columns)`` /
    ``("update", key_column, key, values)`` / ``("delete", expr)``."""
    op = payload[:1]
    if op == OP_APPEND:
        header, blocks = unpack_blocks(payload, _append_counts, offset=1)
        # the blocks are read-only views of the log's bytes; the
        # memtable gets its own arrays
        return ("append", {name: block.astype(np.int64)
                           for name, block in zip(header["columns"],
                                                  blocks)})
    header, _ = unpack_blocks(payload, lambda _header: (), offset=1)
    if op == OP_UPDATE:
        return ("update", header["key_column"], int(header["key"]),
                {k: int(v) for k, v in header["values"].items()})
    if op == OP_DELETE:
        return ("delete", expr_from_doc(header["predicate"]))
    raise ValueError(f"unknown WAL op {op!r}")


class WriteAheadLog:
    """Appender for one generation's WAL file (open or create)."""

    def __init__(self, path: str, sync: bool = False):
        self.path = path
        self.sync = sync
        fresh = not os.path.exists(path) or \
            os.path.getsize(path) < WAL_HEADER_LEN
        self._fh = open(path, "ab")
        if fresh:
            self._fh.truncate(0)
            self._fh.write(WAL_MAGIC + bytes([WAL_VERSION]))
            self._fh.flush()

    def _write(self, payload: bytes) -> None:
        frame = (len(payload).to_bytes(4, "little")
                 + zlib.crc32(payload).to_bytes(4, "little") + payload)
        faults.write_through("wal.append", self._fh, frame)
        self._fh.flush()
        _M_APPENDS.inc()
        _M_BYTES.inc(len(frame))
        if self.sync:
            faults.fire("wal.fsync", path=self.path)
            t0 = time.perf_counter()
            os.fsync(self._fh.fileno())
            _M_FSYNC.observe(time.perf_counter() - t0)

    def log_append(self, columns: dict[str, np.ndarray]) -> None:
        self._write(_encode_append(columns))

    def log_update(self, key_column: str, key: int,
                   values: dict) -> None:
        self._write(_encode_update(key_column, key, values))

    def log_delete(self, expr: Expr) -> None:
        self._write(_encode_delete(expr))

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def replay(path: str) -> list:
    """Decode every committed record, tolerating a torn tail.

    Frames are accepted until the first length/checksum violation; a
    record truncated mid-write (the crash case the property suite
    exercises) and anything after it are discarded.  A missing or
    headerless file replays as empty.
    """
    return _scan(path)[0]


def recover(path: str) -> list:
    """:func:`replay`, plus repair: the torn tail (if any) is truncated
    away so records appended by the reopened table land directly after
    the last committed one instead of behind unreadable garbage."""
    return recover_with_report(path)[0]


def recover_with_report(path: str) -> tuple[list, dict]:
    """:func:`recover`, reporting what the repair dropped.

    The torn/corrupt tail is preserved verbatim as a
    ``<wal>.log.corrupt`` forensics sidecar before the live file is
    truncated — recovery never silently destroys the only evidence of
    what a crash interrupted.  Returns ``(records, report)`` where
    ``report`` holds ``records`` (committed count), ``bytes_dropped``,
    ``records_dropped`` (best-effort frame count in the tail), and
    ``sidecar`` (the forensics path, or ``None`` when the log was
    clean).
    """
    records, valid = _scan(path)
    report = {"records": len(records), "bytes_dropped": 0,
              "records_dropped": 0, "sidecar": None}
    try:
        size = os.path.getsize(path)
    except FileNotFoundError:
        return records, report
    if size > valid:
        with open(path, "rb") as fh:
            fh.seek(valid)
            tail = fh.read()
        sidecar = path + ".corrupt"
        with open(sidecar, "wb") as fh:
            fh.write(tail)
        os.truncate(path, valid)
        report.update(bytes_dropped=len(tail),
                      records_dropped=_count_tail_frames(tail),
                      sidecar=sidecar)
    return records, report


def _count_tail_frames(tail: bytes) -> int:
    """Best-effort frame count in a torn/corrupt tail (length prefixes
    may themselves be garbage, so this is forensic, not exact)."""
    count, pos = 0, 0
    while pos + FRAME_LEN <= len(tail):
        plen = int.from_bytes(tail[pos: pos + 4], "little")
        count += 1
        pos += FRAME_LEN + plen
    if pos < len(tail):
        count = max(count, 1)  # a frame header torn mid-write
    return count


def _scan(path: str) -> tuple[list, int]:
    """Decode committed records; returns ``(records, valid_bytes)``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        return [], 0
    if len(blob) < WAL_HEADER_LEN or blob[:4] != WAL_MAGIC:
        return [], 0
    if blob[4] > WAL_VERSION:
        raise ValueError(
            f"WAL format version {blob[4]} is newer than the supported "
            f"version {WAL_VERSION}; upgrade the reader")
    records = []
    pos = WAL_HEADER_LEN
    while pos + FRAME_LEN <= len(blob):
        plen = int.from_bytes(blob[pos: pos + 4], "little")
        crc = int.from_bytes(blob[pos + 4: pos + 8], "little")
        start = pos + FRAME_LEN
        if start + plen > len(blob):
            break  # torn tail: record never finished hitting the disk
        payload = blob[start: start + plen]
        if zlib.crc32(payload) != crc:
            break  # corrupt frame — nothing after it is trustworthy
        records.append(_decode_payload(payload))
        pos = start + plen
    return records, pos
