"""Wire protocol of the table server: length-prefixed frames.

One frame = a 4-byte big-endian payload length followed by that many
payload bytes, at most :data:`MAX_FRAME_BYTES`.  Requests and responses
are single frames on a long-lived connection (a client may pipeline
request after request).  There are two kinds of payload, told apart by
their first bytes, so a connection carries no protocol state:

* a **JSON frame** — one UTF-8 JSON object (starts with ``{``).  Every
  request is one, and so is every response that carries no row data:
  ``ping``, ``stats``, ``metrics``, ``list_tables``, ``explain``, an
  aggregate's ``groups``, and every error.
* a **result frame** — :data:`RESULT_MAGIC`, then one
  :mod:`repro.bitio.colblocks` record (the layout of the WAL's append
  record): a 4-byte little-endian header length, a JSON header, and
  the rows as raw little-endian int64 blocks.  The header is the
  ``result`` object below without ``row_ids``/``columns``, plus
  ``"blocks": [["row_ids", n], [column, n], ...]`` naming each block
  and its value count in order (``row_ids`` first); it is padded with
  spaces so the blocks start 8-byte aligned.  Only the ok-reply to a
  ``query`` that returns rows is sent this way.

Request shape — :data:`REQUEST_FIELDS`, and nothing else::

    {"v": 2, "op": "query" | "explain" | "stats" | "list_tables"
             | "ping" | "metrics",
     "table": "name",            # query / explain
     "plan": {...},              # Plan.to_json() payload
     "timeout_s": 5.0,           # optional per-request deadline
     "limit": 100}               # optional row cap: a query's row plan
                                 # runs as plan.limit(100)

``"v"`` must be :data:`WIRE_VERSION` (what :class:`ServeClient`
sends); any other version, and any field the server does not read, is
refused with a one-line error.

Response shape::

    {"ok": true, "result": {...}}
    {"ok": false, "kind": "ServerBusy", "error": "one line"}

:func:`recv_frame` hands back a result frame in the same shape, with
``row_ids`` and ``columns`` as numpy arrays viewing the receive buffer.
``kind`` names the exception class so the client can re-raise typed
errors (:class:`~repro.exec.errors.ServerBusy`,
:class:`~repro.exec.errors.ExecTimeout`, ...).  Oversized frames and
unknown protocol versions are rejected with one-line errors — a
malformed request never takes the server down.

``stats`` and ``metrics`` are two readings of one ledger: ``metrics``
returns the registry's text exposition, ``stats`` the same registry
diffed against the server's start (see ``TableServer.stats``).
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import fields

import numpy as np

from repro.bitio.colblocks import pack_blocks, unpack_blocks

#: the one wire protocol version, sent by the client and required of
#: every request by the server
WIRE_VERSION = 2

#: refuse frames past this size (corrupt length prefix / abuse guard)
MAX_FRAME_BYTES = 64 << 20

#: request operations the server understands
OPS = ("query", "explain", "stats", "list_tables", "ping", "metrics")

#: the request fields the server reads (anything else is refused)
REQUEST_FIELDS = ("v", "op", "table", "plan", "timeout_s", "limit")

#: first payload bytes of a result frame (a JSON frame starts with "{")
RESULT_MAGIC = b"RPRB"

_LEN = struct.Struct(">I")

#: buffers per ``sendmsg`` call (POSIX guarantees IOV_MAX >= 16; Linux
#: has 1024) — only a reply of hundreds of columns needs a second call
_IOV_BATCH = 512


class WireError(ValueError):
    """The byte stream itself is unusable (bad length, torn frame)."""


# ---------------------------------------------------------------- sending
def _frame(parts: list, what: str = "frame", advice: str = "") -> list:
    """Prefix ``parts`` with their length — refusing, before a byte is
    written, a payload the peer's :func:`recv_frame` would refuse."""
    size = sum(len(part) for part in parts)
    if size > MAX_FRAME_BYTES:
        raise WireError(f"{what} of {size} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte cap{advice}")
    return [_LEN.pack(size), *parts]


def _dumps(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def json_frame(obj: dict) -> list:
    """The buffers of one JSON frame."""
    return _frame([_dumps(obj)])


def result_frame(res, limit: int | None = None,
                 include_rows: bool = True) -> list:
    """The buffers of the ok-reply for an
    :class:`~repro.exec.run.ExecResult`: a result frame when there are
    rows to send, else the JSON frame of :func:`encode_result`.

    The row blocks are ``memoryview`` s of the result's own arrays, so
    the frame is sized — and refused if over the cap — without copying
    them.
    """
    if include_rows and res.groups is None:
        arrays, truncated = _capped_rows(res, limit)
        header = _describe(res)
        header["truncated"] = truncated
        header["blocks"] = [[name, len(values)] for name, values
                            in zip(("row_ids", *res.columns), arrays)]
        parts = [RESULT_MAGIC, *pack_blocks(header, arrays, align=8)]
    else:
        parts = [_dumps({"ok": True, "result": encode_result(
            res, limit=limit, include_rows=include_rows)})]
    return _frame(parts, what="result", advice="; pass limit=")


def write_frame(sock: socket.socket, frame: list) -> None:
    """Write the buffers of one frame with gathered sends — one
    ``sendmsg`` unless the kernel takes only part of it — so neither a
    joined copy of a large reply is built nor a small write is left
    waiting behind Nagle's algorithm for the next one."""
    pending = [memoryview(part) for part in frame if len(part)]
    while pending:
        sent = sock.sendmsg(pending[:_IOV_BATCH])
        while sent and sent >= len(pending[0]):
            sent -= len(pending.pop(0))
        if sent:
            pending[0] = pending[0][sent:]


# -------------------------------------------------------------- receiving
def _recv_exact(sock: socket.socket, n: int,
                keep_waiting) -> bytearray | None:
    """Read exactly ``n`` bytes into one preallocated buffer; ``None``
    on clean EOF at a frame edge."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            count = sock.recv_into(view[got:])
        except socket.timeout:
            if keep_waiting is None or not keep_waiting():
                raise
            continue  # the bytes read so far stay in ``buf``
        if not count:
            if got == 0:
                return None
            raise WireError(f"connection closed mid-frame "
                            f"({got}/{n} bytes)")
        got += count
    return buf


def recv_frame(sock: socket.socket, keep_waiting=None) -> dict | None:
    """Read one frame of either kind; ``None`` when the peer closed
    cleanly.  A result frame comes back as ``{"ok": True, "result":
    {...}}`` whose ``row_ids``/``columns`` are writable int64 arrays
    viewing the frame's receive buffer.

    A socket timeout — before the frame or inside it — asks
    ``keep_waiting()``: true resumes the read where it stopped, so a
    peer that pauses mid-frame loses nothing; false (or no
    ``keep_waiting``) raises :class:`socket.timeout`."""
    header = _recv_exact(sock, _LEN.size, keep_waiting)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds the "
                        f"{MAX_FRAME_BYTES}-byte cap")
    payload = _recv_exact(sock, length, keep_waiting)
    if payload is None:
        raise WireError("connection closed between header and payload")
    if payload.startswith(RESULT_MAGIC):
        return {"ok": True, "result": _decode_result(payload)}
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise WireError(f"frame payload is not valid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise WireError(
            f"frame payload must be a JSON object, "
            f"got {type(obj).__name__}")
    return obj


def _block_counts(header) -> list[int]:
    blocks = header.get("blocks") if isinstance(header, dict) else None
    if not isinstance(blocks, list) or not blocks or not all(
            isinstance(block, list) and len(block) == 2
            and isinstance(block[0], str)
            and isinstance(block[1], int) and block[1] >= 0
            for block in blocks):
        raise ValueError("the header carries no [name, count] block "
                         "list starting with row_ids")
    return [count for _, count in blocks]


def _decode_result(payload: bytearray) -> dict:
    try:
        result, arrays = unpack_blocks(payload, _block_counts,
                                       offset=len(RESULT_MAGIC))
    except ValueError as err:
        raise WireError(f"malformed result frame: {err}") from err
    names = [name for name, _ in result.pop("blocks")]
    result["row_ids"] = arrays[0]
    result["columns"] = dict(zip(names[1:], arrays[1:]))
    return result


# ---------------------------------------------------------------- results
def _describe(res) -> dict:
    """The part of a result both reply kinds carry as JSON.  Groups
    travel as ``[key, row]`` pairs because JSON object keys are
    strings."""
    return {
        "n_rows": int(res.n_rows),
        # a shallow copy: every stats field is a number
        "stats": {f.name: getattr(res.stats, f.name)
                  for f in fields(res.stats)},
        "explain": res.explain(),
        "groups": None if res.groups is None
        else [[key, row] for key, row in res.groups.items()],
    }


def _capped_rows(res, limit: int | None) -> tuple[list, bool]:
    """``row_ids`` and every column, cut to ``limit`` rows (views, not
    copies), and whether fewer rows go out than matched.  A served
    query's limit already ran in its plan (``Plan.limit``), so there the
    cut is a no-op and only the count is compared."""
    kept = len(res.row_ids)
    n = kept if limit is None else min(limit, kept)
    arrays = [values[:n] for values in (res.row_ids,
                                        *res.columns.values())]
    return arrays, n < res.n_rows


def encode_result(res, limit: int | None = None,
                  include_rows: bool = True) -> dict:
    """JSON-encode an :class:`~repro.exec.run.ExecResult` — the
    ``result`` object of a JSON reply (``explain``, ``groups``), with
    any rows as lists.

    ``limit`` caps the row payload (``n_rows`` and the stats always
    describe the full execution); ``include_rows=False`` drops row
    data entirely (the ``explain`` op wants the annotated plan and
    stats, not rows).
    """
    out = _describe(res)
    if include_rows and res.groups is None:
        arrays, truncated = _capped_rows(res, limit)
        # cast first, as the result frame does: whatever dtype a
        # column arrives in, both encodings carry the same integers
        lists = [np.asarray(values, dtype=np.int64).tolist()
                 for values in arrays]
        out["row_ids"] = lists[0]
        out["columns"] = dict(zip(res.columns, lists[1:]))
        out["truncated"] = truncated
    return out


def error_response(err: BaseException) -> dict:
    """One-line typed error frame for any failure."""
    message = str(err).splitlines()[0] if str(err) else type(err).__name__
    return {"ok": False, "kind": type(err).__name__, "error": message}
