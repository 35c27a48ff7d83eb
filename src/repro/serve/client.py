"""``ServeClient`` — small blocking client for :class:`TableServer`.

One TCP connection, one request in flight at a time; responses arrive
in request order.  Requests are sent as wire version 2, the only one
there is, so query rows come back as a binary result frame
(:mod:`repro.serve.wire`).  A query carries its table, plan, deadline
and row cap; the server runs it with the executor's defaults.
Server-side failures come back as typed exceptions and leave the
connection usable:
:class:`~repro.exec.errors.ServerBusy` when admission control rejects,
:class:`~repro.exec.errors.ExecTimeout` when the per-request deadline
fires, plain :class:`RuntimeError` carrying the server's one-line
message otherwise.  A transport failure — a socket error, a torn or
malformed reply (:class:`~repro.serve.wire.WireError`) — closes the
connection; every later call raises :class:`ConnectionError`.

::

    with ServeClient(host, port) as client:
        res = client.query("events", plan, timeout_s=5.0, limit=100)
        res["columns"]["value"]        # numpy arrays, limit-capped
        print(client.explain("events", plan)["explain"])
        client.stats()["latency_ms"]["p99"]
"""

from __future__ import annotations

import socket

from repro.exec.errors import CorruptChunkError, ExecTimeout, ServerBusy
from repro.serve import wire

#: server error kinds revived as their local exception types
_TYPED = {
    "ServerBusy": ServerBusy,
    "ExecTimeout": ExecTimeout,
    "CorruptChunkError": CorruptChunkError,
}


class ServeClient:
    """Blocking request/response client over one long-lived socket."""

    def __init__(self, host: str, port: int,
                 connect_timeout_s: float = 5.0):
        self._sock: socket.socket | None = socket.create_connection(
            (host, port), timeout=connect_timeout_s)
        self._sock.settimeout(None)  # requests block until the response

    # ---------------------------------------------------------- transport
    def _call(self, req: dict):
        if self._sock is None:
            raise ConnectionError("the connection is closed")
        req.setdefault("v", wire.WIRE_VERSION)
        frame = wire.json_frame(req)  # too big: refused, nothing sent
        try:
            wire.write_frame(self._sock, frame)
            resp = wire.recv_frame(self._sock)
        except BaseException:
            # whatever stopped the exchange part-way (a torn or
            # malformed reply, a socket error, an interrupt), unread
            # bytes may remain: the stream cannot carry another request
            self.close()
            raise
        if resp is None:
            self.close()
            raise ConnectionError("server closed the connection")
        if resp.get("ok"):
            return resp["result"]
        kind = resp.get("kind", "RuntimeError")
        message = resp.get("error", "server error")
        raise _TYPED.get(kind, RuntimeError)(message)

    # ----------------------------------------------------------------- ops
    def ping(self) -> str:
        return self._call({"op": "ping"})

    def list_tables(self) -> list[str]:
        return self._call({"op": "list_tables"})

    def stats(self) -> dict:
        """Load, latency, cache and scheduler report: the counts are
        the server's metrics registry (what :meth:`metrics` returns)
        since that server started."""
        return self._call({"op": "stats"})

    def metrics(self) -> str:
        """The server's Prometheus text exposition (the same body the
        HTTP ``/metrics`` endpoint serves when enabled)."""
        return self._call({"op": "metrics"})

    def query(self, table: str, plan, timeout_s: float | None = None,
              limit: int | None = None) -> dict:
        """Execute ``plan`` (a :class:`~repro.exec.plan.Plan` or an
        already-encoded plan dict) and return the decoded result:
        ``n_rows`` / ``stats`` / ``explain`` plus either ``groups``
        (list of ``[key, row]`` pairs) or ``row_ids``/``columns``
        capped at ``limit``, with ``truncated`` saying whether the cap
        cut anything.  The server runs a row plan as
        ``plan.limit(limit)``, so only the kept rows are gathered;
        ``n_rows`` and ``stats`` still count every match.

        The rows are writable ``int64`` arrays that are views of this
        reply's receive buffer (nothing is parsed or copied per
        element); keeping any one of them alive keeps the whole reply's
        bytes alive, so ``.copy()`` a column to hold on to it alone."""
        return self._call(self._request("query", table, plan,
                                        timeout_s, limit))

    def explain(self, table: str, plan,
                timeout_s: float | None = None) -> dict:
        """Execute and return stats + annotated plan, no row payload."""
        return self._call(self._request("explain", table, plan,
                                        timeout_s, None))

    @staticmethod
    def _request(op, table, plan, timeout_s, limit) -> dict:
        payload = plan.to_json() if hasattr(plan, "to_json") else plan
        req: dict = {"op": op, "table": table, "plan": payload}
        if timeout_s is not None:
            req["timeout_s"] = timeout_s
        if limit is not None:
            req["limit"] = limit
        return req

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
