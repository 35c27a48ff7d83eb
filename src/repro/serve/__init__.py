"""``repro.serve`` — concurrent query serving over the store.

Many clients, one process, shared resources: a
:class:`~repro.serve.server.TableServer` multiplexes every in-flight
query's granules onto one :class:`~repro.exec.pool.MorselScheduler`
and revives chunks through one :class:`~repro.store.cache.ChunkCache`,
speaking the length-prefixed JSON protocol of
:mod:`repro.serve.wire`::

    server = TableServer(root, max_inflight=8).start()
    host, port = server.address
    with ServeClient(host, port) as client:
        res = client.query("events", plan, timeout_s=5.0, limit=100)
    server.shutdown()           # graceful: in-flight requests finish

or from a shell::

    python -m repro.serve --root data/ --port 7317

Overload surfaces as :class:`~repro.exec.errors.ServerBusy` (admission
control, never a hang); per-request deadlines reuse the executor's
cooperative :class:`~repro.exec.errors.ExecTimeout` machinery.
"""

from repro.exec.errors import ExecTimeout, ServerBusy
from repro.exec.pool import MorselScheduler
from repro.serve.client import ServeClient
from repro.serve.server import TableServer
from repro.serve.wire import MAX_FRAME_BYTES, WIRE_VERSION, WireError

__all__ = [
    "ExecTimeout",
    "MAX_FRAME_BYTES",
    "MorselScheduler",
    "ServeClient",
    "ServerBusy",
    "TableServer",
    "WIRE_VERSION",
    "WireError",
]
