"""``repro.par`` — process-parallel granule execution.

The exec layer's morsel-driven design and the
:class:`~repro.exec.pool.MorselScheduler` made granules the unit of
scheduling; this package makes them the unit of *multiprocessing*.
Pure-python codec decode (LeCo residuals, rANS, fsst, varint blocks)
serializes under one GIL no matter how many threads run it — served
QPS stayed flat from 8 to 64 clients.  Shards are
mmap-able and snapshots immutable, so worker processes can open tables
read-only (page cache shared for free), be told *which* granule of
*which* pinned query to run via a compact JSON descriptor, and ship
back only partial results — the same order-independent merge contract
the driver already enforces.

Three pieces:

* :class:`~repro.par.descriptor.QueryDescriptor` /
  :func:`~repro.par.descriptor.describe_query` — the picklable,
  JSON-able wire form of one query (table path + pinned generation +
  the PR 7 plan/expr JSON, which carries the pushdown expression).
  Only a source that describes itself has one; any other is refused
  with :class:`TypeError` before admission.
* :mod:`repro.par.worker` — the long-lived worker process: lazy mmap
  opens, cached :class:`~repro.exec.run.GranulePipeline` per
  descriptor, typed error envelopes, and the ``granule.exec`` fault
  hook that lets the crash matrix kill it for real.
* :class:`~repro.par.scheduler.ProcessScheduler` — a drop-in
  :class:`~repro.exec.pool.MorselScheduler` whose lanes dispatch runs
  of granules to worker processes, one message and one reply per run,
  with respawn + retry-once-then-
  :class:`~repro.exec.errors.GranuleError` death semantics.

Pass one to ``execute(..., scheduler=ProcessScheduler(...))`` or point
the server at it with ``--worker-tier process``; a query given no
scheduler runs on its calling thread.  ``REPRO_PAR_START_METHOD``
(:func:`~repro.par.scheduler.default_start_method`) chooses how every
lane worker starts unless a ``ProcessScheduler(start_method=...)``
says otherwise.
"""

from repro.par.descriptor import (
    DESCRIPTOR_VERSION,
    QueryDescriptor,
    describe_query,
)
from repro.par.scheduler import ProcessScheduler, default_start_method
from repro.par.worker import WorkerState, worker_main

__all__ = [
    "DESCRIPTOR_VERSION",
    "ProcessScheduler",
    "QueryDescriptor",
    "WorkerState",
    "default_start_method",
    "describe_query",
    "worker_main",
]
