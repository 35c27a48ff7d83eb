"""`ProcessScheduler`: the morsel scheduler's multiprocessing tier.

Same interface, same admission control, same dispatch order — what
changes is *where a granule's CPU burns*, and how many granules one
dispatch carries.  The scheduler keeps the base class's worker threads,
but each thread owns a **lane**: one long-lived worker process plus a
duplex pipe.  Every job carries a descriptor (see
:mod:`repro.par.descriptor`; :func:`repro.exec.run.execute` refuses a
source that cannot describe itself before admission) and is executed
by sending the lane's worker a compact
``(seq, desc_id, desc?, evict?, [granule_index, ...], budget_s)`` task
and waiting for the one reply that carries a partial per granule;
pure-python codec decode then runs under the *worker's* GIL, N of them
truly in parallel.  A query's in-process closure never runs on a
lane.

**One lane message per run of granules.**  Every pipe round-trip costs
the driver a pickle, send, poll, receive, unpickle and scheduler-lock
pass — driver CPU that competes with the lanes for the same cores — so
a lane takes a *run* of consecutive queued granules of one job per
turn (:func:`run_length`).  A small job — ``RUN_DIVISOR * lanes`` or
fewer survivors in all — is one run: a selective query's few survivors
cross to one lane as one message, where spreading them would buy
parallelism their handful of granules cannot repay.  A larger job is
guided self-scheduled, ``ceil(queued / (RUN_DIVISOR * lanes))`` a run:
runs shrink as the queue drains, so the lanes finish together, and its
last ``RUN_DIVISOR * lanes`` granules go down one at a time.  On this
tier fairness between concurrent queries is therefore one run per
query per turn (the thread tier keeps one granule).  The driver
completes each granule of a reply separately, so results,
``ExecStats``, granule spans and ``repro_par_granules_total`` stay per
granule.

Death is a first-class event, not a hang: the lane thread polls with a
short timeout and watches ``Process.is_alive()``.  A lane that dies in
the middle of a run gives no sign of which granule killed it, so each
granule of that message is re-sent alone; a lone granule is retried
**once** on a freshly respawned worker, and dying again surfaces a
typed :class:`~repro.exec.errors.GranuleError` through the ordinary
first-failure-cancels-the-job machinery.  Query cancellation (deadline,
sibling failure) *abandons* the wait instead: every granule of the run
reads as not completed, and stale results are discarded by sequence
number on the lane's next dispatch.  The task carries the query's
remaining time, so the worker starts no granule of an abandoned run
past the deadline and the lane is free again within one batch (the
worker runs a run as batches of consecutive granules, see
:func:`repro.exec.run.batches`).

**The driver owns each worker's pipeline cache.**  ``_Lane.sent_descs``
is the one LRU of the descriptor ids a lane's worker holds, at most
:data:`MAX_CACHED_PIPELINES`; :func:`cache_decision` says whether a
task carries its descriptor and which id the worker must drop.  The
worker obeys on receipt, so — the pipe being FIFO and one thread
owning each lane — the two sides hold the same ids by construction,
and a respawned worker starts empty on both.

The driver keeps everything else: merge, ``ExecStats`` accounting,
deadlines, metrics (plus the per-worker ``repro_par_*`` families this
module adds).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
from collections import OrderedDict, namedtuple

from repro.exec.errors import GranuleError
from repro.exec.pool import MorselScheduler, _Job, auto_workers
from repro.exec.run import granule_span_attrs
from repro.obs import metrics as obs_metrics
from repro.par.worker import revive_error, worker_main

__all__ = ["MAX_CACHED_PIPELINES", "ProcessScheduler", "cache_decision",
           "default_start_method", "run_length"]

#: env var overriding the default multiprocessing start method
START_METHOD_ENV = "REPRO_PAR_START_METHOD"

#: seconds between liveness/cancel checks while a lane waits on its pipe
POLL_INTERVAL_S = 0.05

#: 1-in-N sampling for the per-message lane-health histograms
#: (roundtrip, dispatch wait): a single-granule message can take
#: microseconds, two histogram observes each is real overhead against
#: the obs budget, and latency quantiles survive sampling just fine
OBS_SAMPLE = 4

#: guided self-scheduling divisor: a lane message takes
#: ``ceil(queued / (RUN_DIVISOR * lanes))`` granules.  Swept on a 2-core
#: box (a 496-granule aggregate on 2 lanes): divisors 2, 4 and 8 all cut
#: the driver's CPU from ≈ 83 ms a query at one granule a message to
#: 20-27 ms, with wall times inside each other's quartiles; 4 halves
#: the first run of 2 (62 granules, ≈ 25 ms of lane time — what a
#: concurrent query may wait behind) for ≈ 4 ms more driver CPU
RUN_DIVISOR = 4

#: prepared pipelines a lane's worker holds: descriptors are per query,
#: so this bounds a worker's memory and open tables across many
#: concurrent queries (the least recently sent is dropped first)
MAX_CACHED_PIPELINES = 16

_M_WORKERS = obs_metrics.gauge(
    "repro_par_workers", "live worker processes per process scheduler",
    labels=("sched",))
_M_GRANULES = obs_metrics.counter(
    "repro_par_granules_total",
    "granules dispatched to worker processes by outcome "
    "(ok/error/retried/abandoned), counted per granule whatever lane "
    "message carried it",
    labels=("sched", "outcome"))
_M_RESPAWNS = obs_metrics.counter(
    "repro_par_respawns_total",
    "worker processes respawned after an unexpected death",
    labels=("sched",))
_M_BYTES = obs_metrics.counter(
    "repro_par_bytes_total",
    "bytes crossing worker pipes (descriptors+tasks sent, "
    "partials received)",
    labels=("sched", "direction"))
_M_ROUNDTRIP = obs_metrics.histogram(
    "repro_par_pipe_roundtrip_seconds",
    "task send to result receive per lane message, per lane pipe",
    labels=("sched",))
_M_DISPATCH_WAIT = obs_metrics.histogram(
    "repro_par_dispatch_wait_seconds",
    "time a query sat queued before a lane picked up a run of it, "
    "per lane message",
    labels=("sched",))


def default_start_method() -> str:
    """``REPRO_PAR_START_METHOD`` if set, else ``fork`` where the
    platform offers it (cheapest: workers inherit imports and the
    installed fault injector), else ``spawn``."""
    env = os.environ.get(START_METHOD_ENV)
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def run_length(queued: int, lanes: int, total: int) -> int:
    """Granules the next lane message of a job of ``total`` granules
    takes while ``queued`` of them wait across ``lanes`` lanes.  A job
    of ``RUN_DIVISOR * lanes`` or fewer granules goes whole; a larger
    one is guided self-scheduled, ``ceil(queued / (RUN_DIVISOR *
    lanes))`` — one granule once ``RUN_DIVISOR * lanes`` or fewer are
    queued."""
    share = RUN_DIVISOR * lanes
    if total <= share:
        return queued
    return -(-queued // share)


def cache_decision(sent: OrderedDict, desc_id: int
                   ) -> tuple[bool, int | None]:
    """Whether a lane's next task for ``desc_id`` carries its descriptor,
    and the id its worker must drop first (``None``: none).  ``sent`` —
    the ids that worker holds, least recently sent first — is updated to
    what the worker will hold once it has read that task."""
    if desc_id in sent:
        sent.move_to_end(desc_id)
        return False, None
    sent[desc_id] = None
    if len(sent) > MAX_CACHED_PIPELINES:
        return True, sent.popitem(last=False)[0]
    return True, None


class _LaneDead(Exception):
    """Internal: the lane's worker process died mid-conversation."""

    def __init__(self, exitcode):
        super().__init__(f"worker exitcode {exitcode}")
        self.exitcode = exitcode


#: a query descriptor prepared for the pipe: stable id + JSON
_WireDescriptor = namedtuple("_WireDescriptor", "desc_id payload")


class _Lane:
    """One worker process + pipe, owned by exactly one lane thread."""

    __slots__ = ("ctx", "name", "index", "fault_spec", "proc", "conn",
                 "seq", "sent_descs", "pid", "tid", "epoch0")

    def __init__(self, ctx, name: str, index: int,
                 fault_spec: dict | None):
        self.ctx = ctx
        self.name = name
        self.index = index
        self.fault_spec = fault_spec
        self.proc = None
        self.conn = None
        self.seq = 0
        self.start()

    def start(self) -> None:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=worker_main,
            # the obs kill switch rides the ctor spec like fault_spec
            # does — spawn-started workers inherit no module globals
            args=(child_conn, self.fault_spec, obs_metrics.enabled()),
            name=self.name, daemon=True)
        proc.start()
        child_conn.close()  # the worker holds the only live child end
        self.proc = proc
        self.conn = parent_conn
        # the descriptor ids this lane's worker holds, least recently
        # sent first: the one record of its pipeline cache (a fresh
        # worker holds none)
        self.sent_descs: OrderedDict[int, None] = OrderedDict()
        # learned from the worker's hello envelope: its real pid and
        # main-thread id, and its wall-clock value at
        # perf_counter()==0 — the anchor that re-maps worker span
        # timestamps onto a driver trace
        self.pid: int | None = None
        self.tid = 0
        self.epoch0: float | None = None

    def exitcode(self):
        if self.proc is None:
            return None
        self.proc.join(timeout=0.2)  # reap so the exitcode is visible
        return self.proc.exitcode

    def shutdown(self, timeout: float = 2.0) -> None:
        if self.conn is not None:
            try:
                self.conn.send_bytes(pickle.dumps(("exit",)))
            except (BrokenPipeError, OSError, ValueError):
                pass
        if self.proc is not None:
            self.proc.join(timeout=timeout)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=timeout)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=timeout)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        self.conn = None


class ProcessScheduler(MorselScheduler):
    """A :class:`MorselScheduler` whose granules run in worker processes.

    Parameters beyond the base class:

    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` picks
        :func:`default_start_method`.  ``fork`` is cheapest and shares
        the parent's imports; ``spawn`` is the portable/cautious choice
        (and what macOS and Windows force).
    fault_spec:
        A :meth:`repro.faults.FaultInjector.to_spec` dict installed in
        every worker — how the crash matrix arms ``granule.exec`` rules
        under ``spawn``, where workers inherit nothing.
    """

    tier = "process"

    def __init__(self, workers: int | None = None,
                 max_inflight: int | None = None,
                 queue_depth: int | None = None,
                 name: str = "process-scheduler",
                 start_method: str | None = None,
                 fault_spec: dict | None = None):
        if start_method is None:
            start_method = default_start_method()
        if start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start_method {start_method!r} unavailable here; "
                f"supported: "
                f"{', '.join(multiprocessing.get_all_start_methods())}")
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._fault_spec = fault_spec
        self._desc_ids = itertools.count(1)
        self._terminating = False
        self._m_workers = _M_WORKERS.labels(sched=name)
        self._m_ok = _M_GRANULES.labels(sched=name, outcome="ok")
        self._m_error = _M_GRANULES.labels(sched=name, outcome="error")
        self._m_retried = _M_GRANULES.labels(sched=name,
                                             outcome="retried")
        self._m_abandoned = _M_GRANULES.labels(sched=name,
                                               outcome="abandoned")
        self._m_respawns = _M_RESPAWNS.labels(sched=name)
        self._m_sent = _M_BYTES.labels(sched=name, direction="sent")
        self._m_received = _M_BYTES.labels(sched=name,
                                           direction="received")
        self._m_roundtrip = _M_ROUNDTRIP.labels(sched=name)
        self._m_dispatch_wait = _M_DISPATCH_WAIT.labels(sched=name)
        self._obs_tick = 0
        # build lanes BEFORE the base class starts its threads: forking
        # a process that is not yet multi-threaded sidesteps the whole
        # fork-with-held-locks class of bugs for the children
        resolved = auto_workers() if workers is None else workers
        if resolved < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self._lanes = [
            _Lane(self._ctx, f"{name}-worker-{i}", i, fault_spec)
            for i in range(resolved)]
        self._m_workers.set(len(self._lanes))
        try:
            super().__init__(workers=resolved, max_inflight=max_inflight,
                             queue_depth=queue_depth, name=name)
        except BaseException:
            for lane in self._lanes:
                lane.shutdown(timeout=0.5)
            self._m_workers.set(0)
            raise

    # -------------------------------------------------------- run_query
    def run_query(self, fn, items, cancel, deadline=None, trace=None,
                  descriptor=None) -> list:
        wire = _WireDescriptor(next(self._desc_ids), descriptor.to_json())
        return super().run_query(fn, items, cancel, deadline,
                                 trace=trace, descriptor=wire)

    # ------------------------------------------------------- lane logic
    def _run_length(self, job: _Job) -> int:
        return run_length(len(job.queue), len(self._lanes),
                          len(job.results))

    def _run_items(self, worker_idx: int, job: _Job, items: list) -> list:
        # racy tick is fine: approximate 1-in-OBS_SAMPLE is the goal
        self._obs_tick += 1
        if self._obs_tick % OBS_SAMPLE == 0:
            self._m_dispatch_wait.observe(
                max(0.0, time.perf_counter() - job.t_enqueued))
        return self._send(self._lanes[worker_idx], job, job.descriptor,
                          items)

    def _send(self, lane: _Lane, job: _Job, wire: _WireDescriptor,
              items: list) -> list:
        """One result per item, from one lane message while the worker
        lives: a run whose worker died is re-sent a granule at a time,
        and a lone granule is retried once on a respawned worker."""
        attempt = 0
        while True:
            try:
                return self._dispatch(lane, job, wire, items)
            except _LaneDead as dead:
                self._respawn(lane)
                if len(items) > 1:
                    # nothing says which granule killed the worker: each
                    # goes again alone, with its own retry-once budget
                    self._m_retried.inc(len(items))
                    return [part for item in items
                            for part in self._send(lane, job, wire,
                                                   [item])]
                attempt += 1
                if attempt >= 2:
                    self._m_error.inc()
                    raise GranuleError(
                        RuntimeError(
                            f"worker process died twice running this "
                            f"granule (last exitcode {dead.exitcode})"),
                        granule=items[0].index) from None
                self._m_retried.inc()

    def _respawn(self, lane: _Lane) -> None:
        if self._terminating:
            return
        try:
            lane.conn.close()
        except (OSError, AttributeError):
            pass
        if lane.proc is not None:
            lane.proc.join(timeout=1.0)
        lane.start()
        self._m_respawns.inc()

    def _dispatch(self, lane: _Lane, job: _Job, wire: _WireDescriptor,
                  items: list) -> list:
        if lane.conn is None or lane.proc is None or \
                not lane.proc.is_alive():
            raise _LaneDead(lane.exitcode())
        lane.seq += 1
        seq = lane.seq
        send, evict = cache_decision(lane.sent_descs, wire.desc_id)
        # the remaining budget, not the driver's clock: the worker
        # derives its own deadline from it
        budget_s = None if job.deadline is None \
            else job.deadline - time.perf_counter()
        message = pickle.dumps(
            ("task", seq, wire.desc_id, wire.payload if send else None,
             evict, [item.index for item in items], budget_s),
            protocol=pickle.HIGHEST_PROTOCOL)
        try:
            lane.conn.send_bytes(message)
        except (BrokenPipeError, OSError, ValueError):
            # the respawn that follows empties both caches
            raise _LaneDead(lane.exitcode()) from None
        self._m_sent.inc(len(message))
        t_sent = time.perf_counter()
        while True:
            try:
                ready = lane.conn.poll(POLL_INTERVAL_S)
            except (AttributeError, BrokenPipeError, OSError):
                # AttributeError: close() tore the lane down under us
                raise _LaneDead(lane.exitcode()) from None
            if ready:
                result = self._receive(lane, seq, job, items)
                if result is not _PENDING:
                    if self._obs_tick % OBS_SAMPLE == 0:
                        self._m_roundtrip.observe(
                            time.perf_counter() - t_sent)
                    return result
                continue
            if not lane.proc.is_alive():
                # drain anything written just before death; the result
                # for our seq may have made it out
                try:
                    while lane.conn.poll(0):
                        result = self._receive(lane, seq, job, items)
                        if result is not _PENDING:
                            return result
                except (BrokenPipeError, OSError, EOFError):
                    pass
                raise _LaneDead(lane.exitcode())
            if self._terminating or job.cancel.is_set() or (
                    job.deadline is not None
                    and time.perf_counter() > job.deadline):
                # abandon: the worker stops at its copy of the deadline
                # (or finishes the run into the pipe); the stale result
                # is skipped by seq on this lane's next dispatch
                if job.deadline is not None and \
                        time.perf_counter() > job.deadline:
                    job.cancel.set()
                self._m_abandoned.inc(len(items))
                return [None] * len(items)

    def _receive(self, lane: _Lane, seq: int, job: _Job | None,
                 items: list):
        """One message off the lane pipe; ``_PENDING`` when it was a
        handshake, telemetry, or a stale (abandoned) result for an
        earlier seq.  Telemetry deltas are folded into the process-wide
        registry whatever envelope they rode in on — a stale result's
        worker activity still happened."""
        try:
            raw = lane.conn.recv_bytes()
        except (AttributeError, EOFError, OSError):
            raise _LaneDead(lane.exitcode()) from None
        status, rseq, payload, delta = pickle.loads(raw)
        if delta is not None:
            self._fold_telemetry(lane, delta)
        if status == "hello":
            lane.pid = payload["pid"]
            lane.tid = payload["tid"]
            lane.epoch0 = payload["epoch0"]
            return _PENDING
        if status == "telemetry" or rseq != seq:
            return _PENDING
        self._m_received.inc(len(raw))
        if status == "ok":
            done = 0
            for item, part in zip(items, payload):
                if part is not None:
                    done += 1
                    self._adopt_spans(lane, job, part, item)
            if done:
                self._m_ok.inc(done)
            if done < len(items):
                # the worker's copy of the deadline passed first
                self._m_abandoned.inc(len(items) - done)
            return payload
        self._m_error.inc()
        granule, info = payload
        raise revive_error(info, granule)

    def _fold_telemetry(self, lane: _Lane, delta: dict) -> None:
        try:
            obs_metrics.default_registry().merge(
                delta, proc=f"w{lane.index}")
        except ValueError:
            # a conflicting family must not fail the query it rode
            # along with; the conformance tests keep both sides honest
            pass

    def _adopt_spans(self, lane: _Lane, job: _Job | None,
                     part, item) -> None:
        """Fold a worker partial's spans into the query trace.  The
        wire carries ``(granule_start, granule_end, extra_spans)`` —
        the worker ships only the "granule" span's two timestamps (see
        :meth:`repro.par.worker.WorkerState.run_granules`) and its attrs
        are rebuilt here from ``part.stats``."""
        wire = getattr(part, "spans", None)
        if not wire:
            return
        part.spans = None
        if job is None or job.trace is None or lane.epoch0 is None:
            return
        shift = lane.epoch0 - job.trace.epoch
        pid = lane.pid or 0
        proc = f"w{lane.index}"
        g_start, g_end, extra = wire
        job.trace.adopt(
            [("granule", g_start, g_end, lane.tid,
              granule_span_attrs(item.index, part.stats))],
            shift=shift, pid=pid, proc=proc)
        if extra:
            job.trace.adopt(extra, shift=shift, pid=pid, proc=proc)

    # ------------------------------------------------------------ stats
    def stats(self) -> dict:
        out = super().stats()
        out["start_method"] = self.start_method
        out["workers_alive"] = sum(
            1 for lane in self._lanes
            if lane.proc is not None and lane.proc.is_alive())
        return out

    # -------------------------------------------------------- lifecycle
    def close(self, drain: bool = True, timeout: float | None = None
              ) -> None:
        super().close(drain, timeout)
        # after this point any lane death is teardown, not a failure
        self._terminating = True
        for lane in self._lanes:
            # ask the worker out, then drain everything it wrote until
            # the pipe goes EOF — idle flushes, stale abandoned
            # results, and the final telemetry it sends on exit
            try:
                lane.conn.send_bytes(pickle.dumps(("exit",)))
                while lane.conn.poll(1.0):
                    msg = pickle.loads(lane.conn.recv_bytes())
                    if len(msg) == 4 and msg[3] is not None:
                        self._fold_telemetry(lane, msg[3])
            except (EOFError, OSError, ValueError,
                    pickle.UnpicklingError, AttributeError):
                pass
            lane.shutdown()
        self._m_workers.set(0)


#: sentinel for "message consumed but not ours" in the receive loop
_PENDING = object()
