"""`ProcessScheduler`: the morsel scheduler's multiprocessing tier.

Same interface, same admission control, same dispatch order — the only
thing that changes is *where a granule's CPU burns*.  The scheduler
keeps the base class's worker threads, but each thread owns a **lane**: one
long-lived worker process plus a duplex pipe.  A descriptor-bearing job
(see :mod:`repro.par.descriptor`) is executed by sending the lane's
worker a compact ``(seq, desc_id, desc?, granule_index)`` task and
waiting for the partial to come back; pure-python codec decode then
runs under the *worker's* GIL, N of them truly in parallel.  Jobs with
no descriptor (in-memory sources) simply run the driver closure on the
lane thread — thread-tier semantics, transparently.

Death is a first-class event, not a hang: the lane thread polls with a
short timeout and watches ``Process.is_alive()``.  A dead worker's
in-flight granule is retried **once** on a freshly respawned worker;
dying again surfaces a typed :class:`~repro.exec.errors.GranuleError`
through the ordinary first-failure-cancels-the-job machinery.  Query
cancellation (deadline, sibling failure) *abandons* the wait instead —
the worker finishes its granule into the pipe, and stale results are
discarded by sequence number on the lane's next dispatch.

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

from repro.exec.errors import GranuleError
from repro.exec.pool import MorselScheduler, _Job, auto_workers
from repro.exec.run import granule_span_attrs
from repro.obs import metrics as obs_metrics
from repro.par.worker import revive_error, worker_main

__all__ = ["ProcessScheduler", "default_start_method"]

#: env var overriding the default multiprocessing start method
START_METHOD_ENV = "REPRO_PAR_START_METHOD"

#: seconds between liveness/cancel checks while a lane waits on its pipe
POLL_INTERVAL_S = 0.05

#: 1-in-N sampling for the per-granule lane-health histograms
#: (roundtrip, dispatch wait).  Granules can be microseconds; two
#: histogram observes per granule is real overhead against the obs
#: budget, and latency quantiles survive sampling just fine
OBS_SAMPLE = 4

_M_WORKERS = obs_metrics.gauge(
    "repro_par_workers", "live worker processes per process scheduler",
    labels=("sched",))
_M_GRANULES = obs_metrics.counter(
    "repro_par_granules_total",
    "granules dispatched to worker processes by outcome "
    "(ok/error/retried/abandoned)",
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
    "task send to result receive per granule, per lane pipe",
    labels=("sched",))
_M_DISPATCH_WAIT = obs_metrics.histogram(
    "repro_par_dispatch_wait_seconds",
    "time a granule sat queued before a lane picked it up",
    labels=("sched",))
_M_NEEDDESC = obs_metrics.counter(
    "repro_par_needdesc_total",
    "descriptor resends after a worker-side pipeline-LRU eviction",
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


class _LaneDead(Exception):
    """Internal: the lane's worker process died mid-conversation."""

    def __init__(self, exitcode):
        super().__init__(f"worker exitcode {exitcode}")
        self.exitcode = exitcode


class _WireDescriptor:
    """A query descriptor prepared for the pipe: stable id + JSON."""

    __slots__ = ("desc_id", "payload")

    def __init__(self, desc_id: int, payload: dict):
        self.desc_id = desc_id
        self.payload = payload


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
        self.sent_descs: set[int] = set()
        # filled in by the worker's hello envelope: its real pid and
        # main-thread id, and its wall-clock value at
        # perf_counter()==0 — the anchor that re-maps worker span
        # timestamps onto a driver trace
        self.pid: int | None = None
        self.tid: int = 0
        self.epoch0: float | None = None
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
        self.sent_descs = set()  # a fresh worker has no cached pipelines
        self.pid = None          # re-learned from the next hello
        self.tid = 0
        self.epoch0 = None

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
    wants_descriptors = True

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
        self._m_needdesc = _M_NEEDDESC.labels(sched=name)
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
        if descriptor is not None and \
                not isinstance(descriptor, _WireDescriptor):
            descriptor = _WireDescriptor(next(self._desc_ids),
                                         descriptor.to_json())
        return super().run_query(fn, items, cancel, deadline,
                                 trace=trace, descriptor=descriptor)

    # ------------------------------------------------------- lane logic
    def _run_item(self, worker_idx: int, job: _Job, item):
        wire = job.descriptor
        if wire is None:
            # no descriptor (in-memory source): thread-tier fallback
            return job.fn(item)
        lane = self._lanes[worker_idx]
        # racy tick is fine: approximate 1-in-OBS_SAMPLE is the goal
        self._obs_tick += 1
        if self._obs_tick % OBS_SAMPLE == 0:
            self._m_dispatch_wait.observe(
                max(0.0, time.perf_counter() - job.t_enqueued))
        attempt = 0
        while True:
            try:
                return self._dispatch(lane, job, wire, item)
            except _LaneDead as dead:
                self._respawn(lane)
                attempt += 1
                if attempt >= 2:
                    self._m_error.inc()
                    raise GranuleError(
                        RuntimeError(
                            f"worker process died twice running this "
                            f"granule (last exitcode {dead.exitcode})"),
                        granule=getattr(item, "index", -1)) from None
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
                  item):
        for _ in range(2):
            result = self._dispatch_once(lane, job, wire, item)
            if result is not _NEED_DESC:
                return result
            # the worker's pipeline LRU evicted this descriptor (many
            # concurrent queries on one lane): resend it with the
            # granule — one extra round-trip, never a failed query
            self._m_needdesc.inc()
            lane.sent_descs.discard(wire.desc_id)
        raise GranuleError(
            RuntimeError("worker kept requesting a descriptor that "
                         "was just resent"),
            granule=getattr(item, "index", -1))

    def _dispatch_once(self, lane: _Lane, job: _Job,
                       wire: _WireDescriptor, item):
        if lane.conn is None or lane.proc is None or \
                not lane.proc.is_alive():
            raise _LaneDead(lane.exitcode())
        lane.seq += 1
        seq = lane.seq
        desc_json = None if wire.desc_id in lane.sent_descs \
            else wire.payload
        message = pickle.dumps(
            ("task", seq, wire.desc_id, desc_json,
             getattr(item, "index", item)),
            protocol=pickle.HIGHEST_PROTOCOL)
        try:
            lane.conn.send_bytes(message)
        except (BrokenPipeError, OSError, ValueError):
            raise _LaneDead(lane.exitcode()) from None
        lane.sent_descs.add(wire.desc_id)
        self._m_sent.inc(len(message))
        t_sent = time.perf_counter()
        while True:
            try:
                ready = lane.conn.poll(POLL_INTERVAL_S)
            except (AttributeError, BrokenPipeError, OSError):
                # AttributeError: close() tore the lane down under us
                raise _LaneDead(lane.exitcode()) from None
            if ready:
                result = self._receive(lane, seq, job, item)
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
                        result = self._receive(lane, seq, job, item)
                        if result is not _PENDING:
                            return result
                except (BrokenPipeError, OSError, EOFError):
                    pass
                raise _LaneDead(lane.exitcode())
            if self._terminating or job.cancel.is_set() or (
                    job.deadline is not None
                    and time.perf_counter() > job.deadline):
                # abandon: the worker finishes into the pipe; the stale
                # result is skipped by seq on this lane's next dispatch
                if job.deadline is not None and \
                        time.perf_counter() > job.deadline:
                    job.cancel.set()
                self._m_abandoned.inc()
                return None

    def _receive(self, lane: _Lane, seq: int, job: _Job | None, item):
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
            lane.tid = payload.get("tid", 0)
            lane.epoch0 = payload["epoch0"]
            return _PENDING
        if status == "telemetry" or rseq != seq:
            return _PENDING
        self._m_received.inc(len(raw))
        if status == "ok":
            self._m_ok.inc()
            self._adopt_spans(lane, job, payload, item)
            return payload
        if status == "needdesc":
            return _NEED_DESC
        self._m_error.inc()
        raise revive_error(payload, getattr(item, "index", -1))

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
        :meth:`repro.par.worker.WorkerState.run_granule`) and its attrs
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
              granule_span_attrs(getattr(item, "index", item),
                                 part.stats))],
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
#: sentinel for "worker evicted this descriptor; resend and retry"
_NEED_DESC = object()
