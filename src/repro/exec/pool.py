"""The morsel scheduler: one worker pool, many concurrent plans.

:class:`MorselScheduler` is the pool :func:`repro.exec.run.execute`
fans granules out on when it is handed one as ``scheduler=``: a fixed
set of worker threads pulls *granules* (not whole queries) from every
in-flight plan, so concurrent queries interleave at morsel granularity
on a bounded number of threads instead of oversubscribing.  A query
given no scheduler runs on its calling thread; there is no
process-wide instance.

* **Dispatch order** — fair: one *run* of consecutive granules per
  in-flight query per turn, round-robin, so no query starves.  The
  tier sizes the run (:meth:`MorselScheduler._run_length`): the thread
  tier always takes one granule; the process tier takes one lane
  message's worth, a run that shrinks as the query's queue drains (see
  :mod:`repro.par.scheduler`).
* **Admission control** — at most ``max_inflight`` queries execute at
  once; up to ``queue_depth`` more park in FIFO order waiting for a
  slot, and anything beyond that is rejected immediately with
  :class:`~repro.exec.errors.ServerBusy` (backpressure, never an
  unbounded pile-up).  Both default to unbounded; the table server
  passes real bounds.
* **Cancellation** — each query hands in the same ``cancel`` event and
  deadline the executor's ``timeout_s`` machinery already uses.  When
  the deadline passes, queued granules are drained without running and
  workers merely finish the granule they already started — exactly the
  cooperative contract :class:`~repro.exec.errors.ExecTimeout`
  documents.

Pool width has one home, the ``workers`` argument, and one default,
:func:`auto_workers`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from repro.exec.errors import ServerBusy
from repro.obs import metrics as obs_metrics


def auto_workers() -> int:
    """Default pool width: one worker per CPU this process may run on
    (its affinity set where the platform has one), at most 8."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 8))


# process-wide scheduler metrics, labelled by scheduler name so every
# instance's series stay distinct
_M_QUERIES = obs_metrics.counter(
    "repro_sched_queries_total",
    "queries by admission outcome (admitted/rejected/expired)",
    labels=("sched", "outcome"))
_M_PARK_WAIT = obs_metrics.histogram(
    "repro_sched_park_wait_seconds",
    "time queries spent parked awaiting an execution slot",
    labels=("sched",))
_M_INFLIGHT = obs_metrics.gauge(
    "repro_sched_inflight", "queries currently executing",
    labels=("sched",))
_M_PARKED = obs_metrics.gauge(
    "repro_sched_parked", "queries currently parked for admission",
    labels=("sched",))
_M_GRANULES = obs_metrics.counter(
    "repro_sched_granules_total", "granules executed by the pool",
    labels=("sched",))


class _Job:
    """One query's granule work registered with the scheduler."""

    __slots__ = ("fn", "queue", "results", "outstanding", "failure",
                 "cancel", "deadline", "done", "executed", "descriptor",
                 "trace", "t_enqueued")

    def __init__(self, fn, items, cancel, deadline, descriptor=None,
                 trace=None):
        self.fn = fn
        self.queue = deque(enumerate(items))
        self.results = [None] * len(items)
        self.outstanding = len(items)
        self.failure: BaseException | None = None
        self.cancel = cancel
        self.deadline = deadline
        self.done = threading.Event()
        self.executed = 0  # granules actually run (metrics, batched)
        # picklable query descriptor: what a process tier runs (the
        # thread tier runs ``fn`` and leaves it None)
        self.descriptor = descriptor
        # the query's Trace (or None): process tiers fold worker-side
        # spans into it as results come off the lane pipes
        self.trace = trace
        self.t_enqueued = time.perf_counter()


class MorselScheduler:
    """A worker pool interleaving granules of many queries.

    Thread-safe; queries enter through :meth:`run_query` (blocking until
    their granules finish) and the pool never grows past ``workers``
    threads no matter how many queries are in flight.
    """

    #: which execution tier this scheduler is: "thread", or "process"
    #: when run_query callers should send a picklable query descriptor
    #: (the process tier ships those to worker processes)
    tier = "thread"

    def __init__(self, workers: int | None = None,
                 max_inflight: int | None = None,
                 queue_depth: int | None = None,
                 name: str = "morsel-scheduler"):
        if workers is None:
            workers = auto_workers()
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}")
        if queue_depth is not None and queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {queue_depth}")
        self.workers = workers
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.name = name
        # bind label children once — admission charges them per query,
        # never paying the label lookup on the hot path
        self._m_admitted = _M_QUERIES.labels(sched=name,
                                             outcome="admitted")
        self._m_rejected = _M_QUERIES.labels(sched=name,
                                             outcome="rejected")
        self._m_expired = _M_QUERIES.labels(sched=name,
                                            outcome="expired")
        self._m_park_wait = _M_PARK_WAIT.labels(sched=name)
        self._m_inflight = _M_INFLIGHT.labels(sched=name)
        self._m_parked = _M_PARKED.labels(sched=name)
        self._m_granules = _M_GRANULES.labels(sched=name)
        self._cond = threading.Condition()
        self._ready: deque[_Job] = deque()   # jobs with queued granules
        self._admit_queue: deque[object] = deque()  # parked FIFO tickets
        self._inflight = 0
        self._closed = False
        self._shutdown = False
        self._threads = [
            threading.Thread(target=self._worker, args=(i,), daemon=True,
                             name=f"{name}-{i}")
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

    # ---------------------------------------------------------- admission
    def _admit(self, deadline: float | None, trace=None) -> bool:
        """Take an execution slot; park FIFO when full.  Returns False
        when the query's deadline expired while parked; raises
        :class:`ServerBusy` when the parking queue is itself full."""
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self.max_inflight is None or (
                    self._inflight < self.max_inflight
                    and not self._admit_queue):
                self._inflight += 1
                self._m_admitted.inc()
                self._m_inflight.inc()
                if trace is not None:
                    now = trace.now()
                    trace.add("admit", now, now, outcome="immediate")
                return True
            if self.queue_depth is not None and \
                    len(self._admit_queue) >= self.queue_depth:
                self._m_rejected.inc()
                raise ServerBusy(
                    f"scheduler at capacity: {self._inflight} queries in "
                    f"flight, {len(self._admit_queue)} parked "
                    f"(max_inflight={self.max_inflight}, "
                    f"queue_depth={self.queue_depth})")
            ticket = object()
            parked_at = time.perf_counter()
            self._admit_queue.append(ticket)
            self._m_parked.inc()
            try:
                while True:
                    if self._closed:
                        self._admit_queue.remove(ticket)
                        self._cond.notify_all()
                        raise RuntimeError("scheduler is closed")
                    if self._admit_queue[0] is ticket and \
                            self._inflight < self.max_inflight:
                        self._admit_queue.popleft()
                        self._inflight += 1
                        self._cond.notify_all()
                        waited = time.perf_counter() - parked_at
                        self._m_park_wait.observe(waited)
                        self._m_admitted.inc()
                        self._m_inflight.inc()
                        if trace is not None:
                            end = trace.now()
                            trace.add("park", end - waited, end,
                                      outcome="admitted")
                        return True
                    timeout = None
                    if deadline is not None:
                        timeout = deadline - time.perf_counter()
                        if timeout <= 0:
                            self._admit_queue.remove(ticket)
                            self._cond.notify_all()
                            waited = time.perf_counter() - parked_at
                            self._m_park_wait.observe(waited)
                            self._m_expired.inc()
                            if trace is not None:
                                end = trace.now()
                                trace.add("park", end - waited, end,
                                          outcome="expired")
                            return False
                    self._cond.wait(timeout)
            finally:
                self._m_parked.dec()

    def _release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._m_inflight.dec()
            self._cond.notify_all()

    # ---------------------------------------------------------- dispatch
    def _drain_locked(self, job: _Job) -> None:
        """Drop a job's queued granules without running them (deadline
        passed or a sibling granule failed)."""
        drained = len(job.queue)
        job.queue.clear()
        try:
            self._ready.remove(job)
        except ValueError:
            pass  # a worker already holds (or finished) the last granule
        job.outstanding -= drained
        if job.outstanding == 0:
            job.done.set()

    def _complete_locked(self, job: _Job, idx: int, result) -> None:
        job.results[idx] = result
        job.outstanding -= 1
        job.executed += 1  # charged to the metric once, in run_query
        if job.outstanding == 0:
            job.done.set()

    def _run_length(self, job: _Job) -> int:
        """How many queued granules of ``job`` one turn takes (called
        under the lock, with at least one queued).  The thread tier
        takes one: nothing is amortised by taking more, and one granule
        per query per turn is its fairness unit.
        :class:`repro.par.ProcessScheduler` overrides this to fill a
        lane message."""
        return 1

    def _run_items(self, worker_idx: int, job: _Job, items: list) -> list:
        """Execute a run of ``job``'s granules; one result per item.
        The thread tier simply calls the job's closure in-process;
        :class:`repro.par.ProcessScheduler` overrides this to ship a
        descriptor-bearing run to the worker process owned by lane
        ``worker_idx`` as one message."""
        return [job.fn(item) for item in items]

    def _worker(self, worker_idx: int) -> None:
        while True:
            with self._cond:
                while not self._ready and not self._shutdown:
                    self._cond.wait()
                if self._shutdown and not self._ready:
                    return
                job = self._ready.popleft()  # round-robin: fair share
                queue = job.queue
                run = [queue.popleft()
                       for _ in range(self._run_length(job))]
                if queue:
                    self._ready.append(job)
            results = [None] * len(run)
            if job.failure is None:
                try:
                    results = self._run_items(
                        worker_idx, job, [item for _, item in run])
                except BaseException as err:  # first failure cancels the job
                    with self._cond:
                        if job.failure is None:
                            job.failure = err
                        job.cancel.set()
                        self._drain_locked(job)
                        for idx, _ in run:
                            self._complete_locked(job, idx, None)
                    continue
            with self._cond:
                for (idx, _), result in zip(run, results):
                    self._complete_locked(job, idx, result)

    # ------------------------------------------------------------- queries
    def run_query(self, fn, items, cancel: threading.Event,
                  deadline: float | None = None, trace=None,
                  descriptor=None) -> list:
        """Run ``fn(item)`` for every item on this pool.

        Blocks until the job finishes (or its deadline drains it) and
        returns results in item order — ``None`` where a granule was
        skipped by cancellation.  The first worker exception re-raises
        here; :class:`ServerBusy` raises before any work when admission
        rejects the query.  ``trace`` (a :class:`repro.obs.Trace`)
        records admit/park spans — passed explicitly, per the obs
        propagation rule.  ``descriptor`` is an optional picklable
        description of the whole query (a
        :class:`repro.par.QueryDescriptor`); the thread tier ignores it,
        and a process tier requires it: its granules run out-of-process,
        never as ``fn``.
        """
        items = list(items)
        if not self._admit(deadline, trace):
            return [None] * len(items)  # deadline spent parked: 0/N ran
        job = _Job(fn, items, cancel, deadline, descriptor, trace)
        try:
            if not items:
                return []
            with self._cond:
                self._ready.append(job)
                self._cond.notify_all()
            while not job.done.wait(
                    timeout=None if deadline is None
                    else max(deadline - time.perf_counter(), 0.0) + 0.01):
                if deadline is not None and \
                        time.perf_counter() > deadline:
                    cancel.set()
                    with self._cond:
                        self._drain_locked(job)
                    job.done.wait()  # in-flight granules finish theirs
                    break
        finally:
            self._release()
            if job.executed:
                self._m_granules.inc(job.executed)
        if job.failure is not None:
            raise job.failure
        return job.results

    # --------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Configuration + current occupancy (for ``/stats``); lifetime
        totals are the ``repro_sched_*`` registry series."""
        with self._cond:
            return {
                "workers": self.workers,
                "tier": self.tier,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "inflight": self._inflight,
                "parked": len(self._admit_queue),
            }

    # ----------------------------------------------------------- lifecycle
    def close(self, drain: bool = True, timeout: float | None = None
              ) -> None:
        """Stop accepting queries; optionally wait for in-flight ones.

        ``drain=True`` blocks (up to ``timeout``) until every admitted
        query finishes before stopping the workers; parked queries are
        woken with an error either way.
        """
        deadline = None if timeout is None \
            else time.perf_counter() + timeout
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            if drain:
                while self._inflight > 0:
                    remaining = None if deadline is None \
                        else deadline - time.perf_counter()
                    if remaining is not None and remaining <= 0:
                        break
                    self._cond.wait(remaining)
            self._shutdown = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MorselScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

