"""The worker-process side of the process tier: loop, caches, errors.

:func:`worker_main` is the entry point of one long-lived worker.  It
speaks a tiny length-prefixed pickle protocol over its duplex pipe::

    ("task", seq, desc_id, desc_json | None, evict_id | None,
     [granule_index, ...], budget_s | None)                   # driver →
    ("ok",  seq, [_Partial | None, ...], delta | None)        # ← worker
    ("err", seq, (granule_index, error_envelope), delta | None)  # ←
    ("hello", 0, {"pid", "tid", "epoch0"}, None)              # ← worker
    ("telemetry", 0, None, delta)                             # ← worker
    ("exit",)                                                 # driver →

A task carries a *run* of consecutive granule indexes of one query
(one, once the query's queue runs short — see
:mod:`repro.par.scheduler`).  The worker cuts the run into batches
(:func:`repro.exec.run.batches`) and runs them in order, each one
:meth:`~repro.exec.run.GranulePipeline.run_batch` call, and replies
once, with one partial per granule; the first failure ends the run
with ``err`` naming the granule that failed.  ``budget_s`` is the
query's remaining time when the driver sent the task (``None``: no
deadline).  The worker adds it to its own clock, so no clock is shared,
and starts no granule once that deadline has passed — each granule it
skips replies ``None``, which the driver counts as not completed.  An
abandoned run thus holds its lane for at most the batch it was in.

Every worker → driver envelope carries an optional *telemetry delta* —
a :func:`repro.obs.metrics.snapshot_delta` of the worker's own metrics
registry since the last envelope — which the driver folds into the
process-wide registry under the lane's ``proc`` label.  ``hello`` is
sent once at startup (and after every respawn) and carries the
worker's pid plus its wall-clock epoch at ``perf_counter() == 0``, the
anchor the driver uses to re-map worker span timestamps onto a query
trace.  When the pipe stays quiet for :data:`IDLE_FLUSH_S`, the worker
pushes an unsolicited ``telemetry`` envelope so gauges and background
activity reach ``/metrics`` without query traffic.

The driver owns the worker's pipeline cache (see
:func:`repro.par.scheduler.cache_decision`).  ``desc_json`` rides
along only when the lane's worker does not hold ``desc_id``; afterwards
``desc_id`` alone names the cached, already-validated
:class:`~repro.exec.run.GranulePipeline`.  ``evict_id`` is the one id
the worker must drop first.  The worker obeys both on receipt, before
any deadline check, and keeps no order or bound of its own: the pipe is
FIFO and one driver thread owns each lane, so the worker holds exactly
the driver's ``sent_descs`` for that lane.  A bare ``desc_id`` it does
not hold is therefore a protocol fault, answered with a typed ``err``.
Tables are opened lazily, read-only, via mmap — the OS page cache is
shared between workers, so N workers do not read the bytes N times —
and stay open only while a cached pipeline names them.

Exceptions cannot cross the pipe as-is (the exec error types take
keyword-only constructor context, which default pickling loses), so
:func:`encode_error` flattens them into plain dicts and
:func:`revive_error` rebuilds the *same* typed exception driver-side —
a worker-side :class:`~repro.exec.errors.CorruptChunkError` or
:class:`~repro.exec.errors.GranuleError` surfaces to callers exactly
like its in-process twin.

Fault injection: the ``granule.exec`` hook fires as each granule's
work starts.  A ``crash`` rule there — or any
:class:`~repro.faults.SimulatedCrash` the pipeline raises, a crash at
``chunk.read`` say — calls ``os._exit``: the worker
*really* dies mid-granule, so the crash matrix exercises the driver's
true death-detection / respawn / retry path, not a simulation of it.
A death part-way through a run loses the whole reply; the driver
re-sends that run's granules one per message.  ``fork``-started
workers inherit the installed injector; spawned ones receive a
:meth:`~repro.faults.FaultInjector.to_spec` dict.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import threading
import time
import traceback

from repro import faults
from repro.exec.errors import CorruptChunkError, GranuleError
from repro.exec.run import GranulePipeline, _Partial, batches
from repro.faults import FaultInjector, SimulatedCrash
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Trace
from repro.par.descriptor import QueryDescriptor

__all__ = ["CRASH_EXIT_CODE", "IDLE_FLUSH_S", "WorkerState",
           "encode_error", "revive_error", "worker_main"]

#: exit status of a worker killed by an injected ``granule.exec`` crash
CRASH_EXIT_CODE = 113

#: quiet-pipe interval after which a worker flushes telemetry unasked
IDLE_FLUSH_S = 0.5

#: floor between registry snapshots — a snapshot walks every series,
#: which dwarfs a microsecond granule, so result envelopes carry a
#: delta at most this often (forced flushes — idle, exit — bypass it)
TELEMETRY_MIN_INTERVAL_S = 0.05

#: the heap a worker keeps: freed memory below this much at the top of
#: its heap is not handed back to the kernel, and arrays up to
#: ``_HEAP_MMAP_MAX`` come from that heap (glibc ``mallopt`` settings)
_HEAP_KEEP = 32 << 20
_HEAP_MMAP_MAX = 4 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3

# Charged worker-side, merged into the driver under the lane's ``proc``
# label — the per-lane work signal ``obs top`` reads (the driver never
# increments its own unlabelled series).
_M_WORKER_GRANULES = obs_metrics.counter(
    "repro_par_worker_granules_total",
    "granules executed inside this worker process (charged once per "
    "lane message, by the number of its granules that started)")


# ----------------------------------------------------------- error wire
def encode_error(err: BaseException) -> dict:
    """Flatten an exception into a picklable/JSON-able envelope."""
    if isinstance(err, GranuleError):
        return {
            "kind": "granule",
            "message": str(err),
            "granule": err.granule,
            "shard": err.shard,
            "column": err.column,
            "cause": encode_error(err.cause),
        }
    if isinstance(err, CorruptChunkError):
        return {
            "kind": "corrupt",
            "message": str(err),
            "file": err.file,
            "column": err.column,
            "row_start": err.row_start,
            "n_rows": err.n_rows,
        }
    return {
        "kind": "other",
        "type": type(err).__name__,
        "message": str(err),
        "traceback": "".join(traceback.format_exception(err))[-2000:],
    }


def revive_error(info: dict, granule_index: int) -> BaseException:
    """Rebuild the typed exception a worker shipped as an envelope.

    The exec error types carry keyword-only context appended into their
    message by ``__init__``; reviving through ``__new__`` + attribute
    assignment preserves the worker's exact message without
    double-rendering that suffix.
    """
    kind = info.get("kind")
    if kind == "corrupt":
        err = CorruptChunkError.__new__(CorruptChunkError)
        ValueError.__init__(err, info["message"])
        err.file = info.get("file")
        err.column = info.get("column")
        err.row_start = info.get("row_start")
        err.n_rows = info.get("n_rows")
        return err
    if kind == "granule":
        gerr = GranuleError.__new__(GranuleError)
        RuntimeError.__init__(gerr, info["message"])
        gerr.granule = info.get("granule", granule_index)
        gerr.shard = info.get("shard")
        gerr.column = info.get("column")
        gerr.cause = revive_error(info.get("cause") or {}, granule_index)
        gerr.__cause__ = gerr.cause
        return gerr
    # protocol-level worker failures (generation drift, bad descriptor,
    # unexpected exceptions outside the pipeline) arrive typed too
    cause = RuntimeError(
        f"{info.get('type', 'Error')}: {info.get('message', '')}")
    return GranuleError(cause, granule=granule_index)


# -------------------------------------------------------- worker caches
class WorkerState:
    """Per-process caches: prepared pipelines and the tables they read.

    The driver decides what the pipeline cache holds; :meth:`admit`
    obeys a task's orders, so the cache is a plain ``desc_id`` → entry
    dict with no order or bound of its own.  A table stays open only
    while a cached pipeline names it.
    """

    def __init__(self):
        self._sources: dict[tuple, object] = {}
        # desc_id -> (pipeline, source, trace_enabled), or the error
        # its descriptor failed to build with: the id is held either
        # way, so this dict's keys stay the driver's ``sent_descs``
        self._pipelines: dict[int, tuple | Exception] = {}
        # one reusable span recorder for every traced granule: a fresh
        # Trace per granule costs a wall-clock read + two allocations
        # inside the hot loop, and only the span list and t0 matter
        # here — timestamps ship as absolute perf_counter values, so a
        # long-lived t0 rebases exactly the same way
        self._trace: Trace | None = None

    def _source_for(self, desc: QueryDescriptor):
        key = (desc.table_path, desc.version, desc.cache_bytes)
        source = self._sources.get(key)
        if source is None:
            from repro.store.executor import StoreSource
            from repro.store.table import Table

            # a held snapshot of the same table and cache budget lends
            # its open shard files to the new generation: each file is
            # mapped once however many generations name it
            held = [src.table for (path, _, cache_bytes), src
                    in self._sources.items()
                    if (path, cache_bytes) == (desc.table_path,
                                               desc.cache_bytes)]
            table = held[-1].successor(desc.version) if held else \
                Table.open(desc.table_path, version=desc.version,
                           cache_bytes=desc.cache_bytes)
            source = StoreSource(table)
            self._sources[key] = source
        return source

    def _build(self, desc: QueryDescriptor) -> tuple:
        source = self._source_for(desc)
        if source.table.generation != desc.version or \
                source.n_rows != desc.n_rows or \
                len(source.granules()) != desc.n_granules:
            raise RuntimeError(
                f"generation drift: descriptor pinned "
                f"{desc.table_path!r} version={desc.version} with "
                f"{desc.n_rows} rows / {desc.n_granules} granules, "
                f"worker opened version={source.table.generation} with "
                f"{source.n_rows} rows / "
                f"{len(source.granules())} granules")
        # the driver pruned before dispatch: every granule sent here
        # survived its zone maps, so testing them again is wasted work
        pipeline = GranulePipeline(
            desc.build_plan(), source, prune=False,
            on_corruption=desc.on_corruption)
        return pipeline, source, desc.trace_enabled

    def admit(self, desc_id: int, desc_json: dict | None,
              evict: int | None) -> None:
        """Obey a task's cache orders: drop ``evict``, then build and
        store ``desc_json`` under ``desc_id`` when it came along.  A
        descriptor that fails to build is stored as its error, which
        every run of that id raises.  Closes each table no cached
        pipeline names any more."""
        if evict is None and desc_json is None:
            return
        self._pipelines.pop(evict, None)
        if desc_json is not None:
            try:
                self._pipelines[desc_id] = self._build(
                    QueryDescriptor.from_json(desc_json))
            except SimulatedCrash:
                raise
            except Exception as err:  # noqa: BLE001 — raised per run
                self._pipelines[desc_id] = err
        named = {entry[1] for entry in self._pipelines.values()
                 if isinstance(entry, tuple)}
        for key, source in list(self._sources.items()):
            if source not in named:
                del self._sources[key]
                source.table.close()

    def run_task(self, desc_id: int, desc_json: dict | None,
                 evict: int | None, indices: list,
                 budget_s: float | None) -> tuple:
        """One task message: ``("ok", [partial | None, ...])`` or
        ``("err", (granule_index, error_envelope))``.  The cache orders
        apply first, whatever the deadline.  The run is cut into batches
        (:func:`repro.exec.run.batches`), each one
        :meth:`~repro.exec.run.GranulePipeline.run_batch` call; no
        granule starts once ``budget_s`` (seconds from now; ``None``: no
        deadline) is spent, and each one skipped replies ``None`` — so
        an abandoned run holds its lane for at most the batch it was
        in."""
        deadline = None if budget_s is None \
            else time.perf_counter() + budget_s
        self.admit(desc_id, desc_json, evict)
        # [the granule whose work started last — what a failure naming
        # no granule of its own is charged to —, granules started]
        progress = [indices[0] if indices else None, 0]
        try:
            reply = "ok", self.run_granules(desc_id, indices, deadline,
                                            progress)
        except SimulatedCrash:
            raise
        except BaseException as err:  # noqa: BLE001 — everything ships back
            index = err.granule if isinstance(err, GranuleError) \
                and err.granule is not None else progress[0]
            reply = "err", (index, encode_error(err))
        if progress[1]:
            _M_WORKER_GRANULES.inc(progress[1])
        return reply

    def run_granules(self, desc_id: int, indices: list,
                     deadline: float | None = None,
                     progress: list | None = None) -> list:
        """The partials of a run of granule ``indices`` from the cached
        pipeline ``desc_id``, batch by batch; ``None`` for each granule
        that ``deadline`` (this process's ``perf_counter``) passed
        before its work started.  The ``granule.exec`` fault hook fires
        as each granule's work starts, which ``progress`` records as
        ``[its index, granules started]``."""
        if deadline is not None and time.perf_counter() > deadline:
            # the driver has abandoned this run: start nothing
            return [None] * len(indices)
        entry = self._pipelines.get(desc_id)
        if entry is None:
            raise LookupError(
                f"descriptor {desc_id} is not cached on this lane")
        if isinstance(entry, Exception):
            raise entry
        pipeline, source, trace_enabled = entry
        granules = source.granules()
        for granule_index in indices:
            if not 0 <= granule_index < len(granules):
                raise RuntimeError(
                    f"granule index {granule_index} out of range "
                    f"(worker sees {len(granules)} granules)")
        table = os.path.basename(getattr(source.table, "path", ""))

        def before(granule) -> None:
            if progress is not None:
                progress[0] = granule.index
                progress[1] += 1
            # the crash-matrix hook: a crash rule here kills the *process*
            faults.fire("granule.exec", granule=granule.index, table=table)

        local = None
        if trace_enabled:
            local = self._trace
            if local is None:
                local = self._trace = Trace("granule")
        parts: list = []
        for batch in batches([granules[i] for i in indices]):
            if local is not None:
                local._spans.clear()
            got = pipeline.run_batch(batch, deadline=deadline,
                                     trace=local, before=before)
            if local is not None:
                _ship_spans(local, batch, got)
            parts += got
        return parts


def _ship_spans(local: Trace, batch: list, parts: list) -> None:
    """Attach each partial's spans, recorded into the reused local
    trace, re-based to *absolute* perf_counter timestamps — the driver
    turns those into trace offsets via the hello epoch.  The "granule"
    span only repeats numbers that already travel in ``part.stats``, so
    it collapses to its two timestamps on the wire and the driver
    resynthesizes the attrs (a traced scan records one such span per
    granule; the pickle cost of its attrs dict is the bulk of the
    tracing overhead budget on the process tier)."""
    t0 = local.t0
    own: dict = {granule.index: [] for granule in batch}
    bounds: dict = {}
    for name, start, end, tid, attrs in local._spans:
        index = attrs.get("granule")
        if name == "granule":
            bounds[index] = (t0 + start, t0 + end)
        elif index in own:
            own[index].append((name, t0 + start, t0 + end, tid, attrs))
    for granule, part in zip(batch, parts):
        if part is not None:
            start, end = bounds[granule.index]
            part.spans = (start, end, own[granule.index] or None)


# ----------------------------------------------------------- main loop
def _telemetry_delta(prev: dict | None) -> tuple[dict | None, dict | None]:
    """(delta to ship or None, new baseline snapshot).

    Skipped entirely when the kill switch is off — function-backed
    gauges read live state regardless of the switch, so snapshotting
    while disabled would leak telemetry the ≤5 % budget promised away.
    """
    if not obs_metrics.enabled():
        return None, prev
    snap = obs_metrics.default_registry().snapshot()
    delta = obs_metrics.snapshot_delta(prev, snap)
    return (delta or None), snap


def keep_freed_memory() -> None:
    """Let this worker process reuse the heap its batches free.

    A batch allocates and frees the same few arrays of up to a few
    hundred KiB, thousands of times a query.  glibc's defaults hand a
    freed heap top above 128 KiB back to the kernel (and serve larger
    arrays by ``mmap``), so each next batch faults those pages in again:
    on the benchmark's cold full aggregate, 13 000 minor faults an op a
    lane, a fifth of its CPU; smaller batches fault less but keep
    little of their gain.  A worker is long-lived and its working set is
    bounded by one batch, so it raises both thresholds once at start.
    Where ``mallopt`` is missing (no glibc) nothing changes.  The calling
    thread and a thread pool run in the host's process, whose allocator
    this package leaves alone: they run one granule a call
    (:data:`repro.exec.run.BATCH_ROWS`)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP)
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_MAX)


def worker_main(conn, fault_spec: dict | None = None,
                obs_enabled: bool = True) -> None:
    """Run one worker process until ``("exit",)`` or pipe EOF.

    ``obs_enabled`` mirrors the driver's :func:`repro.obs.set_enabled`
    state at lane start — spawn-started workers do not inherit module
    globals, so the kill switch rides the ctor spec like ``fault_spec``
    does.
    """
    keep_freed_memory()
    if not obs_enabled:
        obs_metrics.set_enabled(False)
    if fault_spec is not None and faults.active() is None:
        faults.install(FaultInjector.from_spec(fault_spec))
    state = WorkerState()
    # baseline immediately: a fork-started worker inherits the driver's
    # whole registry, and shipping that inheritance as a first delta
    # would double-count every pre-fork series under the proc label —
    # only activity *since* this process began belongs to it
    prev_snap: dict | None = (
        obs_metrics.default_registry().snapshot()
        if obs_metrics.enabled() else None)
    last_snap = time.perf_counter()

    def maybe_delta(force: bool = False) -> dict | None:
        """Rate-limited telemetry: a registry snapshot costs far more
        than a microsecond-scale granule, so per-response deltas are
        throttled to one per ``TELEMETRY_MIN_INTERVAL_S``.  ``force``
        bypasses the throttle (idle flush, exit)."""
        nonlocal prev_snap, last_snap
        now = time.perf_counter()
        if not force and now - last_snap < TELEMETRY_MIN_INTERVAL_S:
            return None
        delta, prev_snap = _telemetry_delta(prev_snap)
        last_snap = now
        return delta
    try:
        conn.send_bytes(pickle.dumps(
            ("hello", 0,
             {"pid": os.getpid(),
              "tid": threading.get_ident(),
              "epoch0": time.time() - time.perf_counter()},
             None)))
    except (BrokenPipeError, OSError):
        return
    while True:
        try:
            if not conn.poll(IDLE_FLUSH_S):
                delta = maybe_delta(force=True)
                if delta is not None:
                    conn.send_bytes(pickle.dumps(
                        ("telemetry", 0, None, delta)))
                continue
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break
        request = pickle.loads(raw)
        op = request[0]
        if op == "exit":
            # final flush on the way out, so close()'s drain folds the
            # tail of this worker's activity before the process dies
            delta = maybe_delta(force=True)
            if delta is not None:
                try:
                    conn.send_bytes(pickle.dumps(
                        ("telemetry", 0, None, delta)))
                except (BrokenPipeError, OSError):
                    pass
            break
        _, seq, desc_id, desc_json, evict, indices, budget_s = request
        try:
            status, payload = state.run_task(desc_id, desc_json, evict,
                                             indices, budget_s)
        except SimulatedCrash:
            # die for real: no reply, no cleanup — the driver's poll
            # loop must notice the corpse and respawn the lane
            os._exit(CRASH_EXIT_CODE)
        delta = maybe_delta()
        try:
            message = pickle.dumps((status, seq, payload, delta),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:  # unpicklable partial: report, not hang
            message = pickle.dumps(
                ("err", seq, (indices[0], encode_error(err)), delta))
        try:
            conn.send_bytes(message)
            # becoming idle? push the throttled tail now (still rate
            # limited) instead of waiting out the idle-flush poll, so a
            # scrape right after a query sees this run's work
            if delta is None and not conn.poll(0):
                tail = maybe_delta()
                if tail is not None:
                    conn.send_bytes(pickle.dumps(
                        ("telemetry", 0, None, tail)))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass
