"""The vectorized physical executor: one engine for every backend.

:func:`execute` runs a logical :class:`~repro.exec.plan.Plan` over any
:class:`~repro.exec.source.ColumnSource`, morsel-driven: each granule
(row group / column chunk / memory slice) is an independent task — on the
calling thread, or on the :class:`~repro.exec.pool.MorselScheduler` the
caller passes.  A process-tier lane runs granules in **batches** of
consecutive ones (:func:`batches`, at most :data:`BATCH_ROWS` rows); the
calling thread and a thread-tier scheduler run batches of one granule.
Steps 1–2 run for each granule alone, steps 3–5 once for the batch.

1. **Zone-map pruning** — ``expr.may_match`` against the source's
   zone-map arrays, every granule in one vector pass when the query's
   :class:`GranulePipeline` is built (:attr:`GranulePipeline.pruned`);
   a pruned granule is skipped without touching bytes (``prune=False``
   disables, results identical).  The calling thread and a process-tier
   driver split the granule set by that array before running anything,
   so a granule that cannot match costs neither a pipeline call nor a
   lane round-trip; a granule on a thread-tier scheduler reads its own
   entry.
2. **Pushdown filtering** — positional :class:`Bitmap` conjuncts are
   applied for free (rows past a bitmap's end are unset), then each
   pushable range conjunct runs through the encoded sequence's
   ``filter_range`` (LeCo-family codecs prune again at partition
   granularity inside the chunk).  Each granule loads every chunk the
   batch will read here, once, and keeps its own stats.
3. **Residual predicate** — whatever the planner could not push (IN
   terms, OR trees, half-unbounded ranges) is evaluated vectorized once
   over the batch, on columns gathered at its surviving positions only.
4. **Late materialization** — each output column is read once for the
   batch: one :func:`~repro.baselines.base.gather_many` over its
   granules' chunks, each at its survivors (or whole, where every row
   of a granule survived).  A plan ending in ``Limit(n)`` counts every
   survivor but gathers only the batch's first ``n``: the same chunks
   load, so the stats equal the unlimited run's, and the driver keeps
   the first ``n`` rows in granule order.
5. **Operator partials** — every partial is arrays, built once per
   batch, and a batch's partial — rows or aggregate — rides on one
   granule of it.  A row partial is the batch's row ids and columns;
   the driver concatenates them in granule order.  An Aggregate's is
   its distinct keys in ascending order plus one state array per
   aggregate (counts, extrema, and sums as the sums of the values'
   32-bit halves — never means), counted densely where the keys are
   narrow and sorted otherwise; a global aggregate is the same partial
   over zero keys, one group.  The driver merges them in one pass:
   groups in ascending key order, sums exact as Python ints.  HashJoin
   probes the batch against the build side, sorted once per query.  A
   granule with nothing to add (pruned, quarantined, no surviving row,
   or not its batch's carrier) returns only its stats.

:class:`ExecStats` is the one work-accounting type (granule/chunk/
byte/cache counts plus the CPU/IO breakdown); :meth:`ExecResult.explain`
renders the plan annotated with pruning counts and the full cost split.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.base import gather_many
from repro.exec.errors import (CorruptChunkError, ExecTimeout,
                               GranuleError, ServerBusy)
from repro.exec.expr import And, Bitmap, Or, split_pushdown
from repro.exec.plan import Aggregate, HashJoin, Plan
from repro.faults import SimulatedCrash
from repro.obs import metrics as obs_metrics

#: transient-read retry budget per granule load (EIO only)
IO_RETRIES = 2

# process-wide executor metrics — charged ONCE per query from the merged
# ExecStats (never per row, never per granule), so always-on cost is a
# handful of lock acquisitions per execute() call
_M_QUERIES = obs_metrics.counter(
    "repro_exec_queries_total", "plan executions by terminal status",
    labels=("status",))
_M_QUERY_STATUS = {s: _M_QUERIES.labels(status=s)
                   for s in ("ok", "timeout", "error", "busy")}
_M_GRANULES = obs_metrics.counter(
    "repro_exec_granules_total", "granules examined by outcome",
    labels=("outcome",))
_M_GRANULES_RUN = _M_GRANULES.labels(outcome="executed")
_M_GRANULES_PRUNED = _M_GRANULES.labels(outcome="pruned")
_M_ROWS = obs_metrics.counter(
    "repro_exec_rows_total", "rows surviving filters / masked away",
    labels=("kind",))
_M_ROWS_SCANNED = _M_ROWS.labels(kind="scanned")
_M_ROWS_MASKED = _M_ROWS.labels(kind="masked")
_M_BYTES = obs_metrics.counter(
    "repro_exec_bytes_total",
    "stored bytes of chunks scanned / actually read (cache misses)",
    labels=("kind",))
_M_BYTES_SCANNED = _M_BYTES.labels(kind="scanned")
_M_BYTES_READ = _M_BYTES.labels(kind="read")
_M_IO_RETRIES = obs_metrics.counter(
    "repro_exec_io_retries_total", "transient EIO loads retried")
_M_CORRUPT = obs_metrics.counter(
    "repro_exec_corrupt_chunks_total",
    "granules quarantined by on_corruption=skip")
_M_CPU = obs_metrics.counter(
    "repro_exec_cpu_seconds_total", "executor CPU by pipeline phase",
    labels=("phase",))
_M_CPU_PHASE = {p: _M_CPU.labels(phase=p)
                for p in ("filter", "gather", "aggregate", "join")}
_M_QUERY_SECONDS = obs_metrics.histogram(
    "repro_exec_query_seconds", "wall-clock time per plan execution")


def _charge_query_metrics(stats: ExecStats, status: str) -> None:
    """Charge the merged per-query accounting to the registry (one call
    per execute() exit — ok, timeout, error, or busy).  Zero amounts are
    skipped: every inc is a lock round-trip, and a selective query
    leaves most of these at zero — the ≤5% always-on budget is paid
    here."""
    _M_QUERY_STATUS[status].inc()
    executed = stats.granules_total - stats.granules_pruned
    if executed:
        _M_GRANULES_RUN.inc(executed)
    if stats.granules_pruned:
        _M_GRANULES_PRUNED.inc(stats.granules_pruned)
    if stats.rows_scanned:
        _M_ROWS_SCANNED.inc(stats.rows_scanned)
    if stats.rows_masked:
        _M_ROWS_MASKED.inc(stats.rows_masked)
    if stats.bytes_scanned:
        _M_BYTES_SCANNED.inc(stats.bytes_scanned)
    if stats.bytes_read:
        _M_BYTES_READ.inc(stats.bytes_read)
    if stats.io_retries:
        _M_IO_RETRIES.inc(stats.io_retries)
    if stats.chunks_corrupt:
        _M_CORRUPT.inc(stats.chunks_corrupt)
    if stats.cpu_filter_s:
        _M_CPU_PHASE["filter"].inc(stats.cpu_filter_s)
    if stats.cpu_gather_s:
        _M_CPU_PHASE["gather"].inc(stats.cpu_gather_s)
    if stats.cpu_aggregate_s:
        _M_CPU_PHASE["aggregate"].inc(stats.cpu_aggregate_s)
    if stats.cpu_join_s:
        _M_CPU_PHASE["join"].inc(stats.cpu_join_s)
    if status in ("ok", "timeout"):
        _M_QUERY_SECONDS.observe(stats.wall_s)


@dataclass
class ExecStats:
    """Work accounting for one plan execution (merged across granules):
    granules/chunks/bytes/cache counts and CPU per phase."""

    granules_total: int = 0    # granules examined by the planner
    granules_pruned: int = 0   # skipped whole via zone maps / bitmaps
    chunks_scanned: int = 0    # column chunks materialized
    bytes_scanned: int = 0     # stored bytes of materialized chunks
    bytes_read: int = 0        # stored bytes actually read (cache misses)
    reads: int = 0             # read operations charged
    cache_hits: int = 0        # chunk loads served from the LRU cache
    cache_misses: int = 0      # chunk loads the cache could not serve
    cache_evictions: int = 0   # entries this query's inserts evicted
    rows_scanned: int = 0      # rows surviving the filter
    rows_masked: int = 0       # rows positional bitmaps (e.g. deletion
    #                            vectors) suppressed in scanned granules
    chunks_corrupt: int = 0    # granules quarantined by on_corruption=skip
    io_retries: int = 0        # transient EIO loads retried successfully
    cpu_filter_s: float = 0.0
    cpu_gather_s: float = 0.0
    cpu_aggregate_s: float = 0.0
    cpu_join_s: float = 0.0
    wall_s: float = 0.0

    def merge(self, other: "ExecStats") -> None:
        self.granules_total += other.granules_total
        self.granules_pruned += other.granules_pruned
        self.chunks_scanned += other.chunks_scanned
        self.bytes_scanned += other.bytes_scanned
        self.bytes_read += other.bytes_read
        self.reads += other.reads
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.rows_scanned += other.rows_scanned
        self.rows_masked += other.rows_masked
        self.chunks_corrupt += other.chunks_corrupt
        self.io_retries += other.io_retries
        self.cpu_filter_s += other.cpu_filter_s
        self.cpu_gather_s += other.cpu_gather_s
        self.cpu_aggregate_s += other.cpu_aggregate_s
        self.cpu_join_s += other.cpu_join_s

    @property
    def cpu_s(self) -> float:
        return (self.cpu_filter_s + self.cpu_gather_s
                + self.cpu_aggregate_s + self.cpu_join_s)


@dataclass
class ExecResult:
    """Output of one execution: rows or groups, plus accounting."""

    columns: dict
    row_ids: np.ndarray
    groups: dict | None
    stats: ExecStats
    plan: Plan
    source_desc: str
    # the filter's terms as the executor split them — expressions (or
    # their text), rendered only by explain(): a Bitmap's repr counts
    # its set bits, a pass over the whole table-wide bitmap
    pushed_desc: tuple = ()
    residual_desc: object | None = None
    implicit_desc: object | None = None  # source-implied term (deletion
    #                                      vectors), ANDed into the filter
    trace: object | None = None  # the repro.obs.Trace when traced
    # rows the plan matched when a Limit kept fewer of them in
    # ``row_ids``; None: ``row_ids`` holds every match
    n_matched: int | None = None

    @property
    def n_rows(self) -> int:
        """Rows the plan matched — beyond ``len(row_ids)`` only when a
        Limit cut them."""
        return len(self.row_ids) if self.n_matched is None \
            else self.n_matched

    def explain(self) -> str:
        """The executed plan, annotated with pruning counts and costs."""
        stats = self.stats
        lines: list[str] = []
        for node in reversed(self.plan.nodes):
            name = type(node).__name__
            if name == "Scan":
                cols = "*" if node.columns is None else \
                    ", ".join(node.columns)
                lines.append(f"Scan[{self.source_desc}, columns=({cols})]")
            elif name == "Filter":
                continue  # folded into one pushdown summary below
            elif name == "Project":
                lines.append(f"Project[{', '.join(node.columns)}]")
            else:  # Aggregate / HashJoin: reuse the static rendering
                lines.append(Plan((node,)).describe_nodes()[0])
        # one combined filter line sits directly above the scan; the
        # source's implicit term (deletion vectors) renders here too even
        # when the plan itself carries no Filter node
        if self.plan.filter_expr() is not None \
                or self.implicit_desc is not None:
            parts = []
            if self.pushed_desc:
                parts.append("pushed: " + " AND ".join(
                    str(term) for term in self.pushed_desc))
            if self.residual_desc is not None:
                parts.append(f"residual: {self.residual_desc}")
            lines.insert(len(lines) - 1, f"Filter[{'; '.join(parts)}]")
        tree = "\n".join(f"{'  ' * i}{line}"
                         for i, line in enumerate(lines))
        pruned = (f"granules: {stats.granules_total} total, "
                  f"{stats.granules_pruned} pruned; "
                  f"chunks: {stats.chunks_scanned} scanned; "
                  f"cache: {stats.cache_hits} hits, "
                  f"{stats.cache_misses} misses, "
                  f"{stats.cache_evictions} evicted")
        if stats.chunks_corrupt:
            pruned += f"; corrupt: {stats.chunks_corrupt} quarantined"
        if stats.io_retries:
            pruned += f"; io: {stats.io_retries} retried"
        rows = (f"rows: {stats.rows_scanned} matched, "
                f"{stats.rows_masked} masked; "
                f"bytes: {stats.bytes_scanned} scanned, "
                f"{stats.bytes_read} read")
        cpu = (f"cpu: filter {stats.cpu_filter_s * 1e3:.2f} ms, "
               f"gather {stats.cpu_gather_s * 1e3:.2f} ms, "
               f"aggregate {stats.cpu_aggregate_s * 1e3:.2f} ms, "
               f"join {stats.cpu_join_s * 1e3:.2f} ms")
        lines_out = [tree, pruned, rows, cpu,
                     f"wall: {stats.wall_s * 1e3:.2f} ms"]
        if self.trace is not None:
            lines_out.append(f"trace: {self.trace.summary()}")
        return "\n".join(lines_out)


@dataclass
class _Partial:
    """One granule's contribution: its stats, plus — on the granule
    that carries its batch's output — the batch's rows (``row_ids`` +
    ``columns``) or its aggregate partial (``agg``, see
    :func:`_agg_partial`).  Any other granule — pruned, quarantined,
    left with no row, or not its batch's carrier — carries only its
    stats.

    ``spans`` is only populated by a *worker process* running a traced
    descriptor: a ``(granule_start, granule_end, extra_spans)`` tuple
    whose timestamps are absolute on the worker's ``perf_counter``
    clock.  The "granule" span ships as bare timestamps (the driver
    rebuilds its attrs with :func:`granule_span_attrs`);
    ``extra_spans`` is
    ``None`` or raw ``(name, start, end, tid, attrs)`` tuples for the
    load/filter/... spans of a granule that survived pruning.  The
    driver re-anchors everything onto the query trace via the lane's
    handshake epoch (:meth:`repro.obs.Trace.adopt`).
    """

    stats: ExecStats
    row_ids: np.ndarray | None = None
    columns: dict | None = None
    agg: tuple | None = None
    spans: tuple | None = None


_EMPTY = np.empty(0, dtype=np.int64)
#: the one group of a global aggregate: key 0, starting at row 0
_ONE_GROUP = np.zeros(1, dtype=np.int64)


def granule_span_attrs(index: int, st: ExecStats) -> dict:
    """Attrs of one granule's "granule" span, taken from that granule's
    own stats — so over a query they sum to its :class:`ExecStats`.
    Called where the span is recorded (:meth:`GranulePipeline.run`) and
    where a worker process's bare timestamps are re-attributed
    (``ProcessScheduler._adopt_spans``)."""
    return {"granule": index,
            "pruned": bool(st.granules_pruned),
            "cache_hits": st.cache_hits,
            "cache_misses": st.cache_misses,
            "rows": st.rows_scanned}


def _ordered_unique(*column_lists) -> tuple:
    seen: dict[str, None] = {}
    for cols in column_lists:
        for c in cols:
            seen.setdefault(c, None)
    return tuple(seen)


# --------------------------------------------------------------- aggregate
#: rows a dense partial may fold: its sums add each value's 32-bit halves
#: as float64, exact while a half's total stays below 2**53 — so at most
#: 2**21 rows of halves below 2**32
DENSE_MAX_ROWS = 1 << 21


def _agg_partial(node: Aggregate, batch: dict, n_rows: int):
    """One batch's accumulator states for its surviving rows, or
    ``None`` when no row survived (a group exists iff a row of it did).

    The partial is ``(keys, counts, states)``: the distinct keys in
    ascending order, their row counts and one int64 array per aggregate
    — ``counts`` itself for ``count``, the extrema of ``min`` / ``max``,
    and for ``sum`` / ``avg`` a ``(2, groups)`` array of the sums of the
    values' high and low 32-bit halves, exact for any int64 values while
    a partial holds fewer than 2**31 rows.  That is a few buffers
    through a lane pipe however many groups there are.  A global
    aggregate is a group-by over zero keys: one group, key 0, and
    nothing to sort.  ``n_rows`` is the surviving row count — the batch
    may be empty of columns when every aggregate is a ``count``.

    A group-by whose key span ``max - min + 1`` is at most its row count
    and whose aggregates are all ``sum`` / ``avg`` / ``count`` counts its
    groups (:func:`_dense_partial`, linear); any other sorts them
    (:func:`_sorted_partial`).
    """
    if n_rows == 0:
        return None
    if node.group_by is None:
        counts = np.array([n_rows], dtype=np.int64)
        return _ONE_GROUP, counts, tuple(
            counts if op == "count" else _fold(op, batch[column], _ONE_GROUP)
            for _, op, column in node.aggs)
    keys = batch[node.group_by]
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span <= n_rows <= DENSE_MAX_ROWS and all(
            op in ("sum", "avg", "count") for _, op, _ in node.aggs):
        return _dense_partial(node, batch, keys - low, low, span)
    return _sorted_partial(node, batch, keys)


def _fold(op: str, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The ``min`` / ``max`` / ``sum`` state of each run of ``values``
    from ``starts`` (a sum as its two halves' sums, see
    :func:`_agg_partial`)."""
    if op == "min":
        return np.minimum.reduceat(values, starts)
    if op == "max":
        return np.maximum.reduceat(values, starts)
    return np.stack([np.add.reduceat(values >> 32, starts),
                     np.add.reduceat(values & 0xFFFFFFFF, starts)])


def _sorted_partial(node: Aggregate, batch: dict, keys: np.ndarray) -> tuple:
    """:func:`_agg_partial` by sorting the keys: one ``reduceat`` per
    state over the sorted runs — ``O(n log n)``."""
    # no state depends on the order of rows within a group, so the sort
    # need not be stable
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(np.diff(sorted_keys)) + 1])
    counts = np.diff(np.append(starts, len(keys)))
    columns = {}
    states = []
    for _, op, column in node.aggs:
        if op == "count":
            states.append(counts)
            continue
        if column not in columns:
            columns[column] = batch[column][order]
        states.append(_fold(op, columns[column], starts))
    return sorted_keys[starts], counts, tuple(states)


def _dense_partial(node: Aggregate, batch: dict, codes: np.ndarray,
                   low: int, span: int) -> tuple:
    """:func:`_agg_partial` by counting: ``codes`` are the keys minus
    ``low``, all in ``[0, span)``, and every state is ``bincount``s over
    them — linear in the rows.  A sum's halves add as ``bincount``'s
    float64 weights, exact (see :data:`DENSE_MAX_ROWS`)."""
    counts = np.bincount(codes, minlength=span)
    present = np.flatnonzero(counts)
    counts = counts[present]
    sums = {}
    states = []
    for _, op, column in node.aggs:
        if op == "count":
            states.append(counts)
            continue
        if column not in sums:
            values = batch[column]
            sums[column] = np.stack([
                np.bincount(codes, weights=half, minlength=span)[present]
                for half in (values >> 32, values & 0xFFFFFFFF)
            ]).astype(np.int64)
        states.append(sums[column])
    return present + low, counts, tuple(states)


def _exact_sums(halves: np.ndarray, starts: np.ndarray) -> list[int]:
    """Per-run totals, as exact Python ints, of the ``(2, n)`` half-sums
    ``halves`` of sum states (see :func:`_agg_partial`): each row splits
    again into its 32-bit halves, which reduce in int64 (none can leave
    it short of 2**31 partials), and the four sums combine per run."""
    high_high, low_high = np.add.reduceat(halves >> 32, starts,
                                          axis=1).tolist()
    high_low, low_low = np.add.reduceat(halves & 0xFFFFFFFF, starts,
                                        axis=1).tolist()
    return [(hh << 64) + ((hl + lh) << 32) + ll for hh, hl, lh, ll
            in zip(high_high, high_low, low_high, low_low)]


def _merge_aggregate(node: Aggregate, partials: list) -> dict:
    """``ExecResult.groups`` from every partial in one pass — one
    concatenate, argsort and ``reduceat`` per state — in ascending key
    order and with sums exact as Python ints, whatever the partials are
    and whatever order they come in.  A global aggregate's one group is
    keyed ``None``.  No partial, no group: ``{}``."""
    states = [p.agg for p in partials if p.agg is not None]
    if not states:
        return {}
    keys = np.concatenate([keys for keys, _, _ in states])
    # each partial's keys ascend: a stable sort merges those runs
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], sorted_keys[1:] != sorted_keys[:-1]]))
    counts = np.add.reduceat(np.concatenate(
        [counts for _, counts, _ in states])[order], starts).tolist()
    columns = []
    for j, (_, op, _) in enumerate(node.aggs):
        if op == "count":
            columns.append(counts)
            continue
        values = np.concatenate([s[j] for _, _, s in states],
                                axis=-1).take(order, axis=-1)
        if op in ("sum", "avg"):
            columns.append(_exact_sums(values, starts))
        else:
            ufunc = np.minimum if op == "min" else np.maximum
            columns.append(ufunc.reduceat(values, starts).tolist())
    group_keys = [None] if node.group_by is None \
        else sorted_keys[starts].tolist()
    return {key: {name: column[g] / counts[g] if op == "avg" else column[g]
                  for (name, op, _), column in zip(node.aggs, columns)}
            for g, key in enumerate(group_keys)}


# ---------------------------------------------------------------- pipeline
#: rows a lane worker's batch of consecutive granules holds at most.  A
#: batch is the unit the residual, late-materialisation and partial
#: phases run on: each column is gathered once over the batch and the
#: terminal builds one partial for it, so the fixed per-call cost of a
#: decode and a group-by is paid once a batch, not once a granule.  A
#: granule at least this large is a batch alone.  Swept on a 2-core box,
#: the cold full aggregate of 496 2 048-row granules served on two lanes
#: (server and lane CPU an op, median of 4 runs): 8 192 rows 192 ms,
#: 16 384 192 ms, 32 768 170 ms, 65 536 169 ms; the tracemalloc peak of
#: one process is 1.9, 2.4 and 3.4 MiB at the last three.
#:
#: Only lanes batch: a batch's arrays are a few hundred KiB, and with
#: glibc's default thresholds a process may hand them back to the kernel
#: after each batch and fault them in again on the next — thousands of
#: minor faults a query, 20–30 % of its CPU, depending on the heap's
#: history.  A lane's allocator is the package's to tune
#: (:func:`repro.par.worker.keep_freed_memory`); the calling thread's and
#: a thread-tier pool's belong to the host process, so they run one
#: granule a call, whose arrays stay at a granule's size.
BATCH_ROWS = 32_768


def batches(granules) -> list[list]:
    """``granules`` cut, in order, into runs of consecutive granules of
    at most :data:`BATCH_ROWS` rows together (a larger granule is a run
    alone): how a lane worker feeds :meth:`GranulePipeline.run_batch`."""
    out: list[list] = []
    rows = 0
    for granule in granules:
        if not out or rows + granule.n_rows > BATCH_ROWS:
            out.append([])
            rows = 0
        out[-1].append(granule)
        rows += granule.n_rows
    return out


def _fit_bitmaps(expr, n_rows: int):
    """``expr`` with every :class:`Bitmap` shorter than the source's
    ``n_rows`` padded with ``False``: rows past a bitmap's end are unset,
    as :meth:`Bitmap.may_match` reads them, and once padded the mask
    step and a residual's ``evaluate`` may index any row."""
    if isinstance(expr, Bitmap):
        if expr.bitmap.size >= n_rows:
            return expr
        bits = np.zeros(n_rows, dtype=bool)
        bits[:expr.bitmap.size] = expr.bitmap
        return Bitmap(bits)
    if isinstance(expr, (And, Or)):
        children = [_fit_bitmaps(c, n_rows) for c in expr.children]
        if all(a is b for a, b in zip(children, expr.children)):
            return expr
        return type(expr)(*children)
    return expr


class _Scan:
    """One granule's share of a batch: its own stats and error context,
    the chunks it loaded (each once, kept for the batch's gathers), its
    surviving positions (``None``: every row) and its span's times."""

    __slots__ = ("granule", "st", "loaded", "column", "rng", "positions",
                 "t_start", "t_end")

    def __init__(self, granule, t_start: float):
        self.granule = granule
        self.st = ExecStats(granules_total=1)
        self.loaded: dict[str, object] = {}
        self.column: str | None = None  # last column touched
        self.rng: random.Random | None = None
        self.positions: np.ndarray | None = _EMPTY
        self.t_start = self.t_end = t_start

    @property
    def matched(self) -> int:
        return self.granule.n_rows if self.positions is None \
            else len(self.positions)


class GranulePipeline:
    """One plan's pipeline, bound to a column source.

    Factored out of :func:`execute` so every execution tier runs the
    *identical* code path: the calling thread and a scheduler's threads
    call it in-process, and a :mod:`repro.par` worker process rebuilds
    the same pipeline from a shipped descriptor (its own mmap-opened
    copy of the table) and calls it there — always
    :meth:`run_batch`, of which :meth:`run` is the one-granule case.
    Construction does the plan/source validation, implicit-filter
    composition and pushdown splitting once; running is pure per-batch
    work and is safe to call concurrently from many threads.
    """

    def __init__(self, plan: Plan, source, *, prune: bool = True,
                 on_corruption: str = "raise"):
        if on_corruption not in ("raise", "skip"):
            raise ValueError(
                f"on_corruption must be 'raise' or 'skip', "
                f"got {on_corruption!r}")
        self.plan = plan
        self.source = source
        self.on_corruption = on_corruption
        names = tuple(source.column_names)
        expr = plan.filter_expr()
        # sources may imply a filter of their own — a mutated table's
        # deletion vectors arrive as a positional Bitmap term, applied
        # through the ordinary expression machinery (no dedicated
        # operator)
        implicit = getattr(source, "implicit_filter", None)
        self.implicit_expr = implicit() if callable(implicit) else None
        if self.implicit_expr is not None:
            expr = self.implicit_expr if expr is None \
                else And.of(expr, self.implicit_expr)
        self.expr = expr = _fit_bitmaps(expr, source.n_rows)
        self.terminal = terminal = plan.terminal()
        self.limit = plan.row_limit
        self.output_cols = output_cols = plan.output_columns(names)
        self.pred_cols = pred_cols = \
            tuple(sorted(expr.columns())) if expr is not None else ()

        self.join_payload: tuple = ()
        if isinstance(terminal, Aggregate):
            needed = [c for _, op, c in terminal.aggs if op != "count"]
            if terminal.group_by is not None:
                needed.append(terminal.group_by)
            mat_cols = _ordered_unique(needed)
        elif isinstance(terminal, HashJoin):
            mat_cols = _ordered_unique(output_cols, (terminal.on,))
            # the build side is sorted once per query; an inner join's
            # payload is aligned to the sorted keys
            order = np.argsort(terminal.keys)
            self.join_keys = terminal.keys[order]
            if terminal.how == "inner" and terminal.build:
                self.join_payload = tuple(
                    (name, values[order]) for name, values in terminal.build)
        else:
            mat_cols = output_cols
        self.mat_cols = mat_cols

        referenced = _ordered_unique(plan.scan_node.columns or (),
                                     output_cols, mat_cols, pred_cols)
        unknown = [c for c in referenced if c not in names]
        if unknown:
            raise KeyError(
                f"unknown column(s) "
                f"{', '.join(repr(c) for c in unknown)}; "
                f"available: {', '.join(names)}")

        self.ranges, self.bitmaps, self.residual = split_pushdown(expr)
        self.residual_cols = tuple(sorted(self.residual.columns())) \
            if self.residual is not None else ()

        #: the zone-map decision for every granule, in ``granules()``
        #: order — ``True`` where no row can match — or ``None`` when
        #: nothing prunes (``prune=False``, or no predicate at all)
        self.pruned = None
        if prune and expr is not None:
            zones = {c: source.zone_maps(c) for c in pred_cols}
            self.pruned = ~expr.may_match(zones, *source.granule_extents())

    def run(self, granule, *, cancel: threading.Event | None = None,
            deadline: float | None = None, trace=None) -> _Partial | None:
        """One granule: :meth:`run_batch` of a batch of one."""
        return self.run_batch([granule], cancel=cancel, deadline=deadline,
                              trace=trace)[0]

    def run_batch(self, granules, *, cancel: threading.Event | None = None,
                  deadline: float | None = None, trace=None,
                  before=None) -> list:
        """Run a batch of consecutive granules (see :func:`batches`):
        one partial per granule, ``None`` for each that the deadline (or
        a sibling's failure, through ``cancel``) stopped before it
        started.  ``cancel`` may be ``None`` (a par worker has no shared
        event — its driver abandons the lane instead).

        Each granule's per-chunk phase runs alone — the deadline and
        cancel test, ``before(granule)`` (a lane's fault hook), the
        zone-map test, the bitmap mask, its loads and its
        ``filter_range`` — so it keeps its own :class:`ExecStats` and
        "granule" span, and a load or filter failure names it.  The
        residual, the output gathers and the terminal then run once over
        the batch's survivors: the batch's partial — rows or aggregate —
        rides on one granule, the last it gathered from (the others
        carry stats only), and the batch-wide CPU is charged to that
        granule.  The driver concatenates row partials in granule order,
        so the rows are a granule-by-granule run's.  A failure there is
        re-run granule by granule to name its granule and column."""
        # per granule started: its _Scan, or the finished partial of one
        # the zone maps rule out untraced (a thread-tier granule comes
        # this way, once a granule, and needs no scan state)
        slots: list = []
        scans: list[_Scan] = []
        pruned = self.pruned
        for granule in granules:
            # cooperative cancellation: a granule that starts after the
            # deadline passed (or after a sibling failed) does no work
            if cancel is not None and cancel.is_set():
                break
            if deadline is not None and time.perf_counter() > deadline:
                if cancel is not None:
                    cancel.set()
                break
            if before is not None:
                before(granule)
            if pruned is not None and pruned[granule.index]:
                if trace is None:
                    slots.append(_Partial(ExecStats(granules_total=1,
                                                    granules_pruned=1)))
                    continue
                scan = _Scan(granule, trace.now())
                scan.st.granules_pruned = 1
            else:
                scan = _Scan(granule,
                             trace.now() if trace is not None else 0.0)
                self._guarded(scan, cancel, trace, self._select, scan, trace)
            slots.append(scan)
            scans.append(scan)
        if not scans:
            return slots + [None] * (len(granules) - len(slots))
        live = [s for s in scans if s.matched]
        if not live and trace is None:
            # nothing survived: stats only
            return [slot if isinstance(slot, _Partial) else _Partial(slot.st)
                    for slot in slots] + [None] * (len(granules) - len(slots))
        reused: dict = {}
        if self.residual is not None and live:
            reused = self._batched(
                live, cancel, trace,
                lambda group: self._residual(group, trace))
            live = [s for s in live if s.matched]
            # the survivors' other columns load now, granule by granule
            for scan in live:
                self._guarded(scan, cancel, trace, self._load_outputs,
                              scan, trace, reused)
            kept = [s for s in live if s.matched]
            if len(kept) < len(live):
                # a quarantined granule's rows leave the batch, and the
                # residual's values no longer line up with it
                live, reused = kept, {}
        results: dict = {}
        if live:
            for scan in live:
                scan.st.rows_scanned += scan.matched
            # the residual's values line up with the whole batch only
            results = self._batched(
                live, cancel, trace,
                lambda group: self._materialize(
                    group, reused if group is live else {}, trace))
        parts: list = []
        for scan in slots:
            if isinstance(scan, _Partial):
                parts.append(scan)
                continue
            parts.append(results.get(id(scan)) or _Partial(scan.st))
            if trace is not None:
                # the raw record Trace.add would build, minus its **attrs
                # re-pack (~0.5 µs): this runs once per granule, and the
                # 15 % traced-overhead gate on a sub-millisecond scan
                # (bench_obs.py) cannot spare it
                trace._spans.append(
                    ("granule", scan.t_start, scan.t_end,
                     threading.get_ident(),
                     granule_span_attrs(scan.granule.index, scan.st)))
        return parts + [None] * (len(granules) - len(slots))

    # --------------------------------------------------- failure rules
    def _fail(self, scan: _Scan, cancel, err: Exception) -> Exception:
        """What a failure in ``scan``'s granule raises — a corrupt chunk
        or an already-named failure as itself, anything else as a
        :class:`GranuleError` naming the granule, its shard and the
        column it touched last, caused by ``err`` — with the query's
        other granules cancelled."""
        if cancel is not None:
            cancel.set()
        if isinstance(err, (CorruptChunkError, GranuleError)):
            return err
        shard_of = getattr(self.source, "granule_shard", None)
        failure = GranuleError(
            err, granule=scan.granule.index,
            shard=shard_of(scan.granule) if callable(shard_of) else None,
            column=scan.column)
        failure.__cause__ = err
        return failure

    def _guarded(self, scan: _Scan, cancel, trace, step, *args):
        """Run ``step`` for ``scan``'s granule alone.  A corrupt chunk
        quarantines the granule under ``on_corruption="skip"`` (its rows
        vanish, :attr:`ExecStats.chunks_corrupt` is charged); any other
        failure raises :meth:`_fail`'s error.  A
        :class:`~repro.faults.SimulatedCrash` is the process dying, not a
        granule failing, and propagates as itself."""
        try:
            return step(*args)
        except SimulatedCrash:
            raise
        except CorruptChunkError:
            if self.on_corruption != "skip":
                if cancel is not None:
                    cancel.set()
                raise
            scan.st.chunks_corrupt += 1
            scan.positions = _EMPTY
        except Exception as err:
            raise self._fail(scan, cancel, err)
        finally:
            if trace is not None:
                scan.t_end = trace.now()

    def _batched(self, scans: list, cancel, trace, step):
        """``step(scans)``, a batch-wide step; the last granule carries
        its time.  Should it fail, ``step([scan])`` runs for each granule
        alone, so the failure is raised naming its granule (the batch's
        first when none fails alone)."""
        try:
            return step(scans)
        except SimulatedCrash:
            raise
        except Exception as err:
            for scan in scans if len(scans) > 1 else ():
                self._guarded(scan, cancel, None, step, [scan])
            raise self._fail(scans[0], cancel, err)
        finally:
            if trace is not None:
                scans[-1].t_end = trace.now()

    # ------------------------------------------------------------ steps
    def _load(self, scan: _Scan, column: str, trace):
        """``column``'s chunk of ``scan``'s granule, loaded once a query
        (an EIO is retried with seeded jittered backoff)."""
        seq = scan.loaded.get(column)
        if seq is not None:
            return seq
        scan.column = column
        st = scan.st
        t0 = trace.now() if trace is not None else 0.0
        pre_hits = st.cache_hits
        attempt = 0
        while True:
            try:
                seq = self.source.load(scan.granule, column, st)
                break
            except OSError as err:
                # only EIO is plausibly transient; seeded jittered
                # backoff keeps a failing schedule replayable
                if err.errno != errno.EIO or attempt >= IO_RETRIES:
                    raise
                attempt += 1
                st.io_retries += 1
                if scan.rng is None:
                    scan.rng = random.Random(
                        0x9E3779B9 ^ scan.granule.index)
                time.sleep(scan.rng.uniform(0.0005, 0.002) * attempt)
        scan.loaded[column] = seq
        if trace is not None:
            trace.add("load", t0, trace.now(),
                      granule=scan.granule.index, column=column,
                      cache_hit=st.cache_hits > pre_hits)
        return seq

    def _load_outputs(self, scan: _Scan, trace, skip=()) -> None:
        """The chunks of ``scan``'s granule that the batch's gathers
        read (bar ``skip``, columns the residual already holds), their
        loads charged as gather CPU."""
        t0 = time.perf_counter()
        for column in self.mat_cols:
            if column not in skip:
                self._load(scan, column, trace)
        scan.st.cpu_gather_s += time.perf_counter() - t0

    def _select(self, scan: _Scan, trace) -> None:
        """A granule's per-chunk phase after its zone-map test: the
        bitmap mask and the pushed ranges, leaving its survivors in
        ``scan.positions`` with the chunks the rest of the batch reads
        loaded."""
        granule, st = scan.granule, scan.st
        n = granule.n_rows
        if self.expr is None:
            scan.positions = None
        else:
            t0 = time.perf_counter()
            mask = None
            for term in self.bitmaps:
                local = term.bitmap[granule.row_start:
                                    granule.row_start + n]
                mask = local.copy() if mask is None else mask & local
            if self.bitmaps:
                st.rows_masked += n - int(mask.sum())
            for column, rng in self.ranges.items():
                if mask is not None and not mask.any():
                    break
                if rng.is_empty:
                    mask = np.zeros(n, dtype=bool)
                    break
                part = self._load(scan, column, trace).filter_range(
                    rng.lo, rng.hi)
                mask = part if mask is None else mask & part
            scan.positions = np.arange(n, dtype=np.int64) if mask is None \
                else np.flatnonzero(mask)
            # the residual's columns load here, read batch-wide next
            if scan.positions.size:
                for column in self.residual_cols:
                    self._load(scan, column, trace)
            st.cpu_filter_s += time.perf_counter() - t0
            if trace is not None:
                trace.add("filter", t0 - trace.t0,
                          time.perf_counter() - trace.t0,
                          granule=granule.index)
        if self.residual is None and scan.matched:
            self._load_outputs(scan, trace)

    def _residual(self, scans: list, trace) -> dict:
        """The residual predicate over the batch's survivors, which it
        narrows in place; returns the columns it gathered, at the
        positions that passed, for the output gather to reuse."""
        t0 = time.perf_counter()
        batch = {c: gather_many([(s.loaded[c], s.positions) for s in scans])
                 for c in self.residual_cols}
        keep = self.residual.evaluate(batch, np.concatenate(
            [s.granule.row_start + s.positions for s in scans]))
        cuts = np.cumsum([len(s.positions) for s in scans])[:-1]
        for scan, passed in zip(scans, np.split(keep, cuts)):
            scan.positions = scan.positions[passed]
        scans[-1].st.cpu_filter_s += time.perf_counter() - t0
        if trace is not None:
            trace.add("filter", t0 - trace.t0,
                      time.perf_counter() - trace.t0,
                      granule=scans[-1].granule.index)
        return {c: values[keep] for c, values in batch.items()}

    def _materialize(self, scans: list, reused: dict, trace) -> dict:
        """Late materialisation and the terminal over the batch's
        survivors: each output column gathered once (``decode_all`` for
        a granule every row of which survived; a ``Limit(n)`` gathers
        only the batch's first ``n`` survivors), then one partial — rows
        or aggregate — on the last granule gathered from.  Returns
        ``{id(carrier): _Partial}``, or ``{}`` when it gathered nothing."""
        t0 = time.perf_counter()
        limit = self.limit
        picks = []  # (scan, positions or None) to gather
        for scan in scans:
            if limit is not None and limit <= 0:
                break
            positions = scan.positions
            if positions is not None and positions.size == \
                    scan.granule.n_rows:
                # every row survived, so positions is arange(n): decode
                # sequentially instead of gathering each one (the
                # codecs' gather(idx) == decode_all()[idx] contract makes
                # the two equal)
                positions = None
            if limit is not None:
                if limit < scan.matched:
                    positions = np.arange(limit, dtype=np.int64) \
                        if positions is None else positions[:limit]
                limit -= scan.matched
            picks.append((scan, positions))
        if not picks:
            return {}
        carrier = picks[-1][0]
        out: dict[str, np.ndarray] = {}
        sizes = [scan.granule.n_rows if positions is None
                 else len(positions) for scan, positions in picks]
        for c in self.mat_cols:
            if c in reused:
                out[c] = reused[c][:sum(sizes)]
            else:
                for scan, _ in picks:
                    scan.column = c
                out[c] = gather_many([(scan.loaded[c], positions)
                                      for scan, positions in picks])
        terminal = self.terminal
        if not isinstance(terminal, Aggregate):
            ids = [scan.granule.row_start + (
                np.arange(scan.granule.n_rows, dtype=np.int64)
                if positions is None else positions)
                for scan, positions in picks]
            row_ids = ids[0] if len(ids) == 1 else np.concatenate(ids)
        carrier.st.cpu_gather_s += time.perf_counter() - t0
        if trace is not None:
            trace.add("gather", t0 - trace.t0,
                      time.perf_counter() - trace.t0,
                      granule=carrier.granule.index)

        if isinstance(terminal, Aggregate):
            t0 = time.perf_counter()
            agg = _agg_partial(terminal, out, sum(sizes))
            carrier.st.cpu_aggregate_s += time.perf_counter() - t0
            if trace is not None:
                trace.add("aggregate", t0 - trace.t0,
                          time.perf_counter() - trace.t0,
                          granule=carrier.granule.index)
            return {id(carrier): _Partial(carrier.st, agg=agg)}
        if isinstance(terminal, HashJoin):
            t0 = time.perf_counter()
            row_ids, columns = self._probe(out, row_ids)
            carrier.st.cpu_join_s += time.perf_counter() - t0
            if trace is not None:
                trace.add("join", t0 - trace.t0,
                          time.perf_counter() - trace.t0,
                          granule=carrier.granule.index)
        else:
            columns = {c: out[c] for c in self.output_cols}
        return {id(carrier): _Partial(carrier.st, row_ids, columns)}

    def _probe(self, out: dict, row_ids: np.ndarray):
        """Probe one batch against the sorted build keys;
        returns (row_ids, columns).  One membership test serves both
        modes — the key at each probe value's clipped ``searchsorted``
        slot equals it, duplicated (semi) keys or not — and an inner
        join reads its payload at the same slots."""
        keys = self.join_keys
        values = out[self.terminal.on]
        slot = np.searchsorted(keys, values)
        matched = keys[np.minimum(slot, keys.size - 1)] == values \
            if keys.size else np.zeros(values.size, dtype=bool)
        positions = np.flatnonzero(matched)
        columns = {c: out[c][positions] for c in self.output_cols}
        for name, payload in self.join_payload:
            columns[name] = payload[slot[positions]]
        return row_ids[positions], columns



# ----------------------------------------------------------------- execute
def execute(plan: Plan, source, threads: int | None = None,
            prune: bool = True, on_corruption: str = "raise",
            timeout_s: float | None = None,
            scheduler=None, trace=None) -> ExecResult:
    """Run ``plan`` over ``source``.

    Where it runs is one fact, ``scheduler``:

    * ``None`` — on the calling thread, one granule a call.  Only the
      granules that survive the zone-map decision run; the rest are
      charged together as one partial and, traced, one ``"prune"`` span.
    * a thread-tier :class:`~repro.exec.pool.MorselScheduler` — its
      granules interleave with every other in-flight query's on that
      pool, under its admission control, so
      :class:`~repro.exec.errors.ServerBusy` may be raised.  Each
      granule prunes itself.
    * a process tier (``scheduler.tier == "process"``, a
      :class:`repro.par.ProcessScheduler`) — split as on the calling
      thread, and the survivors run in worker processes from a
      :class:`repro.par.QueryDescriptor` of the query, which carries
      ``on_corruption`` but no prune knob.  Only a source that
      describes itself runs there: any other raises
      :class:`TypeError` before admission.

    Parameters
    ----------
    threads:
        ``None`` or ``1``, and selects nothing.  Any other value raises
        :class:`ValueError`: granules run in parallel only on a
        ``scheduler``.
    prune:
        Zone-map granule pruning (disable for the unpruned reference;
        results are identical).
    on_corruption:
        ``"raise"`` (default) propagates :class:`CorruptChunkError` from
        a failed chunk checksum; ``"skip"`` quarantines the granule —
        its rows vanish from the result, :attr:`ExecStats.chunks_corrupt`
        is charged, and :meth:`ExecResult.explain` reports it.
    timeout_s:
        Wall-clock budget for the whole query.  On expiry outstanding
        granules are cancelled cooperatively and :class:`ExecTimeout`
        is raised carrying the partial stats accumulated so far.
    scheduler:
        The :class:`~repro.exec.pool.MorselScheduler` (thread or
        process tier) to run granules on; the table server passes its
        bounded instance.
    trace:
        A :class:`repro.obs.Trace` to record spans into (pay-as-you-go:
        the default ``None`` skips all tracing).  The trace travels as
        an explicit parameter — through the scheduler's ``run_query``
        and into each granule's closure — never as a thread-local,
        because pool threads interleave granules of many queries.  The
        result carries it back as :attr:`ExecResult.trace`.
    """
    if threads not in (None, 1):
        raise ValueError(
            f"threads must be None or 1, got {threads!r}: a query "
            f"without a scheduler runs on its calling thread; pass "
            f"scheduler= to run its granules in parallel")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    start = time.perf_counter()
    deadline = None if timeout_s is None else start + timeout_s
    cancel = threading.Event()
    # building the pipeline makes the zone-map decision for every
    # granule (most of what the build costs); a traced query that splits
    # its granules before running them (calling thread, process tier)
    # has one "prune" span covering it, the descriptor and the split
    t_prune = trace.now() if trace is not None else 0.0
    pipeline = GranulePipeline(plan, source, prune=prune,
                               on_corruption=on_corruption)
    terminal = pipeline.terminal
    output_cols = pipeline.output_cols
    descriptor = None
    if scheduler is not None and scheduler.tier == "process":
        from repro.par.descriptor import describe_query

        # raises TypeError for a source that cannot describe itself —
        # here, so the query is neither admitted nor counted
        descriptor = describe_query(
            plan, source, on_corruption=on_corruption,
            trace_enabled=trace is not None)

    def run_granule(granule) -> _Partial | None:
        return pipeline.run(granule, cancel=cancel, deadline=deadline,
                            trace=trace)

    granules = source.granules()
    partials: list[_Partial] = []
    driver_pruned = 0
    timed_out = False
    failure: BaseException | None = None
    try:
        items = granules
        # every arm but the thread tier splits: a thread-tier granule
        # prunes itself, because a closed-loop foreground query beside a
        # scan loses throughput when its granules are split before
        # dispatch (ROADMAP Par notes, "Who prunes")
        if scheduler is None or descriptor is not None:
            # a granule that cannot match is never run (and never
            # crosses a lane pipe)
            if pipeline.pruned is not None:
                items = [granules[i] for i in
                         np.flatnonzero(~pipeline.pruned).tolist()]
                driver_pruned = len(granules) - len(items)
            if trace is not None:
                # one span for the decision and the split: a span per
                # pruned granule would cost more than a selective query
                trace.add("prune", t_prune, trace.now(),
                          pruned=driver_pruned, granules=len(granules))
        if scheduler is None:
            # lazy: once the deadline or a failure sets ``cancel``,
            # every later granule returns None without doing work.  One
            # granule a call: the host's allocator is not tuned for
            # batches (see BATCH_ROWS)
            results = (run_granule(granule) for granule in items)
        else:
            # an all-pruned query still passes admission (ServerBusy
            # holds) and sends no lane message
            results = scheduler.run_query(run_granule, items, cancel,
                                          deadline, trace=trace,
                                          descriptor=descriptor)
        if driver_pruned:
            # charged once, driver-side, and only after admission: a
            # refused or failed query charges what it always did
            partials.append(_Partial(ExecStats(
                granules_total=driver_pruned,
                granules_pruned=driver_pruned)))
        for part in results:
            if part is None:
                timed_out = True
            else:
                partials.append(part)
    except BaseException as err:
        failure = err

    stats = ExecStats()
    for part in partials:
        stats.merge(part.stats)
    if failure is not None:
        stats.wall_s = time.perf_counter() - start
        _charge_query_metrics(
            stats, "busy" if isinstance(failure, ServerBusy) else "error")
        raise failure
    if timed_out:
        stats.wall_s = time.perf_counter() - start
        _charge_query_metrics(stats, "timeout")
        raise ExecTimeout(
            f"query exceeded timeout_s={timeout_s} "
            f"({stats.granules_total}/{len(granules)} granules completed)",
            stats=stats)

    t_merge = trace.now() if trace is not None else 0.0
    groups = None
    n_matched = None
    if isinstance(terminal, Aggregate):
        groups = _merge_aggregate(terminal, partials)
        row_ids, columns = _EMPTY, {}
    else:
        rows = [p for p in partials if p.row_ids is not None]
        row_ids = np.concatenate([p.row_ids for p in rows]) \
            if rows else _EMPTY
        # no row at all still names every column, an inner join's
        # payload included
        columns = {name: np.concatenate([p.columns[name] for p in rows])
                   for name in rows[0].columns} if rows \
            else {c: _EMPTY.copy() for c in (
                *output_cols, *(name for name, _ in pipeline.join_payload))}
        limit = pipeline.limit
        if limit is not None:
            # every granule counted its matches, gathered or not
            n_matched = stats.rows_scanned
            row_ids = row_ids[:limit]
            columns = {name: values[:limit]
                       for name, values in columns.items()}

    stats.wall_s = time.perf_counter() - start
    if trace is not None:
        trace.add("merge", t_merge, trace.now(),
                  partials=len(partials), granules=len(granules))
    _charge_query_metrics(stats, "ok")
    return ExecResult(
        columns=columns, row_ids=row_ids, groups=groups, stats=stats,
        plan=plan, source_desc=source.describe(),
        pushed_desc=tuple(pipeline.ranges.values())
        + tuple(pipeline.bitmaps),
        residual_desc=pipeline.residual,
        implicit_desc=pipeline.implicit_expr, trace=trace,
        n_matched=n_matched)
