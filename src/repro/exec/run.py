"""The vectorized physical executor: one engine for every backend.

:func:`execute` runs a logical :class:`~repro.exec.plan.Plan` over any
:class:`~repro.exec.source.ColumnSource`, morsel-driven: each granule
(row group / column chunk / memory slice) is an independent task — on the
calling thread, or on the :class:`~repro.exec.pool.MorselScheduler` the
caller passes — and per granule the pipeline is

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
   applied for free, then each pushable range conjunct runs through the
   encoded sequence's ``filter_range`` (LeCo-family codecs prune again
   at partition granularity inside the chunk).
3. **Residual predicate** — whatever the planner could not push (IN
   terms, OR trees, half-unbounded ranges) is evaluated vectorized on
   batches gathered at the surviving positions only.
4. **Late materialization** — output columns ``gather`` the survivors
   (or ``decode_all`` when the whole granule survived).  A plan ending in
   ``Limit(n)`` counts every survivor but gathers only its first ``n``:
   the same chunks load, so the stats equal the unlimited run's, and
   the driver keeps the first ``n`` rows in granule order.
5. **Operator partials** — every partial is arrays.  An Aggregate's
   is its distinct keys plus one state array per aggregate (sums,
   counts, extrema — never means); a global aggregate is the same
   partial over zero keys, one group.  The driver merges them in one
   pass with sums exact as Python ints.  HashJoin probes the granule's
   batch against the build side, sorted once per query.  A granule
   with nothing to add (pruned, quarantined, no surviving row) returns
   only its stats.

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

from repro.exec.errors import (CorruptChunkError, ExecTimeout,
                               GranuleError, ServerBusy)
from repro.exec.expr import And, split_pushdown
from repro.exec.plan import Aggregate, HashJoin, Plan
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
    """One granule's contribution: its stats, plus its rows
    (``row_ids`` + ``columns``) or its aggregate partial (``agg``, see
    :func:`_agg_partial`).  A granule that contributes nothing — pruned,
    quarantined, or left with no row — carries only its stats.

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
def _agg_partial(node: Aggregate, batch: dict, n_rows: int):
    """One granule's accumulator states for its surviving rows, or
    ``None`` when no row survived (a group exists iff a row of it did).

    The partial is ``(keys, counts, states)``: the sorted distinct keys,
    their row counts and one int64 array per aggregate (the sums of
    ``sum`` / ``avg``, the extrema of ``min`` / ``max``, ``counts``
    itself for ``count``), a few buffers through a lane pipe however
    many groups there are.  A global aggregate is a group-by over zero
    keys: one group, key 0, starting at row 0, and nothing to sort.
    ``n_rows`` is the surviving row count — the batch may be empty of
    columns when every aggregate is a ``count``.
    """
    if n_rows == 0:
        return None
    if node.group_by is None:
        order, starts, keys = slice(None), _ONE_GROUP, _ONE_GROUP
        counts = np.array([n_rows], dtype=np.int64)
    else:
        # no state depends on the order of rows within a group (int64
        # sums wrap alike in any order), so the sort need not be stable
        order = np.argsort(batch[node.group_by])
        sorted_keys = batch[node.group_by][order]
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(sorted_keys)) + 1])
        keys = sorted_keys[starts]
        counts = np.diff(np.append(starts, n_rows))
    columns = {}
    for _, op, column in node.aggs:
        if op != "count" and column not in columns:
            columns[column] = batch[column][order]
    states = []
    for _, op, column in node.aggs:
        if op == "count":
            states.append(counts)
        elif op in ("sum", "avg"):
            states.append(np.add.reduceat(columns[column], starts))
        elif op == "min":
            states.append(np.minimum.reduceat(columns[column], starts))
        else:  # max
            states.append(np.maximum.reduceat(columns[column], starts))
    return keys, counts, tuple(states)


def _exact_sums(values: np.ndarray, starts: np.ndarray) -> list[int]:
    """Per-run sums of int64 ``values`` as exact Python ints: the high
    and low 32-bit halves reduce separately (neither can leave int64
    short of 2**31 partials) and combine per run."""
    high = np.add.reduceat(values >> 32, starts).tolist()
    low = np.add.reduceat(values & 0xFFFFFFFF, starts).tolist()
    return [(h << 32) + lo for h, lo in zip(high, low)]


def _merge_aggregate(node: Aggregate, partials: list) -> dict:
    """``ExecResult.groups`` from every granule's partial, in granule
    order, in one pass — one concatenate, stable argsort and
    ``reduceat`` per aggregate — with sums exact as Python ints.  The
    groups keep the order of their first appearance, as a dict merge
    would; a global aggregate's one group is keyed ``None``.  No
    partial, no group: ``{}``."""
    states = [p.agg for p in partials if p.agg is not None]
    if not states:
        return {}
    keys = np.concatenate([keys for keys, _, _ in states])
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], sorted_keys[1:] != sorted_keys[:-1]]))
    counts = _exact_sums(np.concatenate(
        [counts for _, counts, _ in states])[order], starts)
    columns = []
    for j, (_, op, _) in enumerate(node.aggs):
        values = np.concatenate([s[j] for _, _, s in states])[order]
        if op in ("sum", "count", "avg"):
            columns.append(_exact_sums(values, starts))
        else:
            ufunc = np.minimum if op == "min" else np.maximum
            columns.append(ufunc.reduceat(values, starts).tolist())
    group_keys = [None] if node.group_by is None \
        else sorted_keys[starts].tolist()
    out = {}
    # the stable sort puts each key's first appearance at its run start
    for g in np.argsort(order[starts]).tolist():
        out[group_keys[g]] = {
            name: column[g] / counts[g] if op == "avg" else column[g]
            for (name, op, _), column in zip(node.aggs, columns)}
    return out


# ---------------------------------------------------------------- pipeline
class GranulePipeline:
    """One plan's per-granule pipeline, bound to a column source.

    Factored out of :func:`execute` so every execution tier runs the
    *identical* code path: the in-process driver calls :meth:`run` from
    its own or a scheduler's threads, and a :mod:`repro.par` worker
    process rebuilds the same pipeline from a shipped descriptor (its
    own mmap-opened copy of the table) and calls :meth:`run` there.
    Construction does the plan/source validation, implicit-filter
    composition and pushdown splitting once; :meth:`run` is pure
    per-granule work and is safe to call concurrently from many threads.
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
        self.expr = expr
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

        #: the zone-map decision for every granule, in ``granules()``
        #: order — ``True`` where no row can match — or ``None`` when
        #: nothing prunes (``prune=False``, or no predicate at all)
        self.pruned = None
        if prune and expr is not None:
            zones = {c: source.zone_maps(c) for c in pred_cols}
            self.pruned = ~expr.may_match(zones, *source.granule_extents())

    def run(self, granule, *, cancel: threading.Event | None = None,
            deadline: float | None = None, trace=None) -> _Partial | None:
        """Run one granule; returns its partial, or ``None`` when the
        deadline passed before work started.  ``cancel`` may be ``None``
        (a par worker has no shared event — its driver abandons the
        lane instead)."""
        # cooperative cancellation: a granule that starts after the
        # deadline passed (or after a sibling failed) does no work
        if cancel is not None and cancel.is_set():
            return None
        if deadline is not None and time.perf_counter() > deadline:
            if cancel is not None:
                cancel.set()
            return None
        source = self.source
        st = ExecStats(granules_total=1)
        loaded: dict[str, object] = {}
        where = {"column": None}  # last column touched, for error context
        rng: random.Random | None = None

        def load(column: str):
            nonlocal rng
            seq = loaded.get(column)
            if seq is not None:
                return seq
            where["column"] = column
            t_load = trace.now() if trace is not None else 0.0
            pre_hits = st.cache_hits
            attempt = 0
            while True:
                try:
                    seq = source.load(granule, column, st)
                    break
                except OSError as err:
                    # only EIO is plausibly transient; seeded jittered
                    # backoff keeps a failing schedule replayable
                    if err.errno != errno.EIO or attempt >= IO_RETRIES:
                        raise
                    attempt += 1
                    st.io_retries += 1
                    if rng is None:
                        rng = random.Random(0x9E3779B9 ^ granule.index)
                    time.sleep(rng.uniform(0.0005, 0.002) * attempt)
            loaded[column] = seq
            if trace is not None:
                trace.add("load", t_load, trace.now(),
                          granule=granule.index, column=column,
                          cache_hit=st.cache_hits > pre_hits)
            return seq

        t_span = trace.now() if trace is not None else 0.0
        try:
            part = self._pipeline(granule, st, load, trace)
        except CorruptChunkError:
            if self.on_corruption == "skip":
                st.chunks_corrupt += 1
                part = _Partial(st)
            else:
                if cancel is not None:
                    cancel.set()
                raise
        except GranuleError:
            if cancel is not None:
                cancel.set()
            raise
        except Exception as err:
            if cancel is not None:
                cancel.set()
            shard_of = getattr(source, "granule_shard", None)
            raise GranuleError(
                err, granule=granule.index,
                shard=shard_of(granule) if callable(shard_of) else None,
                column=where["column"]) from err
        if trace is not None:
            # the raw record Trace.add would build, minus its **attrs
            # re-pack (~0.5 µs): this runs once per granule, and the
            # 15 % traced-overhead gate on a sub-millisecond scan
            # (bench_obs.py) cannot spare it
            trace._spans.append(
                ("granule", t_span, trace.now(), threading.get_ident(),
                 granule_span_attrs(granule.index, st)))
        return part

    def prunes(self, granule) -> bool:
        """The zone-map test: can no row of ``granule`` match?  Its
        entry of :attr:`pruned`, decided from the source's conservative
        zone maps (and positional bitmaps — an all-dead granule prunes
        through the implicit deletion-vector term), never from a chunk.
        Asked per granule inside :meth:`run`; a driver that prunes
        before dispatch reads :attr:`pruned` whole instead, and its
        workers build their pipelines with ``prune=False``."""
        return self.pruned is not None and bool(self.pruned[granule.index])

    def _pipeline(self, granule, st: ExecStats, load, trace) -> _Partial:
        expr = self.expr
        terminal = self.terminal
        residual = self.residual
        n = granule.n_rows
        if self.prunes(granule):
            st.granules_pruned = 1
            return _Partial(st)

        residual_values: dict[str, np.ndarray] = {}
        if expr is None:
            positions = None
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
                part = load(column).filter_range(rng.lo, rng.hi)
                mask = part if mask is None else mask & part
            positions = np.arange(n, dtype=np.int64) if mask is None \
                else np.flatnonzero(mask)
            if residual is not None and positions.size:
                batch = {c: load(c).gather(positions)
                         for c in sorted(residual.columns())}
                keep = residual.evaluate(batch,
                                         granule.row_start + positions)
                positions = positions[keep]
                # the residual gather already decoded these columns at
                # the surviving positions; reuse instead of re-gathering
                residual_values = {c: values[keep]
                                   for c, values in batch.items()}
            st.cpu_filter_s += time.perf_counter() - t0
            if trace is not None:
                trace.add("filter", t0 - trace.t0,
                          time.perf_counter() - trace.t0,
                          granule=granule.index)

        matched = n if positions is None else len(positions)
        st.rows_scanned += matched
        if matched == 0:
            return _Partial(st)
        if positions is not None and positions.size == n:
            # every row survived, so positions is arange(n): decode
            # sequentially instead of gathering each one (the codecs'
            # gather(idx) == decode_all()[idx] contract makes the two
            # equal; the same chunks are loaded, so the counts are too)
            positions = None
        limit = self.limit
        if limit is not None and limit < matched:
            # gather only the first ``limit`` survivors; the chunks still
            # load below, so the counts equal the unlimited run's
            positions = np.arange(limit, dtype=np.int64) \
                if positions is None else positions[:limit]
            residual_values = {c: values[:limit]
                               for c, values in residual_values.items()}

        t0 = time.perf_counter()
        out: dict[str, np.ndarray] = {}
        for c in self.mat_cols:
            if c in residual_values:
                out[c] = residual_values[c]
            elif positions is None:
                out[c] = load(c).decode_all()
            else:
                out[c] = load(c).gather(positions)
        st.cpu_gather_s += time.perf_counter() - t0
        if trace is not None:
            trace.add("gather", t0 - trace.t0,
                      time.perf_counter() - trace.t0,
                      granule=granule.index)
        row_ids = granule.row_start + (
            np.arange(n, dtype=np.int64) if positions is None
            else positions)

        if isinstance(terminal, Aggregate):
            t0 = time.perf_counter()
            agg = _agg_partial(terminal, out, len(row_ids))
            st.cpu_aggregate_s += time.perf_counter() - t0
            if trace is not None:
                trace.add("aggregate", t0 - trace.t0,
                          time.perf_counter() - trace.t0,
                          granule=granule.index)
            return _Partial(st, agg=agg)
        if isinstance(terminal, HashJoin):
            t0 = time.perf_counter()
            row_ids, columns = self._probe(out, row_ids)
            st.cpu_join_s += time.perf_counter() - t0
            if trace is not None:
                trace.add("join", t0 - trace.t0,
                          time.perf_counter() - trace.t0,
                          granule=granule.index)
            return _Partial(st, row_ids, columns)
        return _Partial(st, row_ids, {c: out[c] for c in self.output_cols})

    def _probe(self, out: dict, row_ids: np.ndarray):
        """Probe one granule's batch against the sorted build keys;
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

    * ``None`` — on the calling thread.  Only the granules that survive
      the zone-map decision run; the rest are charged together as one
      partial and, traced, one ``"prune"`` span.
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
            # every later granule returns None without doing work
            results = map(run_granule, items)
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
            # a granule with rows counted every match it gathered from
            n_matched = sum(p.stats.rows_scanned for p in rows)
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
