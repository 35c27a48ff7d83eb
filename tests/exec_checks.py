"""Checks on an :class:`~repro.exec.ExecResult` shared by the exec, obs,
par, mutate and oracle suites (imported as a plain module: pytest puts
``tests/`` on ``sys.path``), and the numpy reference every tier is held
to (:func:`reference_result`)."""

import dataclasses

import numpy as np

from repro.exec.expr import And, Bitmap, InSet, Or, Range
from repro.exec.plan import Aggregate, HashJoin, Limit, Project
from repro.exec.run import GranulePipeline, granule_span_attrs
from repro.obs.trace import Trace
from repro.par.worker import WorkerState

#: the counts a chunk cache decides: equal across tiers only where no
#: tier runs with a cache of its own
CACHE_FIELDS = frozenset({"bytes_read", "reads", "cache_hits",
                          "cache_misses", "cache_evictions"})


def count_fields(stats) -> dict:
    """Every integer field of an ``ExecStats`` — the work counts, which
    do not depend on where the granules ran (the float fields are
    timings, which do).  The cache hit/miss split is only comparable
    between runs over an uncached table or the same warm cache."""
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), int)}


def assert_granule_spans_match(trace, stats) -> None:
    """A traced run accounted for every granule exactly once, on every
    tier: a granule either ran — one "granule" span, its index unique —
    or was pruned before dispatch and is counted by the driver's one
    "prune" span (the calling thread and the process tier; on the thread
    tier pruning happens inside the granule and there is no such span).
    Count honoured, and the spans' attrs sum to the query's stats."""
    spans = [s for s in trace.spans if s.name == "granule"]
    prunes = [s for s in trace.spans if s.name == "prune"]
    assert len(prunes) <= 1
    driver_pruned = sum(s.attrs["pruned"] for s in prunes)
    indices = [s.attrs["granule"] for s in spans]
    assert len(set(indices)) == len(indices)
    assert all(0 <= i < stats.granules_total for i in indices)
    assert len(spans) + driver_pruned == stats.granules_total
    for attr, want in (("pruned", stats.granules_pruned - driver_pruned),
                       ("cache_hits", stats.cache_hits),
                       ("cache_misses", stats.cache_misses),
                       ("rows", stats.rows_scanned)):
        assert sum(s.attrs[attr] for s in spans) == want, attr


class InProcessLane:
    """A process tier without a process: ``execute(scheduler=...)``
    describes the query and hands this one lane every survivor, which
    one in-process :class:`WorkerState` runs as a lane worker does — cut
    into batches of at most ``repro.exec.run.BATCH_ROWS`` rows, read at
    call time, so a test may set it.  Only the calling thread's own
    process is touched, and a traced run's "granule" spans land in the
    query trace as the driver would adopt them."""

    tier = "process"

    def run_query(self, fn, items, cancel, deadline=None, trace=None,
                  descriptor=None) -> list:
        state = WorkerState()
        state.admit(1, descriptor.to_json(), None)
        try:
            parts = state.run_granules(1, [g.index for g in items])
        finally:
            state.admit(0, None, 1)  # drop it, closing its table
        for granule, part in zip(items, parts):
            if part is not None and part.spans:
                start, end, _ = part.spans
                part.spans = None
                trace.add("granule", start - trace.t0, end - trace.t0,
                          **granule_span_attrs(granule.index, part.stats))
        return parts


def assert_rows_equal(got, expected) -> None:
    assert np.array_equal(got.row_ids, expected.row_ids)
    assert set(got.columns) == set(expected.columns)
    for name in expected.columns:
        assert np.array_equal(np.asarray(got.columns[name]),
                              np.asarray(expected.columns[name])), name


def assert_tiers_agree(plan, source, thread_sched, proc_sched, want=None,
                       **opts):
    """Run ``plan`` traced on the calling thread, on a thread-tier
    scheduler and — when ``source`` describes itself, the only sources a
    process tier runs — on a process-tier one.  Each run must examine
    every granule exactly once (stats and "granule" spans), and the
    scheduler tiers must return the caller's rows/groups and the
    caller's counts — so ``source`` must be uncached or warm (see
    :func:`count_fields`).  The query's zone-map decision must be the
    per-granule rule's (:func:`reference_may_match`), and the answer
    ``want``'s (:func:`reference_result`) when one is given.  Returns
    the calling-thread result."""
    pipeline = GranulePipeline(plan, source, prune=opts.get("prune", True))
    if pipeline.pruned is not None:
        zones = {c: source.zone_maps(c) for c in pipeline.pred_cols}
        assert pipeline.pruned.tolist() == (~reference_may_match(
            pipeline.expr, zones, *source.granule_extents())).tolist()
    tiers = [{}, {"scheduler": thread_sched}]
    if hasattr(source, "wire_descriptor"):
        tiers.append({"scheduler": proc_sched})
    results = []
    for where in tiers:
        trace = Trace("tier")
        res = plan.execute(source, trace=trace, **where, **opts)
        assert res.stats.granules_total == len(source.granules())
        assert_granule_spans_match(trace, res.stats)
        results.append(res)
    expected = results[0]
    for got in results[1:]:
        assert got.groups == expected.groups
        # group order reaches the wire
        assert list(got.groups or ()) == list(expected.groups or ())
        assert_rows_equal(got, expected)
        assert count_fields(got.stats) == count_fields(expected.stats)
    if want is not None:
        assert_matches_reference(expected.n_rows, expected.groups,
                                 expected.row_ids, expected.columns, want)
    return expected


def limit_cases(matches: int) -> list:
    """The limits worth trying on a plan with ``matches`` rows: none
    kept, one, fewer than the matches, exactly the matches, more."""
    return sorted({0, 1, matches // 2, matches, matches + 7})


def assert_limit_agrees(plan, source, **opts) -> None:
    """``plan.limit(n)`` for every :func:`limit_cases` ``n`` against
    ``plan`` unlimited, both run with ``opts``: the first ``n`` rows of
    the unlimited run, its ``n_rows``, and every integer ``ExecStats``
    field equal — the same chunks load.  A first run warms a cached
    ``source``, whose cache must then hold the plan's chunks (see
    :func:`count_fields`).  The plan must match at least 3 rows, so the
    cases are distinct."""
    plan.execute(source, **opts)
    full = plan.execute(source, **opts)
    assert full.n_rows == len(full.row_ids) >= 3
    for n in limit_cases(full.n_rows):
        got = plan.limit(n).execute(source, **opts)
        assert got.n_rows == full.n_rows, n
        assert len(got.row_ids) == min(n, full.n_rows), n
        assert np.array_equal(got.row_ids, full.row_ids[:n]), n
        assert set(got.columns) == set(full.columns), n
        for name, values in full.columns.items():
            assert np.array_equal(got.columns[name], values[:n]), (n, name)
        assert count_fields(got.stats) == count_fields(full.stats), n
        # what a granule gathers — and ships off a lane — is at most n
        # rows, every column cut with its row ids
        pipeline = GranulePipeline(plan.limit(n), source)
        for granule in source.granules():
            part = pipeline.run(granule)
            if part.row_ids is not None:
                kept = min(n, part.stats.rows_scanned)
                assert len(part.row_ids) == kept, (n, granule.index)
                assert all(len(values) == kept
                           for values in part.columns.values())


def maybe_match(expr, bounds, row_start: int, n_rows: int) -> bool:
    """The per-granule zone-map rule ``Expr.may_match`` replaced, kept as
    its reference: could any row of the one granule of ``n_rows`` rows
    from global row ``row_start`` match, given ``bounds`` (column ->
    inclusive ``(zmin, zmax)``, or ``None`` when unknown)?"""
    if isinstance(expr, Range):
        if expr.is_empty:
            return False
        band = bounds.get(expr.column)
        if band is None:
            return True
        zmin, zmax = band
        if expr.lo is not None and zmax < expr.lo:
            return False
        if expr.hi is not None and zmin >= expr.hi:
            return False
        return True
    if isinstance(expr, InSet):
        if expr.values.size == 0:
            return False
        band = bounds.get(expr.column)
        if band is None:
            return True
        zmin, zmax = band
        return bool(((expr.values >= zmin) & (expr.values <= zmax)).any())
    if isinstance(expr, Bitmap):
        return bool(expr.bitmap[row_start: row_start + n_rows].any())
    if isinstance(expr, And):
        return all(maybe_match(c, bounds, row_start, n_rows)
                   for c in expr.children)
    if isinstance(expr, Or):
        return any(maybe_match(c, bounds, row_start, n_rows)
                   for c in expr.children)
    raise TypeError(f"not an expression: {expr!r}")


def reference_may_match(expr, zones, starts, counts) -> np.ndarray:
    """:func:`maybe_match` asked once per granule, in ``may_match``'s
    arguments: every granule's bounds read from the zone arrays."""
    return np.array([
        maybe_match(expr, {c: (int(zmin[i]), int(zmax[i]))
                           for c, (zmin, zmax) in zones.items()},
                    int(starts[i]), int(counts[i]))
        for i in range(len(starts))], dtype=bool)


# --------------------------------------------------------- numpy reference
def reference_mask(expr, columns: dict, n_rows: int) -> np.ndarray:
    """The rows ``expr`` keeps among ``n_rows`` rows of ``columns``, read
    from the expression tree's public fields alone."""
    if isinstance(expr, Range):
        values = columns[expr.column]
        keep = np.ones(n_rows, dtype=bool)
        if expr.lo is not None:
            keep &= values >= expr.lo
        if expr.hi is not None:
            keep &= values < expr.hi
        return keep
    if isinstance(expr, InSet):
        return np.isin(columns[expr.column], expr.values)
    if isinstance(expr, Bitmap):
        keep = np.zeros(n_rows, dtype=bool)  # rows past its end are unset
        cut = min(n_rows, expr.bitmap.size)
        keep[:cut] = expr.bitmap[:cut]
        return keep
    if isinstance(expr, (And, Or)):
        masks = [reference_mask(c, columns, n_rows) for c in expr.children]
        return (np.logical_and if isinstance(expr, And)
                else np.logical_or).reduce(masks)
    raise TypeError(f"not an expression: {expr!r}")


def reference_result(plan, columns: dict, live: np.ndarray,
                     starts) -> dict:
    """What ``plan`` must return over the arrays ``columns`` with
    ``live`` rows visible, computed in numpy and Python ints from the
    plan's public fields: ``n_rows``, ``groups`` (an ordered dict, or
    ``None``), ``row_ids`` and ``columns``.  Groups appear in the order
    of their first row's granule (``starts``: each granule's first
    row), sorted within it, as the executor's merge orders them."""
    n = len(live)
    keep = live.copy()
    expr = plan.filter_expr()
    if expr is not None:
        keep &= reference_mask(expr, columns, n)
    names = plan.scan_node.columns or tuple(columns)
    for node in plan.nodes:
        if isinstance(node, Project):
            names = node.columns
    tail = plan.nodes[-1]
    if isinstance(tail, Aggregate):
        keys = columns[tail.group_by] if tail.group_by is not None \
            else np.zeros(n, dtype=np.int64)
        order: list = []
        for lo, hi in zip(starts, [*starts[1:], n]):
            for key in np.unique(keys[lo:hi][keep[lo:hi]]).tolist():
                if key not in order:
                    order.append(key)
        groups = {}
        for key in order:
            rows = keep & (keys == key)
            count = int(rows.sum())
            row = {}
            for out, op, column in tail.aggs:
                values = columns[column][rows].tolist()
                row[out] = {"sum": sum(values), "count": count,
                            "avg": sum(values) / count,
                            "min": min(values), "max": max(values)}[op]
            groups[None if tail.group_by is None else key] = row
        return {"n_rows": 0, "groups": groups,
                "row_ids": np.empty(0, dtype=np.int64), "columns": {}}
    payload = {}
    if isinstance(tail, HashJoin):
        keep &= np.isin(columns[tail.on], tail.keys)
        if tail.how == "inner" and tail.build:
            slot = {int(k): i for i, k in enumerate(tail.keys)}
            at = [slot[int(v)] for v in columns[tail.on][keep]]
            payload = {name: np.asarray(values)[at]
                       for name, values in tail.build}
    row_ids = np.flatnonzero(keep)
    out = {name: columns[name][keep] for name in names} | payload
    cut = tail.n if isinstance(tail, Limit) else len(row_ids)
    return {"n_rows": len(row_ids), "groups": None,
            "row_ids": row_ids[:cut],
            "columns": {name: values[:cut] for name, values in out.items()}}


def assert_matches_reference(n_rows, groups, row_ids, columns, want):
    """One tier's answer — an ``ExecResult``'s fields or a served
    reply's — is :func:`reference_result`'s ``want``: the same groups in
    the same order, or the same rows with ``n_rows`` counting every
    match."""
    if want["groups"] is not None:
        assert groups is not None
        assert list(dict(groups).items()) == list(want["groups"].items())
        return
    assert groups is None
    assert n_rows == want["n_rows"]
    assert np.array_equal(row_ids, want["row_ids"])
    assert set(columns) == set(want["columns"])
    for name, values in want["columns"].items():
        assert np.array_equal(np.asarray(columns[name]), values), name
