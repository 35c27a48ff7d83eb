"""The differential oracle: every execution tier against one numpy
reference.

Hypothesis draws a table — under every integer registry codec, with
random ``shard_rows`` / ``chunk_rows``, values with 40-bit jumps, a
deletion vector, an earlier generation held open while a later one
commits, and a live view with pending deletes and a memtable tail — and
plans over it: range, IN, OR and bitmap filters (a bitmap as long as
the rows or shorter), projections, grouped and global aggregates over
every op in ``AGG_OPS`` or only the ones a narrow key counts densely,
semi and inner joins, limits — and a cap on a lane's batch of one
granule, a few, or the whole table.  Each plan runs

* over the held snapshot on the calling thread, a thread-tier
  :class:`MorselScheduler` and a :class:`ProcessScheduler` (its start
  method from ``REPRO_PAR_START_METHOD``), and through a lane worker's
  code in-process (:class:`exec_checks.InProcessLane`) with its batches
  cut at the drawn cap;
* over the live view, which no process tier runs, on the first two;
* over the wire, through :class:`ServeClient`, on a
  :class:`TableServer` of each ``worker_tier``, which serve the latest
  generation;

and every answer must be :func:`exec_checks.reference_result`'s: the
rows, ``n_rows``, the groups in ascending key order, sums exact.
Across the tiers of one source every integer ``ExecStats`` count is
equal (a server's bar the cache split: it keeps a cache of its own),
every granule is run or pruned exactly once, and the zone-map decision
is the per-granule rule's.
"""

import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exec_checks import (
    CACHE_FIELDS,
    InProcessLane,
    assert_matches_reference,
    assert_tiers_agree,
    count_fields,
    reference_result,
)
from repro import codecs
from repro.exec import Bitmap, MorselScheduler, Plan, col
from repro.exec.pool import auto_workers
from repro.exec import run as exec_run
from repro.exec.plan import AGG_OPS
from repro.mutate import MutableTable
from repro.par import ProcessScheduler
from repro.serve import ServeClient, TableServer
from repro.store import Table, write_table
from repro.store.executor import StoreSource

INT_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_integers]
NAMES = ("v", "k", "r")
#: every tier's width: two, or one where the process may use one CPU —
#: one lane cuts a query into other runs, and so other batches
WIDTH = min(2, auto_workers())


@pytest.fixture(scope="module")
def tiers():
    with MorselScheduler(workers=WIDTH, name="oracle-threads") as threads, \
            ProcessScheduler(workers=WIDTH, name="oracle-lanes") as lanes:
        yield threads, lanes


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A root served uncached on both worker tiers, a client of each,
    and a counter naming each drawn table."""
    root = str(tmp_path_factory.mktemp("oracle"))
    with TableServer(root, workers=WIDTH, cache_bytes=0) as on_threads, \
            TableServer(root, workers=WIDTH, worker_tier="process",
                        cache_bytes=0) as on_lanes, \
            ServeClient(*on_threads.address) as to_threads, \
            ServeClient(*on_lanes.address) as to_lanes:
        yield root, (to_threads, to_lanes), itertools.count()


def _columns(rng, first_row: int, n: int, jump_rate: float, n_keys: int,
             sorted_only: bool) -> dict:
    """``v`` a walk of small steps and 40-bit jumps, ``k`` a small key
    domain, ``r`` the row number."""
    steps = rng.integers(-3, 4, n)
    jumps = rng.random(n) < jump_rate
    steps[jumps] = rng.integers(-(1 << 40), 1 << 40, int(jumps.sum()))
    v, k = np.cumsum(steps), rng.integers(0, n_keys, n)
    if sorted_only:
        v, k = np.sort(np.abs(v)), np.sort(k)
    return {"v": v.astype(np.int64), "k": k.astype(np.int64),
            "r": np.arange(first_row, first_row + n, dtype=np.int64)}


def _delete(data, table, n: int, live: np.ndarray) -> None:
    """Delete a drawn range of ``r`` (pending until a flush)."""
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    table.delete(("r", lo, hi))
    live[lo:hi] = False


def _generation(columns: dict, live: np.ndarray, kept: np.ndarray,
                shard_rows: int, chunk_rows: int) -> tuple:
    """A generation as the reference sees it — the columns and live
    rows of the shards it ``kept`` (a flush folds away a shard it leaves
    with no live row, and the rows after it move up) — and its granule
    starts."""
    starts, at = [], 0
    for shard in range(0, len(live), shard_rows):
        size = len(live[shard: shard + shard_rows])
        if kept[shard]:
            starts += range(at, at + size, chunk_rows)
            at += size
    return ({c: values[kept] for c, values in columns.items()},
            live[kept]), starts


def _term(data, rng, columns: dict, n_rows: int):
    kind = data.draw(st.sampled_from(
        ["range", "half_lo", "half_hi", "eq", "in", "bitmap"]))
    if kind == "bitmap":
        # as long as the rows it selects from, or shorter: rows past its
        # end are unset
        size = data.draw(st.sampled_from([n_rows, n_rows // 2, 1]))
        return Bitmap(rng.random(size) < data.draw(
            st.sampled_from([0.0, 0.3, 0.9])))
    name = data.draw(st.sampled_from(NAMES))
    values = columns[name]
    near = st.one_of(st.sampled_from(values.tolist()), st.integers(
        int(values.min()) - 5, int(values.max()) + 5))
    a, b = sorted((data.draw(near), data.draw(near)))
    if kind == "range":
        return col(name).between(a, b)
    if kind == "half_lo":
        return col(name) >= a
    if kind == "half_hi":
        return col(name) < b
    if kind == "eq":
        return col(name) == a
    return col(name).isin(data.draw(st.lists(near, max_size=5)))


def _plan(data, rng, columns: dict, n_rows: int) -> Plan:
    scanned = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)))
    plan = Plan.scan(scanned)
    if data.draw(st.integers(0, 4)):  # one plan in five filters nothing
        expr = None
        for _ in range(data.draw(st.integers(1, 3))):
            term = _term(data, rng, columns, n_rows)
            if data.draw(st.booleans()):
                term = term | _term(data, rng, columns, n_rows)
            expr = term if expr is None else expr & term
        plan = plan.where(expr)
    shape = data.draw(st.sampled_from(
        ["rows", "project", "grouped", "global", "semi", "inner"]))
    if shape in ("grouped", "global"):
        # every op, or sum / count / avg alone — which a narrow key
        # (k) counts densely and a wide one (v, with jumps) sorts
        column = data.draw(st.sampled_from(NAMES))
        ops = data.draw(st.sampled_from(
            [AGG_OPS, ("sum", "count", "avg"), ("count",)]))
        return plan.aggregate(
            {op: (op, column) for op in ops},
            group_by=data.draw(st.sampled_from(["k", "v"]))
            if shape == "grouped" else None)
    if shape in ("semi", "inner"):
        keys = data.draw(st.lists(st.integers(-1, 6), max_size=4,
                                  unique=True))
        if shape == "semi":
            return plan.join(on="k", keys=keys)
        return plan.join(on="k", how="inner", build={
            "k": keys, "z": [3 * key + 1 for key in keys]})
    if shape == "project":
        plan = plan.project(data.draw(st.lists(
            st.sampled_from(scanned or NAMES), min_size=1, unique=True)))
    if data.draw(st.booleans()):
        plan = plan.limit(data.draw(st.integers(0, n_rows + 2)))
    return plan


def _assert_served(clients, name: str, plan: Plan, want: dict,
                   local: dict | None) -> None:
    """Each server's reply to ``plan`` (a limit travels as the request's
    ``limit``) is ``want``; its counts bar the cache split are the other
    server's and, given ``local`` (the counts of a local run over the
    same generation), those."""
    limit = plan.row_limit
    sent = plan if limit is None else Plan(plan.nodes[:-1])
    counts = []
    for client in clients:
        reply = client.query(name, sent, limit=limit)
        assert_matches_reference(reply["n_rows"], reply["groups"],
                                 reply.get("row_ids"),
                                 reply.get("columns"), want)
        if want["groups"] is None:
            assert reply["truncated"] == \
                (len(want["row_ids"]) < want["n_rows"])
        counts.append({field: value
                       for field, value in reply["stats"].items()
                       if isinstance(value, int)
                       and field not in CACHE_FIELDS})
    if local is not None:
        counts.append({field: value for field, value in local.items()
                       if field not in CACHE_FIELDS})
    assert all(c == counts[0] for c in counts)


@pytest.mark.parametrize("codec", INT_CODECS)
@given(data=st.data())
# monkeypatch is set afresh by every example
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_tier_matches_numpy(codec, tiers, served, data, monkeypatch):
    root, clients, names = served
    # an in-process lane's batches: a granule each, a few, or every
    # granule of the table — across its shard boundaries (a real lane's
    # batches are its runs, cut at the module's cap, and the tables here
    # fit in one)
    monkeypatch.setattr(exec_run, "BATCH_ROWS",
                        data.draw(st.sampled_from([1, 50, 1 << 20])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(1, 200))
    chunk_rows = data.draw(st.integers(4, 48))
    shard_rows = data.draw(st.integers(chunk_rows, 3 * chunk_rows))
    shape = (data.draw(st.sampled_from([0.0, 0.05, 0.5])),
             data.draw(st.integers(1, 6)))
    columns = _columns(rng, 0, n, *shape,
                       codecs.info(codec).requires_sorted)
    name = f"t{next(names)}"
    path = os.path.join(root, name)
    write_table(path, columns, codec=codec, shard_rows=shard_rows,
                chunk_rows=chunk_rows)
    live, kept = np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    with MutableTable.open(path) as table:
        def commit():
            """A drawn delete, flushed: the flush folds away each shard
            it leaves with no live row, and the rows after it move up."""
            _delete(data, table, n, live)
            table.flush()
            for shard in range(0, n, shard_rows):
                if not live[shard: shard + shard_rows].any():
                    kept[shard: shard + shard_rows] = False

        if data.draw(st.booleans()):  # a deletion vector
            commit()
        at_held, held_starts = _generation(columns, live, kept,
                                           shard_rows, chunk_rows)
        with Table.open(path, cache_bytes=0) as held:
            later = data.draw(st.booleans())
            if later:  # a later generation commits behind the held one
                commit()
            latest, _ = _generation(columns, live, kept, shard_rows,
                                    chunk_rows)
            # the live view: pending deletes, then a memtable tail
            _delete(data, table, n, live)
            tail = _columns(rng, n, data.draw(
                st.integers(1, 2 * chunk_rows)), *shape, False)
            table.append(tail)
            (base, base_live), base_starts = _generation(
                columns, live, kept, shard_rows, chunk_rows)
            n_view = len(base_live) + len(tail["r"])
            at_view = (
                {c: np.concatenate([base[c], tail[c]]) for c in NAMES},
                np.concatenate([base_live, np.ones(len(tail["r"]), bool)]))
            snapshot, view = StoreSource(held), table.source()
            assert snapshot.granule_extents()[0].tolist() == held_starts
            assert view.granule_extents()[0].tolist() == base_starts + list(
                range(len(base_live), n_view, chunk_rows))
            # warm the view's cached base: every tier then counts hits
            Plan.scan().execute(view)
            prune = data.draw(st.booleans())
            for _ in range(2):
                # a bitmap covers the held snapshot's rows and the view's
                plan = _plan(data, rng, at_view[0], n + len(tail["r"]))
                want = reference_result(plan, *at_held)
                got = assert_tiers_agree(plan, snapshot, *tiers,
                                         prune=prune, want=want)
                batched = plan.execute(snapshot, prune=prune,
                                       scheduler=InProcessLane())
                assert_matches_reference(batched.n_rows, batched.groups,
                                         batched.row_ids, batched.columns,
                                         want)
                assert count_fields(batched.stats) == \
                    count_fields(got.stats)
                if plan.row_limit is not None:
                    # a limit gathers fewer rows, never loads fewer
                    unlimited = Plan(plan.nodes[:-1]).execute(
                        snapshot, prune=prune)
                    assert count_fields(unlimited.stats) == \
                        count_fields(got.stats)
                # a server prunes, and serves the latest generation
                _assert_served(clients, name, plan,
                               reference_result(plan, *latest),
                               count_fields(got.stats)
                               if prune and not later else None)
                assert_tiers_agree(plan, view, tiers[0], None, prune=prune,
                                   want=reference_result(plan, *at_view))
