"""Tests for the unified execution layer (``repro.exec``)."""

import json
import threading

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False

from exec_checks import (
    InProcessLane,
    assert_granule_spans_match,
    assert_limit_agrees,
    assert_tiers_agree,
    count_fields,
    reference_may_match,
    reference_result,
)
from repro import codecs
from repro.baselines.base import gather_many
from repro.exec import (
    And,
    ArraySource,
    Bitmap,
    ChainSource,
    InSet,
    MorselScheduler,
    Or,
    Plan,
    Range,
    col,
    split_pushdown,
)
from repro.exec import run as exec_run
from repro.exec.source import Granule, zone_arrays
from repro.mutate import MutableTable
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Trace
from repro.par import ProcessScheduler
from repro.store import Table, write_table
from repro.store.executor import StoreSource

INT_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_integers]
I64 = np.iinfo(np.int64)


def sensor_columns(n=6000, seed=3):
    from repro.datasets import sensor_fixture

    return sensor_fixture(n, seed=seed)


@pytest.fixture(scope="module")
def backends(tmp_path_factory):
    """The same table behind both ColumnSource implementations."""
    columns = sensor_columns()
    path = str(tmp_path_factory.mktemp("exec") / "table")
    write_table(path, columns, codec="auto", shard_rows=1500,
                chunk_rows=250)
    table = Table.open(path)
    sources = {
        "store": StoreSource(table),
        "memory": ArraySource(columns, morsel_rows=1500),
    }
    yield columns, sources
    table.close()


@pytest.fixture(scope="module")
def tiers():
    """A 2-worker thread tier and a 2-worker process tier."""
    with MorselScheduler(workers=2, name="t-exec") as thread_tier, \
            ProcessScheduler(workers=2, name="t-exec-par") as proc_tier:
        yield thread_tier, proc_tier


class TestExpr:
    def test_col_sugar(self):
        assert col("a").between(3, 9) == Range("a", 3, 9)
        assert (col("a") >= 3) == Range("a", 3, None)
        assert (col("a") > 3) == Range("a", 4, None)
        assert (col("a") < 9) == Range("a", None, 9)
        assert (col("a") <= 9) == Range("a", None, 10)
        assert (col("a") == 5) == Range("a", 5, 6)
        assert col("a").isin([2, 1, 2]) == InSet("a", [1, 2])

    def test_junctions_flatten(self):
        e = (col("a") >= 1) & (col("b") >= 2) & (col("c") >= 3)
        assert isinstance(e, And) and len(e.children) == 3
        o = (col("a") >= 1) | ((col("b") >= 2) | (col("c") >= 3))
        assert isinstance(o, Or) and len(o.children) == 3
        assert e.columns() == frozenset("abc")

    def test_range_may_match(self):
        zones = {"a": zone_arrays([(0, 9), (20, 30), (15, 16), None])}
        starts, counts = np.arange(0, 20, 5), np.full(4, 5)
        # the last granule's bounds are unknown: it never prunes
        assert Range("a", 10, 20).may_match(
            zones, starts, counts).tolist() == [False, False, True, True]
        assert Range("a", 7, 7).may_match(
            zones, starts, counts).tolist() == [False] * 4
        # no int64 lies beyond int64, unknown bounds or not
        assert Range("a", 1 << 63, None).may_match(
            zones, starts, counts).tolist() == [False] * 4
        assert Range("a", -(1 << 64), 1 << 64).may_match(
            zones, starts, counts).tolist() == [True] * 4

    def test_inset_and_bitmap_may_match(self):
        zones = {"a": zone_arrays([(10, 40), (40, 60), None])}
        starts, counts = np.array([0, 2, 4]), np.array([2, 2, 0])
        assert InSet("a", [5, 50]).may_match(
            zones, starts, counts).tolist() == [False, True, True]
        assert InSet("a", []).may_match(
            zones, starts, counts).tolist() == [False] * 3
        bm = Bitmap(np.array([0, 0, 1, 0, 1], dtype=bool))
        # the zero-row granule at row 4 holds no set bit, though row 4 is
        assert bm.may_match({}, starts, counts).tolist() \
            == [False, True, False]
        # rows past the bitmap's end are unset
        assert bm.may_match({}, np.array([3, 5]),
                            np.array([4, 3])).tolist() == [True, False]

    if HAVE_HYPOTHESIS:
        @given(data=st.data())
        @settings(max_examples=300, deadline=None)
        def test_may_match_is_the_per_granule_rule(self, data):
            """Over random granules (gaps and zero-row ones included),
            zone arrays (unknown bounds included) and nested predicates,
            ``may_match`` decides every granule as the per-granule rule
            it replaced did."""
            counts = np.array(data.draw(st.lists(
                st.integers(0, 6), max_size=12)), dtype=np.int64)
            gaps = np.array(data.draw(st.lists(
                st.integers(0, 3), min_size=len(counts),
                max_size=len(counts))), dtype=np.int64)
            starts = np.cumsum(gaps + counts) - counts
            n_rows = int(starts[-1] + counts[-1]) if len(counts) else 0
            zones = {c: zone_arrays(data.draw(st.lists(
                _bands(), min_size=len(counts), max_size=len(counts))))
                for c in "ab"}
            expr = data.draw(_exprs(n_rows))
            got = expr.may_match(zones, starts, counts)
            assert got.dtype == bool and got.shape == (len(counts),)
            assert got.tolist() == reference_may_match(
                expr, zones, starts, counts).tolist()

        @given(data=st.data())
        @settings(max_examples=200, deadline=None)
        def test_may_match_never_prunes_a_matching_row(self, data):
            """On data with exact zone maps, a granule holding a row the
            predicate matches (numpy decides) is never pruned."""
            counts = np.array(data.draw(st.lists(
                st.integers(0, 6), max_size=10)), dtype=np.int64)
            starts = np.cumsum(counts) - counts
            n_rows = int(counts.sum())
            batch = {c: np.array(data.draw(st.lists(
                st.integers(-12, 12), min_size=n_rows, max_size=n_rows)),
                dtype=np.int64) for c in "ab"}
            zones = {c: zone_arrays(
                (int(v[s:s + k].min()), int(v[s:s + k].max())) if k
                else None for s, k in zip(starts, counts))
                for c, v in batch.items()}
            expr = data.draw(_exprs(n_rows, exact=True))
            hits = expr.evaluate(batch, np.arange(n_rows))
            may = expr.may_match(zones, starts, counts)
            for i, (s, k) in enumerate(zip(starts, counts)):
                if hits[s:s + k].any():
                    assert may[i], i

    def test_evaluate(self):
        batch = {"a": np.array([1, 5, 9]), "b": np.array([2, 2, 7])}
        ids = np.arange(3)
        e = col("a").between(2, 10) & (col("b") == 2)
        assert list(e.evaluate(batch, ids)) == [False, True, False]
        o = (col("a") == 1) | (col("b") == 7)
        assert list(o.evaluate(batch, ids)) == [True, False, True]

    def test_split_pushdown(self):
        e = ((col("a") >= 1) & (col("a") < 9) & (col("b") >= 5)
             & col("c").isin([1]) & Bitmap(np.ones(4, dtype=bool)))
        ranges, bitmaps, residual = split_pushdown(e)
        # the two half-ranges on `a` merged into one pushable range;
        # the lone half-range on `b` stays residual with the IN term
        assert ranges == {"a": Range("a", 1, 9)}
        assert len(bitmaps) == 1
        assert isinstance(residual, And) and len(residual.children) == 2
        assert split_pushdown(None) == ({}, (), None)


if HAVE_HYPOTHESIS:
    #: bounds near and beyond the int64 edges, beside small ones
    _EDGES = st.sampled_from([I64.min, I64.min + 1, I64.max - 1, I64.max,
                              -(1 << 64), 1 << 63, 1 << 64])

    @st.composite
    def _bands(draw):
        """One granule's zone map: unknown, or ``zmin <= zmax``."""
        if draw(st.integers(0, 4)) == 0:
            return None
        point = st.integers(-12, 12) | st.sampled_from(
            [I64.min, I64.max])
        return tuple(sorted((draw(point), draw(point))))

    def _exprs(n_rows: int, exact: bool = False):
        """Nested And/Or trees of Range (empty, half-open, bounds beyond
        int64), InSet (empty too) and Bitmap terms over columns ``a`` and
        ``b``.  ``exact`` bitmaps cover exactly ``n_rows`` rows; otherwise
        they may stop short of them or run past, with all-false runs."""
        bound = st.none() | st.integers(-15, 15) | _EDGES
        ranges = st.builds(Range, st.sampled_from("ab"), bound, bound)
        insets = st.builds(InSet, st.sampled_from("ab"),
                           st.lists(st.integers(-15, 15), max_size=5))
        size = st.just(n_rows) if exact \
            else st.integers(max(0, n_rows - 3), n_rows + 3)

        @st.composite
        def bitmaps(draw):
            n = draw(size)
            bits = np.array(draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n)), dtype=bool)
            lo = draw(st.integers(0, n))
            bits[lo: draw(st.integers(lo, n))] = False  # a dead run
            return Bitmap(bits)

        leaves = ranges | insets | bitmaps()
        return st.recursive(
            leaves,
            lambda kids: st.builds(
                lambda junction, children: junction.of(*children),
                st.sampled_from([And, Or]),
                st.lists(kids, min_size=1, max_size=3)),
            max_leaves=6)


class TestPlanBuilder:
    def test_validation(self):
        with pytest.raises(ValueError, match="cannot be empty"):
            Plan.scan([])
        with pytest.raises(ValueError, match="unknown aggregate op"):
            Plan.scan().aggregate({"x": ("median", "a")})
        with pytest.raises(ValueError, match="unknown join mode"):
            Plan.scan().join(on="a", keys=[1], how="outer")
        with pytest.raises(ValueError, match="terminal"):
            Plan.scan().aggregate({"x": ("sum", "a")}).where(col("a") >= 0)
        with pytest.raises(ValueError, match="must be unique"):
            Plan.scan().join(on="k", build={"k": [1, 1], "v": [2, 3]},
                             how="inner")

    def test_unknown_column_raises_keyerror(self, backends):
        _, sources = backends
        for source in sources.values():
            with pytest.raises(KeyError, match="available: ts"):
                Plan.scan(["nope"]).execute(source)
            with pytest.raises(KeyError, match="unknown column"):
                Plan.scan(["ts"]).where(col("zzz") >= 0).execute(source)

    def test_static_explain(self):
        plan = (Plan.scan(["id"]).where(col("ts").between(1, 9))
                .aggregate({"s": ("sum", "val")}, group_by="id"))
        text = plan.explain()
        assert text.splitlines()[0].startswith("Aggregate[group_by=id")
        assert "1 <= ts < 9" in text and "Scan[columns=(id)]" in text


class TestLimit:
    """``Plan.limit(n)``: a row plan's first ``n`` matches in row order,
    while ``n_rows`` and every integer stat describe all of them."""

    PLAN = Plan.scan(["ts", "reading"]).where(col("status") <= 1)

    def test_only_a_row_plan_takes_one(self):
        for plan in (Plan.scan().aggregate({"n": ("count", "ts")}),
                     Plan.scan().join(on="ts", keys=[1]),
                     Plan.scan().limit(3)):
            with pytest.raises(ValueError, match="row plan"):
                plan.limit(1)
        with pytest.raises(ValueError, match="terminal Limit"):
            Plan.scan().limit(3).where(col("ts") >= 0)
        with pytest.raises(ValueError, match="terminal Limit"):
            Plan.scan().limit(3).project(["ts"])
        for bad in (-1, 2.0, True, "3", None):
            with pytest.raises(ValueError, match="limit must be"):
                Plan.scan().limit(bad)

    def test_round_trips_and_explains(self, backends):
        plan = self.PLAN.project(["reading"]).limit(5)
        wire = json.loads(json.dumps(plan.to_json()))
        assert wire["nodes"][-1] == {"kind": "limit", "n": 5}
        revived = Plan.from_json(wire)
        assert revived.nodes == plan.nodes and revived.row_limit == 5
        assert plan.explain().splitlines()[0] == "Limit[5]"
        res = plan.execute(backends[1]["memory"])
        assert res.explain().splitlines()[0] == "Limit[5]"
        with pytest.raises(ValueError, match="limit must be"):
            Plan.from_json({**wire, "nodes": wire["nodes"][:-1]
                            + [{"kind": "limit", "n": -2}]})
        assert Plan.scan().row_limit is None

    def test_agrees_with_the_unlimited_run(self, backends, tiers):
        """On the calling thread and the thread tier, over the store
        (uncached) and memory, pruned or not, a pushed range with
        a residual, a residual alone, and no filter (every granule
        survives whole)."""
        columns, sources = backends
        ts = columns["ts"]
        plans = [
            self.PLAN,
            Plan.scan(["status"]).where(
                col("ts").between(int(ts[700]), int(ts[4100]))
                & col("status").isin([0, 2])),
            Plan.scan(["sensor_id"]),
        ]
        with Table.open(sources["store"].table.path,
                        cache_bytes=0) as table:
            for source in (StoreSource(table), sources["memory"]):
                for plan in plans:
                    for opts in ({}, {"scheduler": tiers[0]},
                                 {"prune": False}):
                        assert_limit_agrees(plan, source, **opts)

    def test_deletion_vectors_and_a_memtable_tail(self, tmp_path):
        """A mutable table's live view: flushed deletion vectors,
        pending deletes and an unflushed tail, chained."""
        with MutableTable.create(str(tmp_path / "mt"),
                                 schema=("k", "v"), shard_rows=200,
                                 chunk_rows=50) as table:
            table.append({"k": np.arange(1000),
                          "v": np.arange(1000) * 3})
            table.flush()
            table.delete(col("k").between(100, 399))
            table.flush()
            table.delete(col("k").between(600, 650))
            table.append({"k": np.arange(1000, 1100),
                          "v": np.arange(1000, 1100) * 3})
            plan = Plan.scan(["k", "v"]).where(col("v") >= 30)
            assert plan.execute(table.source()).stats.rows_masked > 0
            assert_limit_agrees(plan, table.source())
            assert_limit_agrees(Plan.scan(["v"]), table.source())


class TestBackendEquivalence:
    """One logical plan, every backend, identical results."""

    def test_row_plan_agrees_everywhere(self, backends):
        columns, sources = backends
        ts = columns["ts"]
        lo, hi = int(ts[2000]), int(ts[2400])
        expr = col("ts").between(lo, hi) & col("status").isin([0, 2])
        mask = ((ts >= lo) & (ts < hi)
                & np.isin(columns["status"], [0, 2]))
        plan = Plan.scan(["sensor_id", "reading"]).where(expr)
        outputs = {name: plan.execute(source)
                   for name, source in sources.items()}
        for name, res in outputs.items():
            assert np.array_equal(res.row_ids, np.flatnonzero(mask)), name
            for column in ("sensor_id", "reading"):
                assert np.array_equal(res.columns[column],
                                      columns[column][mask]), name

    def test_two_pred_groupby_matches_legacy(self, backends):
        """The acceptance plan: 2-predicate filter + groupby-avg runs on
        both backends and matches a numpy reference exactly."""
        columns, sources = backends
        ts = columns["ts"]
        lo, hi = int(ts[1000]), int(ts[2500])
        n_half = (int(columns["sensor_id"].max()) + 1) // 2
        window = (ts >= lo) & (ts < hi)
        for pred, mask in (
                (col("ts").between(lo, hi)
                 & col("sensor_id").between(0, n_half),
                 window & (columns["sensor_id"] < n_half)),
                (col("ts").between(lo, hi), window)):
            plan = (Plan.scan().where(pred)
                    .aggregate({"avg": ("avg", "reading")},
                               group_by="sensor_id"))
            ids = columns["sensor_id"][mask]
            readings = columns["reading"][mask]
            expected = {int(key): float(readings[ids == key].mean())
                        for key in np.unique(ids)}
            for name, source in sources.items():
                groups = plan.execute(source).groups
                assert {k: v["avg"] for k, v in groups.items()} \
                    == pytest.approx(expected, rel=1e-12), name

    def test_explain_reports_pruning(self, backends):
        columns, sources = backends
        ts = columns["ts"]
        lo, hi = int(ts[3000]), int(ts[3030])  # ~0.5% selectivity
        plan = Plan.scan(["reading"]).where(col("ts").between(lo, hi))
        for name in ("store", "memory"):
            res = plan.execute(sources[name])
            assert res.stats.granules_pruned > 0, name
            text = res.explain()
            assert f"{res.stats.granules_pruned} pruned" in text
            assert "Filter[pushed:" in text and "Scan[" in text

    @pytest.mark.parametrize("codec", INT_CODECS)
    def test_fully_selected_granules_decode_sequentially(
            self, codec, tmp_path, tiers, monkeypatch):
        """A granule whose every row survives the filter is decoded
        whole, not gathered row by row — and nothing else changes: on
        every tier the rows are the selected ones, and every integer
        ``ExecStats`` field is the count of the chunks a surviving
        granule must load.  Granules are 32 rows; the range covers rows
        64–191, i.e. granules 2–5 exactly, and the rest are pruned by
        their zone maps."""
        k = np.arange(256, dtype=np.int64)
        columns = {"k": k, "v": k * 3 + 7, "w": k // 5}  # all sorted
        whole = col("k").between(64, 192)
        plans = {
            "pushed range only": Plan.scan(["k", "v", "w"]).where(whole),
            # v >= 0 is half-unbounded, so it runs as the residual —
            # and keeps every row
            "range + residual": Plan.scan(["k", "w"]).where(
                whole & (col("v") >= 0)),
        }

        def check(path, live):
            with Table.open(path, cache_bytes=0) as table:
                source = StoreSource(table)
                # each surviving granule loads k (filter_range), v (the
                # residual, or decoded whole) and w: three uncached reads
                loaded = []
                for shard in table.shards:
                    for chunks in shard.by_column.values():
                        for c in chunks:
                            first = shard.footer.row_start + c.row_start - 64
                            if 0 <= first < 128 and \
                                    live[first: first + c.n_rows].any():
                                loaded.append(c.nbytes)
                survivors = len(loaded) // 3
                want_counts = {
                    "granules_total": 8, "granules_pruned": 8 - survivors,
                    "chunks_scanned": len(loaded), "reads": len(loaded),
                    "bytes_scanned": sum(loaded),
                    "bytes_read": sum(loaded), "cache_hits": 0,
                    "cache_misses": 0, "cache_evictions": 0,
                    "rows_scanned": int(live.sum()), "rows_masked": 0,
                    "chunks_corrupt": 0, "io_retries": 0}
                for name, plan in plans.items():
                    fast = assert_tiers_agree(plan, source, *tiers)
                    assert np.array_equal(fast.row_ids,
                                          k[64:192][live]), name
                    for column in fast.columns:
                        want = columns[column][64:192][live]
                        assert np.array_equal(fast.columns[column], want)
                    assert count_fields(fast.stats) == want_counts, name
                # only the residual's own column is ever gathered: every
                # read the executor makes is one batched gather_many,
                # positions None where a chunk decodes whole
                gathers = []
                column_of = {}
                spy = StoreSource(table)
                load = spy.load

                def spying_load(granule, column, st):
                    seq = load(granule, column, st)
                    column_of[id(seq)] = column
                    return seq

                def spying_gather_many(pairs):
                    gathers.extend(column_of[id(seq)]
                                   for seq, positions in pairs
                                   if positions is not None)
                    return gather_many(pairs)

                spy.load = spying_load
                monkeypatch.setattr(exec_run, "gather_many",
                                    spying_gather_many)
                plans["pushed range only"].execute(spy)
                assert gathers == []
                plans["range + residual"].execute(spy)
                assert set(gathers) == {"v"}
                monkeypatch.undo()

        path = str(tmp_path / "t")
        with MutableTable.create(path, schema=("k", "v", "w"),
                                 codec=codec, shard_rows=64,
                                 chunk_rows=32) as table:
            table.append(columns)
            table.flush()
            check(path, np.ones(128, dtype=bool))
            # a deletion vector that empties granule 2 and touches no
            # other: that granule is pruned, 3-5 are still whole
            assert table.delete(col("k").between(64, 96)) == 32
            table.flush()
            check(path, np.arange(64, 192) >= 96)


class TestOperators:
    def _source(self, n=4000, seed=9):
        rng = np.random.default_rng(seed)
        cols = {
            "k": rng.integers(0, 12, n).astype(np.int64),
            "v": rng.integers(-1000, 1000, n).astype(np.int64),
        }
        return cols, ArraySource(cols, morsel_rows=700)

    def test_aggregate_ops_match_numpy(self):
        cols, source = self._source()
        res = (Plan.scan()
               .aggregate({"s": ("sum", "v"), "n": ("count", "v"),
                           "a": ("avg", "v"), "lo": ("min", "v"),
                           "hi": ("max", "v")}, group_by="k")
               .execute(source))
        for key in np.unique(cols["k"]):
            sel = cols["k"] == key
            row = res.groups[int(key)]
            assert row["s"] == int(cols["v"][sel].sum())
            assert row["n"] == int(sel.sum())
            assert row["a"] == pytest.approx(float(cols["v"][sel].mean()))
            assert row["lo"] == int(cols["v"][sel].min())
            assert row["hi"] == int(cols["v"][sel].max())

    def test_global_aggregate(self):
        cols, source = self._source()
        res = (Plan.scan().where(col("v") >= 0)
               .aggregate({"s": ("sum", "v"), "n": ("count", "v")})
               .execute(source))
        sel = cols["v"] >= 0
        assert res.groups[None] == {"s": int(cols["v"][sel].sum()),
                                    "n": int(sel.sum())}

    def test_count_only_aggregate(self):
        """Regression: a plan whose only aggregate is count (no value
        column to materialise) must still count the surviving rows."""
        cols, source = self._source()
        res = (Plan.scan().aggregate({"n": ("count", "v")})
               .execute(source))
        assert res.groups[None] == {"n": len(cols["v"])}
        filtered = (Plan.scan().where(col("v") >= 0)
                    .aggregate({"n": ("count", "v")}).execute(source))
        assert filtered.groups[None] == {"n": int((cols["v"] >= 0).sum())}
        grouped = (Plan.scan().aggregate({"n": ("count", "v")},
                                         group_by="k").execute(source))
        for key in np.unique(cols["k"]):
            assert grouped.groups[int(key)]["n"] == \
                int((cols["k"] == key).sum())

    def test_empty_selection_aggregate(self):
        _, source = self._source()
        res = (Plan.scan().where(col("v") >= 10_000)
               .aggregate({"s": ("sum", "v")}, group_by="k")
               .execute(source))
        assert res.groups == {}

    def test_global_aggregate_of_no_rows_has_no_group(self):
        """A group exists iff a row of it survived — for a global
        aggregate too, whatever the reason no row did."""
        aggs = {"s": ("sum", "v"), "n": ("count", "v"),
                "lo": ("min", "v"), "a": ("avg", "v")}
        empty = np.empty(0, dtype=np.int64)
        res = (Plan.scan().aggregate(aggs)
               .execute(ArraySource({"k": empty, "v": empty})))
        assert res.groups == {}
        _, source = self._source()
        res = (Plan.scan().where(col("v") >= 10_000).aggregate(aggs)
               .execute(source))
        assert res.groups == {}

    def test_semi_join(self):
        cols, source = self._source()
        keys = np.array([2, 5, 7], dtype=np.int64)
        res = (Plan.scan(["k", "v"]).join(on="k", keys=keys)
               .execute(source))
        mask = np.isin(cols["k"], keys)
        assert np.array_equal(res.row_ids, np.flatnonzero(mask))
        assert np.array_equal(res.columns["v"], cols["v"][mask])

    @pytest.mark.parametrize("keys", [[7, 2, 7, 11, 2, 2], []],
                             ids=["duplicate_keys", "no_keys"])
    def test_semi_join_keys_need_not_be_unique(self, keys):
        cols, source = self._source()
        keys = np.array(keys, dtype=np.int64)
        res = (Plan.scan(["k", "v"]).join(on="k", keys=keys)
               .execute(source))
        mask = np.isin(cols["k"], keys)
        assert np.array_equal(res.row_ids, np.flatnonzero(mask))
        assert np.array_equal(res.columns["k"], cols["k"][mask])
        assert np.array_equal(res.columns["v"], cols["v"][mask])

    def test_inner_join_attaches_build_payload(self):
        cols, source = self._source()
        build = {"k": np.arange(6, dtype=np.int64),
                 "label": np.arange(6, dtype=np.int64) * 11}
        res = (Plan.scan(["k", "v"])
               .join(on="k", build=build, how="inner")
               .execute(source))
        mask = cols["k"] < 6
        assert np.array_equal(res.columns["k"], cols["k"][mask])
        assert np.array_equal(res.columns["label"], cols["k"][mask] * 11)
        # an unsorted build side: the payload follows its keys
        shuffled = {name: values[::-1] for name, values in build.items()}
        again = (Plan.scan(["k", "v"])
                 .join(on="k", build=shuffled, how="inner")
                 .execute(source))
        assert np.array_equal(again.columns["label"], res.columns["label"])

    def test_bitmap_prunes_granules(self):
        cols, source = self._source()
        bitmap = np.zeros(len(cols["k"]), dtype=bool)
        bitmap[100:200] = True
        res = (Plan.scan(["v"]).where(Bitmap(bitmap))
               .aggregate({"s": ("sum", "v")}).execute(source))
        assert res.groups[None]["s"] == int(cols["v"][100:200].sum())
        assert res.stats.granules_pruned == len(source.granules()) - 1

    def test_project_narrows_output(self):
        cols, source = self._source()
        res = (Plan.scan().where(col("k") == 3).project(["v"])
               .execute(source))
        assert list(res.columns) == ["v"]
        assert np.array_equal(res.columns["v"], cols["v"][cols["k"] == 3])


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
class TestCallingThread:
    """The calling thread runs only the granules that survive the
    query's zone-map decision; the rest are one driver-side partial."""

    def test_traced_query_has_one_prune_span(self, backends):
        columns, sources = backends
        ts = columns["ts"]
        plan = Plan.scan(["reading"]).where(
            col("ts").between(int(ts[3000]), int(ts[3030])))
        trace = Trace("inline")
        res = plan.execute(sources["store"], trace=trace)
        assert_granule_spans_match(trace, res.stats)
        [prune] = [s for s in trace.spans if s.name == "prune"]
        granules = [s for s in trace.spans if s.name == "granule"]
        assert prune.attrs == {"pruned": res.stats.granules_pruned,
                               "granules": res.stats.granules_total}
        assert res.stats.granules_pruned > 0
        assert not any(s.attrs["pruned"] for s in granules)
        assert len(granules) == res.stats.granules_total \
            - res.stats.granules_pruned

    def test_pruned_granules_never_run(self, backends, monkeypatch):
        from repro.exec.run import GranulePipeline

        columns, sources = backends
        ts = columns["ts"]
        plan = Plan.scan(["reading"]).where(
            col("ts").between(int(ts[3000]), int(ts[3030])))
        ran = []
        run_batch = GranulePipeline.run_batch

        def counting_run_batch(self, granules, **kwargs):
            ran.extend(granule.index for granule in granules)
            return run_batch(self, granules, **kwargs)

        monkeypatch.setattr(GranulePipeline, "run_batch",
                            counting_run_batch)
        res = plan.execute(sources["store"])
        pipeline = GranulePipeline(plan, sources["store"])
        assert ran == np.flatnonzero(~pipeline.pruned).tolist()
        unpruned = plan.execute(sources["store"], prune=False)
        assert np.array_equal(res.row_ids, unpruned.row_ids)

    def test_unexplained_query_does_not_reduce_the_bitmap(
            self, tmp_path, monkeypatch):
        """A Bitmap renders (a sum over the table-wide bitmap) only when
        ``explain()`` asks — not for the deletion-vector term, not for a
        pushed bitmap."""
        with MutableTable.create(str(tmp_path / "t"), schema=("k",),
                                 chunk_rows=50) as table:
            table.append({"k": np.arange(400)})
            table.flush()
            table.delete(("k", 0, 20))
            table.flush()
            source = table.source()
            rendered = []
            render = Bitmap.__repr__

            def counting_repr(self):
                rendered.append(1)
                return render(self)

            monkeypatch.setattr(Bitmap, "__repr__", counting_repr)
            keep = np.zeros(400, dtype=bool)
            keep[10:60] = True
            res = Plan.scan(["k"]).where(Bitmap(keep)).execute(source)
            assert res.columns["k"].tolist() == list(range(20, 60))
            assert rendered == []
            text = res.explain()
            assert rendered
            assert "bitmap(50/400 set)" in text \
                and "bitmap(380/400 set)" in text


class TestAutoWorkers:
    def test_affinity_sets_the_width(self, monkeypatch):
        from repro.exec import pool

        monkeypatch.setattr(pool.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(pool.os, "sched_getaffinity",
                            lambda pid: {3}, raising=False)
        assert pool.auto_workers() == 1
        monkeypatch.setattr(pool.os, "sched_getaffinity",
                            lambda pid: set(range(3)), raising=False)
        assert pool.auto_workers() == 3
        monkeypatch.setattr(pool.os, "sched_getaffinity",
                            lambda pid: set(range(32)), raising=False)
        assert pool.auto_workers() == 8
        monkeypatch.delattr(pool.os, "sched_getaffinity")
        assert pool.auto_workers() == 8

    def test_one_usable_cpu_stays_on_the_calling_thread(
            self, backends, monkeypatch):
        """Pinned to one CPU, a query runs on its calling thread, as it
        does on any box: no thread starts, one split before running."""
        from repro.exec import pool

        columns, sources = backends
        monkeypatch.setattr(pool.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        threads = threading.active_count()
        trace = Trace("pinned")
        res = Plan.scan(["ts"]).where(col("status") == 0).execute(
            sources["store"], trace=trace)
        assert threading.active_count() == threads
        assert int((columns["status"] == 0).sum()) == res.n_rows
        assert len([s for s in trace.spans if s.name == "prune"]) == 1


class TestDispatch:
    """Where a query runs is one fact, ``scheduler``: none means the
    calling thread, whatever ``threads``, the CPU count or the
    environment say; a process tier runs only sources that describe
    themselves."""

    PLAN = Plan.scan(["ts", "reading"]).where(col("status") == 0)

    def test_no_scheduler_runs_on_the_calling_thread(self, backends,
                                                     monkeypatch):
        from repro.exec.run import GranulePipeline

        columns, sources = backends
        ran_on = set()
        run_batch = GranulePipeline.run_batch

        def recording_run_batch(self, granules, **kwargs):
            ran_on.add(threading.get_ident())
            return run_batch(self, granules, **kwargs)

        monkeypatch.setattr(GranulePipeline, "run_batch",
                            recording_run_batch)
        threads = threading.active_count()
        for source in sources.values():
            res = self.PLAN.execute(source)
            assert res.n_rows == int((columns["status"] == 0).sum())
        assert threading.active_count() == threads
        assert ran_on == {threading.get_ident()}
        # no process-wide pool exists to name a series after
        assert 'sched="repro-exec-shared"' not in \
            obs_metrics.render_text()

    def test_repro_threads_changes_nothing(self, backends, monkeypatch):
        _, sources = backends
        threads = threading.active_count()
        got = []
        for value in ("not-a-number", "0", "4"):
            monkeypatch.setenv("REPRO_THREADS", value)
            got.append(self.PLAN.execute(sources["store"]))
        assert threading.active_count() == threads
        monkeypatch.delenv("REPRO_THREADS")
        want = self.PLAN.execute(sources["store"])
        for res in got:
            assert np.array_equal(res.row_ids, want.row_ids)

    def test_threads_selects_nothing(self, backends):
        _, sources = backends
        want = self.PLAN.execute(sources["store"])
        got = self.PLAN.execute(sources["store"], threads=1)
        assert np.array_equal(got.row_ids, want.row_ids)
        for bad in (2, 0, 8):
            with pytest.raises(ValueError, match="scheduler="):
                self.PLAN.execute(sources["store"], threads=bad)

    def test_process_tier_refuses_undescribable_sources(self, backends,
                                                        tiers):
        columns, sources = backends
        _, lanes = tiers
        admitted = obs_metrics.default_registry().get(
            "repro_sched_queries_total").labels(sched=lanes.name,
                                                outcome="admitted")
        queries = obs_metrics.default_registry().get(
            "repro_exec_queries_total")
        before = admitted.value, {
            status: queries.labels(status=status).value
            for status in ("ok", "error", "busy", "timeout")}
        chain = ChainSource([sources["memory"], ArraySource(
            {name: values[:10] for name, values in columns.items()})])
        for source in (sources["memory"], chain):
            with pytest.raises(TypeError, match="describe themselves"):
                self.PLAN.execute(source, scheduler=lanes)
        assert (admitted.value, {
            status: queries.labels(status=status).value
            for status in ("ok", "error", "busy", "timeout")}) == before


#: every aggregate op over one value column
ALL_AGGS = {"s": ("sum", "v"), "n": ("count", "v"), "a": ("avg", "v"),
            "lo": ("min", "v"), "hi": ("max", "v")}


def grouped_plan(live=None, group_by="k") -> Plan:
    plan = Plan.scan()
    if live is not None:
        # a deletion vector is a positional Bitmap term
        plan = plan.where(Bitmap(live))
    return plan.aggregate(ALL_AGGS, group_by=group_by)


class TestGroupMerge:
    """Aggregate partials are key + state arrays merged in one pass: the
    result equals the numpy reference — values, exactness, groups in
    ascending key order.  A global aggregate is the same merge over one
    key, ``None``."""

    def test_sums_past_int64_are_exact(self, tmp_path, tiers,
                                       monkeypatch):
        """Sums past int64 across granules, and within one: 100-row
        granules of 2**62 + 12 345 each, whose every granule's sum wraps
        int64 — grouped and global, on every tier and in lane batches of
        one granule and of all four."""
        big = (1 << 62) + 1
        keys = np.array([7, -3] * 5, dtype=np.int64)
        values = np.array([big, -big] * 5, dtype=np.int64)
        columns = {"k": keys, "v": values}
        groups = grouped_plan().execute(
            ArraySource(columns, morsel_rows=2)).groups
        assert list(groups) == [-3, 7]
        assert groups[7]["s"] == 5 * big > INT64_MAX
        assert groups[-3]["s"] == -5 * big < INT64_MIN
        assert groups[7]["a"] == 5 * big / 5
        assert groups[7]["n"] == 5
        assert groups == reference_result(
            grouped_plan(), columns, np.ones(10, dtype=bool))["groups"]
        columns = {"k": np.arange(400, dtype=np.int64) % 3,
                   "v": np.full(400, (1 << 62) + 12_345, dtype=np.int64)}
        path = str(tmp_path / "t")
        write_table(path, columns, codec="plain", shard_rows=400,
                    chunk_rows=100)
        with Table.open(path, cache_bytes=0) as table:
            source = StoreSource(table)
            for group_by in ("k", None):
                plan = grouped_plan(group_by=group_by)
                want = reference_result(plan, columns,
                                        np.ones(400, dtype=bool))
                got = assert_tiers_agree(plan, source, *tiers, want=want)
                assert sum(row["s"] for row in got.groups.values()) == \
                    1_844_674_407_370_960_099_600
                for cap in (100, 400):
                    monkeypatch.setattr(exec_run, "BATCH_ROWS", cap)
                    batched = plan.execute(source, scheduler=InProcessLane())
                    assert list(batched.groups.items()) == \
                        list(got.groups.items())

    def test_empty_granule_groups_nothing(self):
        source = ArraySource({"k": np.empty(0, dtype=np.int64),
                              "v": np.empty(0, dtype=np.int64)})
        assert grouped_plan().execute(source).groups == {}

    def test_tiers_agree_on_order_and_exactness(self, tmp_path, tiers):
        """Calling thread, thread tier, process tier (fork) and a spawn
        process tier: same groups, same order, sums past 2**63 exact,
        over a table with deletion vectors."""
        n = 640
        rng = np.random.default_rng(5)
        pool = np.array([INT64_MIN, INT64_MAX, -1, 0, 12, -77],
                        dtype=np.int64)
        keys = pool[rng.integers(0, len(pool), n)]
        # a granule's 40 rows sum inside int64; a group's ~100 do not
        values = rng.integers((1 << 57) - (1 << 50), 1 << 57,
                              n).astype(np.int64)
        path = str(tmp_path / "t")
        with MutableTable.create(path, schema=("k", "v", "r"),
                                 shard_rows=160, chunk_rows=40) as table:
            table.append({"k": keys, "v": values,
                          "r": np.arange(n, dtype=np.int64)})
            table.flush()
            # one whole granule dead (pruned), one partly
            assert table.delete(("r", 80, 120)) == 40
            assert table.delete(("r", 130, 135)) == 5
            table.flush()
        live = np.ones(n, dtype=bool)
        live[80:120] = live[130:135] = False
        plan = Plan.scan().aggregate(ALL_AGGS, group_by="k")
        want = reference_result(plan, {"k": keys, "v": values},
                                live)["groups"]
        assert max(g["s"] for g in want.values()) > INT64_MAX
        spawn = ProcessScheduler(workers=1, start_method="spawn",
                                 name="t-exec-spawn")
        try:
            with Table.open(path, cache_bytes=0) as snap:
                source = StoreSource(snap)
                got = assert_tiers_agree(plan, source, *tiers).groups
                assert got == want and list(got) == list(want)
                assert_tiers_agree(plan, source, tiers[0], spawn)
        finally:
            spawn.close()

    def test_global_sums_past_int64_agree_across_tiers(self, tmp_path,
                                                       tiers):
        """Two-row granules, each inside int64, whose global sum is
        not: exact, and the same on every tier."""
        big = (1 << 62) + 1
        values = np.array([big, 0] * 8, dtype=np.int64)
        path = str(tmp_path / "t")
        write_table(path, {"v": values}, codec="plain", shard_rows=8,
                    chunk_rows=2)
        with Table.open(path, cache_bytes=0) as snap:
            got = assert_tiers_agree(grouped_plan(group_by=None),
                                     StoreSource(snap), *tiers).groups
        assert got == {None: {"s": 8 * big, "n": 16, "a": 8 * big / 16,
                              "lo": 0, "hi": big}}
        assert got[None]["s"] > INT64_MAX

    if HAVE_HYPOTHESIS:
        @given(data=st.data())
        @settings(max_examples=60, deadline=None)
        def test_matches_dict_merge(self, data):
            extreme = st.sampled_from([INT64_MIN, INT64_MAX, -1, 0])
            any_int = st.one_of(extreme, st.integers(INT64_MIN, INT64_MAX))
            pool = data.draw(st.lists(any_int, min_size=1, max_size=6))
            n = data.draw(st.integers(1, 120))
            keys = np.array(data.draw(st.lists(
                st.sampled_from(pool), min_size=n, max_size=n)),
                dtype=np.int64)
            values = np.array(data.draw(st.lists(
                any_int, min_size=n, max_size=n)), dtype=np.int64)
            morsel = data.draw(st.integers(1, 40))
            live = np.array(data.draw(st.lists(
                st.booleans(), min_size=n, max_size=n)), dtype=bool)
            lo = data.draw(st.integers(0, n))
            live[lo: lo + data.draw(st.integers(0, n))] = False
            with_dv = data.draw(st.booleans())
            if not with_dv:
                live[:] = True
            group_by = data.draw(st.sampled_from(["k", None]))
            columns = {"k": keys, "v": values}
            plan = grouped_plan(live if with_dv else None, group_by)
            res = plan.execute(ArraySource(columns, morsel_rows=morsel))
            want = reference_result(plan, columns, live)["groups"]
            assert res.groups == want
            assert list(res.groups) == list(want)


# ------------------------------------------------------------------ batches
class TestBatches:
    """A batch of consecutive granules runs each granule's per-chunk
    phase alone and its gathers and partial once; whatever the batch
    boundaries, every granule is run and charged exactly once.  Lanes
    batch; the calling thread and the thread tier run one granule a
    call."""

    if HAVE_HYPOTHESIS:
        # monkeypatch is set afresh by every example
        @given(sizes=st.lists(st.integers(0, 40), max_size=30),
               cap=st.integers(1, 100))
        @settings(max_examples=60, deadline=None, suppress_health_check=[
            HealthCheck.function_scoped_fixture])
        def test_batches_partition_the_granules(self, sizes, cap,
                                                monkeypatch):
            monkeypatch.setattr(exec_run, "BATCH_ROWS", cap)
            granules = [Granule(i, 0, n) for i, n in enumerate(sizes)]
            cut = exec_run.batches(granules)
            # every granule once, in order, none dropped or repeated
            assert [g for batch in cut for g in batch] == granules
            for batch in cut:
                assert batch
                rows = sum(g.n_rows for g in batch)
                assert rows <= cap or len(batch) == 1

        @given(data=st.data())
        @settings(max_examples=15, deadline=None, suppress_health_check=[
            HealthCheck.function_scoped_fixture])
        def test_any_batch_size_runs_every_granule_once(
                self, data, monkeypatch, tmp_path_factory):
            """A lane's answer, counts and granule spans do not depend on
            where its batches are cut, and equal the calling thread's."""
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
            n = data.draw(st.integers(1, 300))
            columns = {"k": rng.integers(0, 6, n),
                       "v": np.cumsum(rng.integers(-3, 4, n)),
                       "r": np.arange(n)}
            chunk_rows = data.draw(st.integers(1, 40))
            path = str(tmp_path_factory.mktemp("batches") / "t")
            write_table(path, columns, chunk_rows=chunk_rows,
                        shard_rows=chunk_rows * data.draw(
                            st.integers(1, 4)))
            plan = data.draw(st.sampled_from([
                Plan.scan(["r", "v"]).where(col("v") >= 0),
                Plan.scan(["r"]).where(col("k").isin([1, 4])
                                       | (col("v") < -2)),
                Plan.scan().where(col("r").between(3, 250)).aggregate(
                    {"s": ("sum", "v"), "n": ("count", "v")},
                    group_by="k"),
                Plan.scan().aggregate({"lo": ("min", "v"),
                                       "a": ("avg", "r")}, group_by="v"),
                Plan.scan(["r"]).where(col("v") >= -1).limit(
                    data.draw(st.integers(0, 40)))]))
            with Table.open(path, cache_bytes=0) as table:
                source = StoreSource(table)
                runs = [plan.execute(source)]
                for cap in (1, data.draw(st.integers(1, 400)), 1 << 30):
                    monkeypatch.setattr(exec_run, "BATCH_ROWS", cap)
                    trace = Trace("batches")
                    res = plan.execute(source, trace=trace,
                                       scheduler=InProcessLane())
                    assert res.stats.granules_total == \
                        len(source.granules())
                    assert_granule_spans_match(trace, res.stats)
                    runs.append(res)
            want = reference_result(plan, columns, np.ones(n, dtype=bool))
            for res in runs:
                assert res.groups == runs[0].groups
                assert list(res.groups or ()) == list(runs[0].groups or ())
                assert res.n_rows == want["n_rows"]
                assert np.array_equal(res.row_ids, want["row_ids"])
                for name, values in want["columns"].items():
                    assert np.array_equal(res.columns[name], values)
                assert count_fields(res.stats) == \
                    count_fields(runs[0].stats)

    def test_limit_ending_inside_a_batch(self, tmp_path, tiers):
        """The limit's last row lies in the third granule of a batch of
        many: the first n rows, every match counted, the later
        granules' matches too."""
        path = str(tmp_path / "t")
        k = np.arange(4096, dtype=np.int64)
        write_table(path, {"k": k, "v": k * 7}, shard_rows=1024,
                    chunk_rows=64)
        plan = Plan.scan(["k", "v"]).where(col("v") >= 0)
        with Table.open(path, cache_bytes=0) as table:
            source = StoreSource(table)
            assert exec_run.BATCH_ROWS >= 4 * 64
            for where in ({}, {"scheduler": tiers[1]}):
                full = plan.execute(source, **where)
                for n in (0, 1, 150, 4095, 4096, 5000):
                    got = plan.limit(n).execute(source, **where)
                    assert got.n_rows == 4096
                    assert np.array_equal(got.row_ids, k[:n])
                    assert np.array_equal(got.columns["v"], 7 * k[:n])
                    assert count_fields(got.stats) == \
                        count_fields(full.stats)
            assert_limit_agrees(plan, source)

    def test_cold_aggregate_loads_each_chunk_once(self, tmp_path, tiers):
        """A cache smaller than one batch's chunks: each chunk loads
        once a query — the batch's gathers read the chunks its granules
        loaded, never the cache again — and no load hits."""
        path = str(tmp_path / "t")
        columns = sensor_columns(8192)
        write_table(path, columns, shard_rows=4096, chunk_rows=256)
        plan = Plan.scan().where(col("status").between(0, 1)).aggregate(
            {"t": ("sum", "reading"), "n": ("count", "reading")},
            group_by="sensor_id")
        with Table.open(path, cache_bytes=4096) as table:
            source = StoreSource(table)
            granules = len(source.granules())
            for where in ({}, {"scheduler": tiers[1]}):
                stats = plan.execute(source, **where).stats
                assert stats.chunks_scanned == 3 * granules
                assert stats.cache_hits == 0
                assert stats.cache_misses == stats.chunks_scanned
        want = reference_result(plan, columns,
                                np.ones(8192, dtype=bool))["groups"]
        with Table.open(path, cache_bytes=0) as table:
            assert plan.execute(StoreSource(table)).groups == want

    def test_a_bitmap_shorter_than_the_table(self, tmp_path, tiers):
        """Rows past a bitmap's end are unset: in the pushed mask and in
        a residual's evaluate alike, on every tier."""
        path = str(tmp_path / "t")
        k = np.arange(1000, dtype=np.int64)
        write_table(path, {"k": k}, shard_rows=500, chunk_rows=100)
        bits = np.zeros(650, dtype=bool)
        bits[[5, 620]] = True
        with Table.open(path, cache_bytes=0) as table:
            source = StoreSource(table)
            for expr, rows in (
                    (Bitmap(bits) & col("k").between(0, 1000), [5, 620]),
                    (Bitmap(bits) | (col("k") >= 997),
                     [5, 620, 997, 998, 999])):
                plan = Plan.scan(["k"]).where(expr)
                got = assert_tiers_agree(
                    plan, source, *tiers,
                    want=reference_result(plan, {"k": k},
                                          np.ones(1000, dtype=bool)))
                assert got.row_ids.tolist() == rows

    if HAVE_HYPOTHESIS:
        @given(data=st.data())
        @settings(max_examples=80, deadline=None)
        def test_dense_partial_equals_sorted_partial(self, data):
            """Counting and sorting fold a batch alike — keys ascending,
            counts and the sums of the values' halves — whether the key
            span fits the rows or not."""
            n = data.draw(st.integers(1, 120))
            narrow = data.draw(st.booleans())
            low = data.draw(st.integers(-(1 << 62), 1 << 62))
            span = data.draw(st.integers(1, n if narrow else 4 * n + 50))
            keys = low + np.array(data.draw(st.lists(
                st.integers(0, span - 1), min_size=n, max_size=n)),
                dtype=np.int64)
            extreme = st.sampled_from([I64.min, I64.max, -1, 0])
            values = np.array(data.draw(st.lists(
                st.one_of(extreme, st.integers(I64.min, I64.max),
                          st.integers(-1000, 1000)),
                min_size=n, max_size=n)), dtype=np.int64)
            node = Plan.scan().aggregate(
                {"s": ("sum", "v"), "n": ("count", "v"),
                 "a": ("avg", "v")}, group_by="k").terminal()
            batch = {"k": keys, "v": values}
            low = int(keys.min())
            span = int(keys.max()) - low + 1
            dense = exec_run._dense_partial(node, batch, keys - low, low,
                                            span)
            sort = exec_run._sorted_partial(node, batch, keys)
            assert dense[0].tolist() == sort[0].tolist()
            assert dense[1].tolist() == sort[1].tolist()
            for got, want in zip(dense[2], sort[2]):
                assert got.dtype == want.dtype == np.int64
                assert got.tolist() == want.tolist()
