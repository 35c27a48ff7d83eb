"""Inputs, request streams and numpy oracles of the five workloads.

Everything here is a function of the seed: the shared table, and each
stream's request sequence.  Every op of a stream does the same amount
of work wherever the seed places it — ``ts`` ranges are a fixed number
of rows wide and sit at a fixed offset from a chunk boundary, so each
overlaps the same number of granules — and every reply is checked
against plain numpy on the raw columns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.datasets import sensor_fixture
from repro.exec import Plan, col
from repro.store import Table, TableWriter

TABLE = "events"
CHUNK_ROWS = 2048
N_SHARDS = 8
#: full and ``--smoke`` table sizes
FULL_ROWS = 1_000_000
SMOKE_ROWS = 100_000
#: rows of slack kept between a range edge and a chunk edge, so the
#: conservative model zone maps of the neighbouring chunks still prune
EDGE_MARGIN = 200
SELECT_LIMIT = 64


@dataclass
class Inputs:
    """The shared input: raw columns + the table layout built from them."""

    seed: int
    n_rows: int
    columns: dict

    @property
    def shard_rows(self) -> int:
        return self.n_rows // N_SHARDS



def make_inputs(seed: int, smoke: bool = False) -> Inputs:
    n = SMOKE_ROWS if smoke else FULL_ROWS
    return Inputs(seed, n, sensor_fixture(n, seed=seed))


def build_table(root: str, inputs: Inputs) -> str:
    """Write the shared table under ``root``; returns its directory."""
    path = os.path.join(root, TABLE)
    with TableWriter(path, codec="auto", shard_rows=inputs.shard_rows,
                     chunk_rows=CHUNK_ROWS) as writer:
        writer.append(inputs.columns)
    return path


def stored_bytes_per_raw_byte(path: str) -> float:
    """Bytes of the files the open manifest references ÷ 8 B x live
    rows x columns — the paper's compression ratio."""
    with Table.open(path, cache_bytes=0) as table:
        files = 0
        for entry in table.manifest.shards:
            files += os.path.getsize(os.path.join(path, entry["file"]))
            if entry.get("dv"):
                files += os.path.getsize(os.path.join(path, entry["dv"]))
        return files / (8.0 * table.live_rows * len(table.column_names))


# ------------------------------------------------------------------ plans
def prefill_plan() -> Plan:
    """Touches every chunk of every column once."""
    return Plan.scan().aggregate(
        {name: ("sum", name)
         for name in ("ts", "sensor_id", "reading", "status")})


def prefill_ok(inputs: Inputs, result) -> bool:
    want = {name: int(values.sum())
            for name, values in inputs.columns.items()}
    groups = result["groups"]
    return len(groups) == 1 and groups[0][1] == want


def select_plan(lo: int, hi: int) -> Plan:
    return (Plan.scan(["sensor_id", "reading"])
            .where(col("ts").between(lo, hi)))


def wide_plan(lo: int, hi: int) -> Plan:
    return Plan.scan().where(col("ts").between(lo, hi))


def agg_plan(lo: int | None = None, hi: int | None = None) -> Plan:
    """Paper Fig. 18 shape: filter one column, group by a second,
    aggregate a third.  ``status == 0`` keeps ~67 % of the rows and is
    never zone-map-prunable."""
    expr = col("status").between(0, 1)
    if lo is not None:
        expr = col("ts").between(lo, hi) & expr
    return (Plan.scan(["sensor_id", "reading"]).where(expr)
            .aggregate({"total": ("sum", "reading"),
                        "n": ("count", "reading")},
                       group_by="sensor_id"))


def agg_oracle(inputs: Inputs, i0: int, i1: int) -> dict:
    """``{sensor_id: {"total", "n"}}`` over rows ``[i0, i1)``."""
    keep = inputs.columns["status"][i0:i1] == 0
    ids = inputs.columns["sensor_id"][i0:i1][keep]
    vals = inputs.columns["reading"][i0:i1][keep]
    n = np.bincount(ids)
    total = np.bincount(ids, weights=vals.astype(np.float64))
    return {int(k): {"total": int(round(total[k])), "n": int(n[k])}
            for k in np.flatnonzero(n)}


def groups_equal(groups, want: dict) -> bool:
    """Wire groups (``[[key, row], ...]``) against an oracle dict."""
    return {int(k): row for k, row in groups} == want


# ---------------------------------------------------------------- streams
def _aligned_start(rng, inputs: Inputs, n_rows: int) -> int:
    """A seeded start row for a range of ``n_rows`` rows that always
    overlaps the same number of chunks: inside one shard, starting a
    fixed-size margin after a chunk boundary."""
    chunks = -(-n_rows // CHUNK_ROWS)
    slack = chunks * CHUNK_ROWS - n_rows
    margin = EDGE_MARGIN if slack > 2 * EDGE_MARGIN else 0
    full = inputs.shard_rows // CHUNK_ROWS
    shard = int(rng.integers(0, N_SHARDS))
    chunk = int(rng.integers(0, full - chunks + 1))
    offset = int(rng.integers(margin, slack - margin + 1))
    return shard * inputs.shard_rows + chunk * CHUNK_ROWS + offset


class Stream:
    """One closed-loop request stream: ``next_op()`` yields
    ``(plan, limit, check)`` where ``check(result) -> bool`` compares a
    ``ServeClient.query`` result dict against numpy."""

    def __init__(self, name: str, inputs: Inputs, seed_key: int):
        self.name = name
        self.inputs = inputs
        self.rng = np.random.default_rng([inputs.seed, seed_key])

    def next_op(self):
        raise NotImplementedError


class SelectStream(Stream):
    """0.5 %-selectivity ``ts`` range, project two columns, limit 64."""

    def __init__(self, inputs: Inputs, seed_key: int = 1):
        super().__init__("select", inputs, seed_key)
        self.n_match = inputs.n_rows // 200

    def next_op(self):
        cols = self.inputs.columns
        i0 = _aligned_start(self.rng, self.inputs, self.n_match)
        i1 = i0 + self.n_match
        plan = select_plan(int(cols["ts"][i0]), int(cols["ts"][i1]))
        n_match = self.n_match
        k = min(SELECT_LIMIT, n_match)

        def check(res) -> bool:
            return (res["n_rows"] == n_match
                    and res.get("truncated") == (k < n_match)
                    and np.array_equal(res["row_ids"],
                                       np.arange(i0, i0 + k))
                    and set(res["columns"]) == {"sensor_id", "reading"}
                    and all(np.array_equal(res["columns"][c],
                                           cols[c][i0:i0 + k])
                            for c in ("sensor_id", "reading")))

        return plan, SELECT_LIMIT, check


class WideStream(Stream):
    """5 % ``ts`` range x all four columns, no limit: one big frame."""

    def __init__(self, inputs: Inputs, seed_key: int = 2):
        super().__init__("wide", inputs, seed_key)
        self.n_match = inputs.n_rows // 20

    def next_op(self):
        cols = self.inputs.columns
        i0 = _aligned_start(self.rng, self.inputs, self.n_match)
        i1 = i0 + self.n_match
        plan = wide_plan(int(cols["ts"][i0]), int(cols["ts"][i1]))

        def check(res) -> bool:
            return (res["n_rows"] == i1 - i0
                    and res.get("truncated") is False
                    and np.array_equal(res["row_ids"],
                                       np.arange(i0, i1))
                    and set(res["columns"]) == set(cols)
                    and all(np.array_equal(res["columns"][c],
                                           cols[c][i0:i1])
                            for c in cols))

        return plan, None, check


class AggStream(Stream):
    """The Fig. 18 aggregate over all rows (``window_shards=None``) or
    over a seeded window of whole shards (``range_agg``)."""

    def __init__(self, inputs: Inputs, window_shards: int | None = None,
                 seed_key: int = 3):
        super().__init__("full_agg" if window_shards is None
                         else "range_agg", inputs, seed_key)
        self.window_shards = window_shards
        self._oracles: dict = {}

    def next_op(self):
        inputs = self.inputs
        if self.window_shards is None:
            i0, i1 = 0, inputs.n_rows
            plan = agg_plan()
        else:
            shard = int(self.rng.integers(
                0, N_SHARDS - self.window_shards))
            i0 = shard * inputs.shard_rows
            i1 = i0 + self.window_shards * inputs.shard_rows
            ts = inputs.columns["ts"]
            plan = agg_plan(int(ts[i0]), int(ts[i1]))
        want = self._oracles.get(i0)
        if want is None:
            want = self._oracles[i0] = agg_oracle(inputs, i0, i1)

        def check(res) -> bool:
            return groups_equal(res["groups"], want)

        return plan, SELECT_LIMIT, check


@dataclass
class ServedSpec:
    """How one served workload is run."""

    tier: str                  # --worker-tier
    cache_mb: float | None     # --cache-mb (None = the 64 MiB default)
    streams: tuple             # stream factories; [0] is the latency
    #                            stream, [-1] the throughput stream


SERVED = {
    "proc_select": ServedSpec("process", None, (SelectStream,)),
    # the cache is budgeted in *stored* chunk bytes and every lane
    # worker has its own: an op touches 2.1 MB of chunks, about half
    # per lane, so 1 MiB a lane nearly fits (hit ratio 0.04-0.06,
    # varying with which lane drew which granule); a quarter MiB does
    # not fit, whichever way the granules fall
    "proc_full_agg": ServedSpec("process", 0.25, (AggStream,)),
    "wide_rows": ServedSpec("thread", None, (WideStream,)),
    "contended": ServedSpec(
        "thread", None,
        (SelectStream, lambda inputs: AggStream(inputs, 2))),
}


def cache_mb(spec: ServedSpec, inputs: Inputs) -> float | None:
    """The workload's cache budget, scaled down with a ``--smoke``
    table so that what must not fit still does not."""
    if spec.cache_mb is None:
        return None
    return spec.cache_mb * inputs.n_rows / FULL_ROWS


def server_flags(spec: ServedSpec, inputs: Inputs,
                 traced: bool = False) -> list[str]:
    flags = ["--workers", "2", "--worker-tier", spec.tier]
    if spec.cache_mb is not None:
        flags += ["--cache-mb", str(cache_mb(spec, inputs))]
    if traced:
        # a threshold no query reaches: every query runs traced, none
        # is logged — the program's existing tracing, switched on
        flags += ["--slow-query-ms", "1e9"]
    return flags
