"""``ingest_churn``: writes beside reads, in this process, one thread.

One op is one **churn round** of fixed, seeded content on a
``MutableTable(sync=True)`` that adopted the shared table: 8 appends,
one retention delete of as many of the oldest live rows (live rows stay
constant), one update by a ``ts`` key, ``flush()``, 8 point selects on
the deletion-vector-masked state, and on every 4th round ``compact()``
followed by closing and reopening the handle.  The reopen is part of
the workload because a ``MutableTable`` keeps every superseded snapshot
open until it is closed (measured here: +125 file descriptors and +9 MB
a round without it), so a long-lived writer has to do the same.

:class:`ChurnModel` replays every mutation on plain numpy arrays; each
select is checked against it as it happens and the reopened table is
compared with it, as a multiset of rows, at the end.
"""

from __future__ import annotations

import bisect
import gc
import os
import shutil
import tempfile
import time

import numpy as np

from repro.exec import Plan
from repro.mutate import MutableTable
from repro.store import Table
from repro.store.executor import StoreSource

import e2e_procs as procs
import e2e_workloads as wl
from e2e_served import SliceClock, quiet_generator

APPENDS_PER_ROUND = 8
SELECTS_PER_ROUND = 8
COMPACT_EVERY = 4
#: rounds after which the stored-bytes ratio is read: every run passes
#: this point during warm-up in exactly the same state, so the ratio is
#: exact for a seed however many rounds the window then completes
RATIO_ROUND = 8
COLUMNS = ("ts", "sensor_id", "reading", "status")
_STATUS = np.array([0, 0, 0, 0, 1, 2], dtype=np.int64)


class ChurnModel:
    """Numpy replay of the churned table: batches in ``ts`` order (``ts``
    is unique and appends only ever extend it), a count of rows retired
    from the front, status updates applied in place."""

    def __init__(self, columns: dict):
        self.batches = [{c: columns[c].copy() for c in COLUMNS}]
        self.head = 0  # rows of batches[0] already retired

    def live_rows(self) -> int:
        return sum(len(b["ts"]) for b in self.batches) - self.head

    def _locate(self, i: int) -> tuple[dict, int]:
        """Batch and index of the ``i``-th live row."""
        i += self.head
        for batch in self.batches:
            if i < len(batch["ts"]):
                return batch, i
            i -= len(batch["ts"])
        raise IndexError("row past the live range")

    def ts_at(self, i: int) -> int:
        batch, j = self._locate(i)
        return int(batch["ts"][j])

    def last_ts(self) -> int:
        return int(self.batches[-1]["ts"][-1])

    def append(self, batch: dict) -> None:
        self.batches.append({c: batch[c].copy() for c in COLUMNS})

    def retire(self, n: int) -> tuple[int, int]:
        """Drop the ``n`` oldest live rows; returns their half-open
        ``ts`` range."""
        lo, hi = self.ts_at(0), self.ts_at(n)
        self.head += n
        while self.head >= len(self.batches[0]["ts"]):
            self.head -= len(self.batches.pop(0)["ts"])
        return lo, hi

    def _find(self, ts_key: int) -> tuple[dict, int]:
        firsts = [int(b["ts"][0]) for b in self.batches]
        batch = self.batches[bisect.bisect_right(firsts, ts_key) - 1]
        return batch, int(np.searchsorted(batch["ts"], ts_key))

    def set_status(self, ts_key: int, value: int) -> None:
        batch, j = self._find(ts_key)
        batch["status"][j] = value

    def row(self, ts_key: int) -> dict:
        batch, j = self._find(ts_key)
        return {c: int(batch[c][j]) for c in COLUMNS}

    def table(self) -> dict:
        """The live rows, in ``ts`` order."""
        out = {c: np.concatenate([b[c] for b in self.batches])
               for c in COLUMNS}
        return {c: v[self.head:] for c, v in out.items()}


class Churn:
    """The shared table adopted by a ``MutableTable`` + its replay."""

    def __init__(self, workdir: str, inputs: wl.Inputs, spans=None):
        t0 = time.perf_counter()
        self.inputs = inputs
        self.root = tempfile.mkdtemp(dir=workdir)
        self.table = None
        #: ``(name, start, end, round)`` per program call when tracing
        self.spans = spans
        self.busy_s = 0.0       # time inside the program, this round
        self.round = 0
        self.attempted = 0
        self.failed = 0
        self.rows_appended = 0
        self.bytes_rewritten = 0
        self.ratio_at_fixed_round: float | None = None
        try:
            t_write = time.perf_counter()
            self.path = wl.build_table(self.root, inputs)
            self.write_s = time.perf_counter() - t_write
            self._files = set(os.listdir(self.path))
            self.table = MutableTable.open(self.path, sync=True)
            self.model = ChurnModel(inputs.columns)
            self.batch_rows = wl.CHUNK_ROWS * inputs.n_rows \
                // wl.FULL_ROWS
            self.rng = np.random.default_rng([inputs.seed, 4])
            if not self._select(self.model.ts_at(inputs.n_rows // 2)):
                raise AssertionError("first select answered wrongly")
        except BaseException:
            self.close()
            raise
        #: clean directory -> first correct answer, as an interval
        self.setup = (t0, time.perf_counter())

    # ------------------------------------------------------------ program
    def _call(self, name: str, fn, *args, **kwargs):
        """One timed call into the program."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.busy_s += t1 - t0
        if self.spans is not None:
            self.spans.append((name, t0, t1, self.round))
        return out

    def _select(self, ts_key: int) -> bool:
        res = self._call("mutate.dv_select", self.table.scan,
                         columns=COLUMNS,
                         where=("ts", ts_key, ts_key + 1), threads=1)
        self.last_select_stats = res.stats
        want = self.model.row(ts_key)
        return res.n_rows == 1 and all(
            int(res.columns[c][0]) == want[c] for c in COLUMNS)

    def _reopen(self) -> None:
        self.table.close()
        self.table = MutableTable.open(self.path, sync=True)

    def _next_batch(self) -> dict:
        m, rng = self.batch_rows, self.rng
        ts = self.model.last_ts() + np.cumsum(
            rng.integers(1, 20, m)).astype(np.int64)
        drift = np.cumsum(rng.normal(0, 3, m))
        return {
            "ts": ts,
            "sensor_id": rng.integers(0, 64, m).astype(np.int64),
            "reading": (1000 + drift + rng.normal(0, 40, m)).astype(
                np.int64),
            "status": rng.choice(_STATUS, m),
        }

    def _note_new_files(self) -> None:
        now = set(os.listdir(self.path))
        for name in now - self._files:
            if name.endswith(".rps"):
                self.bytes_rewritten += os.path.getsize(
                    os.path.join(self.path, name))
        self._files = now

    # -------------------------------------------------------------- round
    def run_round(self) -> tuple[float, bool]:
        """One churn round; returns ``(seconds inside the program,
        every answer correct)``."""
        self.round += 1
        self.busy_s = 0.0
        model, rng = self.model, self.rng
        ok = True
        n_new = 0
        for _ in range(APPENDS_PER_ROUND):
            batch = self._next_batch()
            ok &= self._call("mutate.append", self.table.append,
                             batch) == self.batch_rows
            model.append(batch)
            n_new += self.batch_rows
        self.rows_appended += n_new
        lo, hi = model.retire(n_new)
        ok &= self._call("mutate.delete", self.table.delete,
                         ("ts", lo, hi)) == n_new
        live = model.live_rows()
        key = model.ts_at(int(rng.integers(0, live)))
        value = int(rng.integers(0, 3))
        ok &= self._call("mutate.update", self.table.update,
                         "ts", key, {"status": value}) == 1
        model.set_status(key, value)
        self._call("mutate.flush", self.table.flush)
        self._note_new_files()
        for _ in range(SELECTS_PER_ROUND):
            ok &= self._select(model.ts_at(int(rng.integers(0, live))))
        if self.round % COMPACT_EVERY == 0:
            self._call("mutate.compact", self.table.compact)
            self._note_new_files()
            self._call("mutate.reopen", self._reopen)
        if self.round == RATIO_ROUND:
            self.ratio_at_fixed_round = \
                wl.stored_bytes_per_raw_byte(self.path)
        # retention deletes exactly what the round appended
        ok &= len(self.table) == self.inputs.n_rows
        self.attempted += 1
        self.failed += not ok
        return self.busy_s, bool(ok)

    # ---------------------------------------------------------------- end
    def final_check(self) -> bool:
        """Final flush, reopen from disk, compare with the replay as a
        multiset of rows (``ts`` is unique, so: sorted by ``ts``)."""
        self.table.flush()
        self.table.close()
        self.table = None
        with Table.open(self.path) as table:
            res = Plan.scan(COLUMNS).execute(StoreSource(table),
                                             threads=1)
        order = np.argsort(res.columns["ts"], kind="stable")
        want = self.model.table()
        return all(np.array_equal(res.columns[c][order], want[c])
                   for c in COLUMNS)

    def close(self) -> None:
        if self.table is not None:
            self.table.close()
            self.table = None
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Churn":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_rounds(churn: Churn, warmup_s: float, slice_s: float,
               n_slices: int) -> dict:
    """Warm up (at least ``warmup_s`` and ``RATIO_ROUND`` rounds), then
    measure one window of rounds; same shape as
    :func:`e2e_served.run_streams`."""
    own = [os.getpid()]

    def on_open() -> None:
        quiet_generator()
        procs.reset_peak_rss(own)

    clock = SliceClock(time.perf_counter(), warmup_s, slice_s, n_slices,
                       time.process_time, on_open)
    ops: list = []
    try:
        while not clock.done.is_set():
            busy_s, ok = churn.run_round()
            ops.append((time.perf_counter(), busy_s, ok,
                        churn.last_select_stats.granules_total))
            if churn.round >= RATIO_ROUND:
                clock.tick()
    finally:
        gc.unfreeze()
    return {"marks": clock.marks, "ops": {"round": ops},
            "peak_rss_mb": procs.peak_rss_mb(own)}
