"""Driving a served workload: set-up, closed-loop streams, the window.

One generator process (this one), one client thread and connection per
stream, every stream closed loop: the next request leaves after the
previous reply has been checked against numpy.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import threading
import time

from repro.exec.errors import ExecTimeout, ServerBusy
from repro.serve import ServeClient

import e2e_procs as procs
import e2e_workloads as wl

#: a stream that has not finished its window this long after it should
#: have is reported as hung instead of waited for
HANG_SECONDS = 60.0


class WorkloadError(AssertionError):
    """A workload's self-assertion failed: the run measured something
    other than what the catalogue says, so every op counts as failed."""


class Served:
    """A freshly built shared table behind a running server."""

    def __init__(self, workdir: str, inputs: wl.Inputs,
                 spec: wl.ServedSpec, src_dir: str, traced: bool = False):
        t0 = time.perf_counter()
        self.inputs = inputs
        self.spec = spec
        self.root = tempfile.mkdtemp(dir=workdir)
        self.server = None
        try:
            t_write = time.perf_counter()
            self.table_path = wl.build_table(self.root, inputs)
            self.write_s = time.perf_counter() - t_write
            self.server = procs.Server(
                self.root, src_dir, wl.server_flags(spec, inputs, traced))
            with self.client() as client:
                res = client.query(wl.TABLE, wl.prefill_plan())
            if not wl.prefill_ok(inputs, res):
                raise WorkloadError("prefill query answered wrongly")
        except BaseException:
            self.close()
            raise
        #: clean directory -> first correct answer, as an interval
        self.setup = (t0, time.perf_counter())

    def client(self) -> ServeClient:
        return ServeClient(*self.server.address)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Served":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SliceClock:
    """Cuts the measured window into slices at op completions.

    The throughput stream calls :meth:`tick` after every op.  The first
    tick past the warm-up opens the window (``on_open`` runs first and
    stays outside it); each later tick past a slice edge records a mark
    ``(t, cpu_seconds)``; the mark that closes the last slice sets
    ``done``.  Cutting at completions keeps whole ops in every slice,
    so ops ÷ duration and CPU ÷ ops carry no edge error.
    """

    def __init__(self, start: float, warmup_s: float, slice_s: float,
                 n_slices: int, cpu_seconds, on_open):
        self.edge = start + warmup_s
        self.slice_s = slice_s
        self.n_slices = n_slices
        self.cpu_seconds = cpu_seconds
        self.on_open = on_open
        self.marks: list[tuple[float, float]] = []
        self.done = threading.Event()

    def tick(self) -> None:
        if self.done.is_set() or time.perf_counter() < self.edge:
            return
        if not self.marks:
            self.on_open()
        self.marks.append((time.perf_counter(), self.cpu_seconds()))
        self.edge = self.marks[0][0] + len(self.marks) * self.slice_s
        if len(self.marks) > self.n_slices:
            self.done.set()


def quiet_generator() -> None:
    """Keep the generator's own pauses out of the slices: collect now,
    then freeze what survived so later collections stay short."""
    gc.collect()
    gc.freeze()


def drive_stream(stream, client, ops: list, stop: threading.Event,
                 clock: SliceClock | None, errors: list) -> None:
    """Closed loop over one connection until ``stop``.  Each op is
    recorded as ``(t_end, latency_s, ok, stats)``; a refused or
    timed-out request is a failed op, a dead connection ends the run."""
    try:
        while not stop.is_set():
            plan, limit, check = stream.next_op()
            t0 = time.perf_counter()
            try:
                res = client.query(wl.TABLE, plan, limit=limit)
            except (ServerBusy, ExecTimeout, RuntimeError):
                res = None
            t1 = time.perf_counter()
            ok = res is not None and bool(check(res))
            ops.append((t1, t1 - t0, ok,
                        res["stats"] if res is not None else None))
            if clock is not None:
                clock.tick()
    except BaseException as err:
        errors.append(err)
        stop.set()
        if clock is not None:
            clock.done.set()


def run_streams(served: Served, warmup_s: float, slice_s: float,
                n_slices: int, streams=None) -> dict:
    """Warm up, then measure one window.  Returns ``marks``, the ops of
    every stream (warm-up included) and the stream objects."""
    inputs = served.inputs
    if streams is None:
        streams = [make(inputs) for make in served.spec.streams]
    server = served.server
    stop = threading.Event()
    errors: list = []
    ops = {s.name: [] for s in streams}

    def on_open() -> None:
        quiet_generator()
        procs.reset_peak_rss(server.pids)

    clock = SliceClock(time.perf_counter(), warmup_s, slice_s, n_slices,
                       server.cpu_seconds, on_open)
    clients = [served.client() for _ in streams]
    threads = [
        threading.Thread(
            target=drive_stream, name=f"e2e-{s.name}", daemon=True,
            args=(s, c, ops[s.name], stop,
                  clock if s is streams[-1] else None, errors))
        for s, c in zip(streams, clients)]
    try:
        for t in threads:
            t.start()
        finished = clock.done.wait(
            warmup_s + slice_s * n_slices + HANG_SECONDS)
        stop.set()
        for t in threads:
            t.join(HANG_SECONDS)
        if errors:
            raise errors[0]
        if not finished or any(t.is_alive() for t in threads):
            raise WorkloadError("a request stream hung")
    finally:
        stop.set()
        for c in clients:
            c.close()
        gc.unfreeze()
    return {"marks": clock.marks, "ops": ops, "streams": streams,
            "peak_rss_mb": server.peak_rss_mb()}
