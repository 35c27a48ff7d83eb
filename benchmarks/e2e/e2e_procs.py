"""Processes the benchmark starts, and what ``/proc`` says about them.

:class:`Server` is ``python -m repro.serve`` as a real subprocess in its
own process group, so that every exit path can reap the server *and*
the lane workers it forked: SIGINT, a graceful drain, SIGKILL to the
group after ten seconds.  CPU time and peak resident memory are read
from ``/proc/<pid>/stat`` and ``/proc/<pid>/status`` for the server and
its children.
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import threading
import time

import e2e_stats as st

_TICK = os.sysconf("SC_CLK_TCK")
#: seconds a server gets to drain after SIGINT before its group is killed
DRAIN_SECONDS = 10.0


def cpu_seconds(pids) -> float:
    """utime + stime summed over ``pids`` (gone processes count 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def peak_rss_mb(pids) -> float:
    """``VmHWM`` summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def reset_peak_rss(pids) -> None:
    """Restart the ``VmHWM`` high-water marks from the current RSS
    (best effort: a kernel without ``clear_refs`` keeps the old mark)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (a scan of ``/proc``)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def group_alive(pgid: int) -> bool:
    """Does any process of the group still exist?"""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class Server:
    """One ``python -m repro.serve`` subprocess; ``stop`` is idempotent
    and its owner calls it on every exit path."""

    def __init__(self, root: str, src_dir: str, flags=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--root", root, *flags],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True, start_new_session=True)
        self.pgid = self.proc.pid
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening on "):
                raise RuntimeError(
                    f"server did not start (said {line!r})")
            host, port = line.split()[-1].rsplit(":", 1)
            self.address = (host, int(port))
            self.pids = [self.proc.pid] + children_of(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pids)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids)

    def stop(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=DRAIN_SECONDS)
            except subprocess.TimeoutExpired:
                pass
        # whatever is left of the group (a wedged server, orphaned lane
        # workers) dies now
        if group_alive(self.pgid):
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        deadline = time.monotonic() + 5.0
        while group_alive(self.pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if proc.stdout is not None:
            proc.stdout.close()


#: CPU seconds of the probe's two pieces of work (``e2e_probe.COMPONENTS``)
#: on the reference box when nothing disturbs it — the unit of the speed
#: factor: 1.0 means "as fast as the reference box at its best"
REFERENCE_CPU_S = (0.90e-3, 1.02e-3)
#: passes an interval must hold before a factor is taken from it (a
#: ``--smoke`` set-up lasts under half a second)
MIN_PASSES = 3


class SpeedProbe:
    """``e2e_probe.py`` as a subprocess + a thread collecting its
    samples.  :meth:`factor` says how much slower than the reference
    machine this one ran during an interval."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable,
             os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "e2e_probe.py")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.starts: list[float] = []
        self.passes: list[tuple] = []
        self._reader = threading.Thread(
            target=self._collect, daemon=True, name="e2e-probe")
        self._reader.start()

    def _collect(self) -> None:
        for line in self.proc.stdout:
            start, *cpu = map(float, line.split())
            self.starts.append(start)
            self.passes.append(tuple(cpu))

    def factor(self, t_lo: float, t_hi: float) -> float:
        """:func:`e2e_stats.speed_factor` of the passes that started
        in ``[t_lo, t_hi]``."""
        lo = bisect.bisect_left(self.starts, t_lo)
        hi = bisect.bisect_right(self.starts, t_hi, lo,
                                 len(self.passes))
        if hi - lo < MIN_PASSES:
            raise RuntimeError(
                f"speed probe made {hi - lo} passes in "
                f"{t_hi - t_lo:.2f} s")
        return st.speed_factor(self.passes[lo:hi], REFERENCE_CPU_S)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self._reader.join(5.0)
        self.proc.stdout.close()
