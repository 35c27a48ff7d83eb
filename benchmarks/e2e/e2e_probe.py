"""The speed probe: how fast is this machine *right now*?

Run as a subprocess beside a measured run.  Every 50 ms it runs two
small fixed pieces of work — a pure-Python loop and a pickle round trip
of a nested list, about 1 ms each — and prints
``<start> <cpu seconds of the loop> <cpu seconds of the round trip>``
(the start on ``time.perf_counter()``, which all processes of a Linux
box share).  The pieces are timed in this thread's **CPU time**, so a
pass that the program under test preempts reads the same as one it
does not: what varies is how fast a core runs them.  It sleeps between
passes and costs about 4 % of one core.
"""

from __future__ import annotations

import pickle
import sys
import time

PERIOD_S = 0.05
#: iterations of the loop — about 1 ms on the reference box
LOOP_ITERATIONS = 20_000
#: what the round trip carries — about 1 ms on the reference box
PICKLED = [("g", i, {"a": i, "b": [1.5, 2.5], "c": "x" * 20})
           for i in range(1000)]


def python_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


def pickle_round_trip() -> list:
    return pickle.loads(pickle.dumps(PICKLED, 5))


#: in the order of ``e2e_procs.REFERENCE_CPU_S``
COMPONENTS = (python_loop, pickle_round_trip)


def main() -> int:
    out = sys.stdout
    try:
        while True:
            start = time.perf_counter()
            cpu = []
            for work in COMPONENTS:
                c0 = time.thread_time()
                work()
                cpu.append(time.thread_time() - c0)
            out.write(f"{start!r} " + " ".join(map(repr, cpu)) + "\n")
            out.flush()
            time.sleep(PERIOD_S)
    except (KeyboardInterrupt, BrokenPipeError):
        return 0


if __name__ == "__main__":
    sys.exit(main())
