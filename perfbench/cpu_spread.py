"""Spread one process over all the CPUs it may use.

On a shared virtual machine each virtual CPU slows down and speeds up with
the load its host core carries, independently of the others and for tens of
seconds at a time. A single-threaded run stays on one CPU, so it inherits
that CPU's phase, and runs a minute apart can differ by 40%. Moving the
process to the next CPU every few milliseconds makes every run, and every
evaluation longer than the period, see the mean speed of all the CPUs.

The mover is a child process, so it never takes the benchmark's interpreter
lock. Run as a script, it is that child:

    python3 cpu_spread.py PID PERIOD_S
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager

PERIOD_S = 0.005


@contextmanager
def spread_over_cpus():
    """Rotate the calling thread over its allowed CPUs while the block runs;
    the CPU set is restored afterwards. Does nothing with a single CPU."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        yield
        return
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                              str(os.getpid()), repr(PERIOD_S)])
    try:
        yield
    finally:
        child.terminate()
        child.wait()
        os.sched_setaffinity(0, allowed)


def main(argv: list[str]) -> int:
    pid, period_s = int(argv[0]), float(argv[1])
    cpus = sorted(os.sched_getaffinity(pid))
    turn = 0
    try:
        while True:
            os.sched_setaffinity(pid, {cpus[turn % len(cpus)]})
            turn += 1
            time.sleep(period_s)
    except ProcessLookupError:   # the benchmark has exited
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
