"""A fixed piece of pure-Python work that times the host, not the program.

    python3 perfbench/reference.py      # prints a few timings of both kinds
    python3 perfbench/reference.py --once

All times here are CPU seconds (user + system), so time spent waiting for
a CPU that other work holds does not count.  CPU time still moves with the
host: a shared host switches between a fast and a slow mode, up to 1.8x
apart, in spells from a second to minutes, so even a run's median case
time moves with the share of slow spells it happened to meet.  run.py
therefore times this routine just before and just after every timing it
takes, and scales the timing by the routine's usual time over the mean of
the two: the figures read as CPU seconds in the host's usual mode.  Timings in
the warm interpreter are bracketed by the routine run in place.  Timings of
fresh processes are bracketed by a fresh interpreter that runs the routine
once (--once), start to exit, because interpreter start-up slows less in
the slow mode than pure-Python work does.  The routine uses the standard
library only, never stringnet, so no change to the program moves it; it
mixes what the program spends its time on: exact fractions, tuples as dict
keys, sorting.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from fractions import Fraction

# The usual CPU times on a 2-vCPU Xeon VM of the routine, and of a fresh
# interpreter that runs it once.
REFERENCE_S = 0.011
PROCESS_REFERENCE_S = 0.055
ROUNDS = 8


def reference_work(rounds: int = ROUNDS) -> int:
    total = 0
    for r in range(rounds):
        table: dict[tuple, int] = {}
        acc = Fraction(0)
        for i in range(1, 500):
            key = (i % 37, i % 11, i)
            table[key] = table.get(key, 0) + i * (i + r)
            acc += Fraction(i % 13 + 1, i % 7 + 1)
        ordered = sorted(table.items(), key=lambda kv: (kv[1] % 101, kv[0]))
        total += len(ordered) + acc.denominator % 7
    return total


def time_reference() -> float:
    """CPU seconds one call of reference_work takes, garbage collected first."""
    gc.collect()
    t0 = time.thread_time()
    reference_work()
    return time.thread_time() - t0


def child_cpu_s(usage) -> float:
    """CPU seconds of a waited-for child, from its resource usage."""
    return usage.ru_utime + usage.ru_stime


def time_process_reference() -> float:
    """CPU seconds a fresh interpreter takes to run reference_work once, start to exit."""
    proc = subprocess.Popen([sys.executable, __file__, "--once"], stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return child_cpu_s(usage)


class Bracket:
    """The host scale of consecutive timings, each between two reference timings."""

    def __init__(self, fresh_process: bool = False):
        self.timer = time_process_reference if fresh_process else time_reference
        self.usual_s = PROCESS_REFERENCE_S if fresh_process else REFERENCE_S
        self.samples = [self.timer()]

    def scale(self) -> float:
        """The usual reference time over the mean of the last reference timing and a new one."""
        self.samples.append(self.timer())
        return self.usual_s / ((self.samples[-2] + self.samples[-1]) / 2)


if __name__ == "__main__":
    if sys.argv[1:] == ["--once"]:
        reference_work()
    else:
        print("in place:     ", " ".join(f"{time_reference():.4f}" for _ in range(10)))
        print("fresh process:", " ".join(f"{time_process_reference():.4f}" for _ in range(10)))
