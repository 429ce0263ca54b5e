"""Machine-speed calibration for timings taken on a shared machine.

A co-tenant can slow a shared core by half for seconds at a time, which
swamps any change in the program.  Right before and right after each timed
op the benchmark times a fixed reference task and rescales the op's wall
time by ``nominal / mean reference time``.  A calibrated second is a wall
second at the speed where the reference takes its nominal time; wall-clock
figures are printed next to the calibrated ones.  Sampling on both sides of
the op, and averaging rather than taking the fastest run, follows a
slowdown that starts or ends during the op; it kept the p90 of identical
ops within a few percent where the fastest run before the op alone left it
spread by a fifth.

``KERNEL`` is a small pure-Python kernel (Fraction and int arithmetic, list
and dict access: the operations liftbank spends its time in), for ops that
run in this process.  ``STARTUP`` is a bare interpreter start, for ops that
are whole ``liftbank`` processes: exec, page faults and imports slow down
under load differently from arithmetic, and the kernel over-corrected them
by up to a tenth.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

def kernel():
    acc = Fraction(0)
    for i in range(150):
        acc += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, 8)
    x = list(range(1024))
    s = 0
    for i in range(1024):
        s += x[(i * 5) & 1023] * 3
    d: dict[int, int] = {}
    for i in range(300):
        d[i % 17] = d.get(i % 17, 0) + i
    return acc, s, d


def _interpreter():
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class Calibrator:
    """A reference task, its nominal wall time and runs per calibration."""

    def __init__(self, task, nominal_s: float, repeats: int):
        self.task = task
        self.nominal_s = nominal_s
        self.repeats = repeats

    def timings(self) -> list[float]:
        """Wall seconds of ``repeats`` runs of the task."""
        out = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.task()
            out.append(time.perf_counter() - t0)
        return out

    def speed(self, samples: list[float]) -> float:
        """Nominal over mean reference time: below 1 on a slowed machine."""
        return self.nominal_s * len(samples) / sum(samples)


#: Nominal times: the wall time of each task on one 2.1 GHz x86-64 core
#: under CPython 3.11 with no co-tenant load.
KERNEL = Calibrator(kernel, 0.0007, 3)
STARTUP = Calibrator(_interpreter, 0.040, 1)
