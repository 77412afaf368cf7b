"""Machine speed, from a fixed reference kernel timed between units of work.

On a shared host the same code runs up to ~30 % slower or faster for
seconds to minutes at a time (a plain Python loop shows it too), which
swamps run-to-run comparisons of raw wall time.  The benchmark therefore
times a fixed kernel every ``INTERVAL_S`` between units of work, outside
the timed region, and reports end-to-end times scaled to a machine on
which that kernel takes its nominal time:

    reported = measured * nominal / (median kernel time around that moment)

Work inside this process is scaled by an in-process kernel; fresh
processes (set-up, CLI commands) by a fresh interpreter that imports numpy.
That kernel tracks process creation, page faults and import work, which an
in-process kernel misses.  At ~0.13 s it also spans many scheduler time
slices, so a host that takes the CPU away in slices slows it in about the
same proportion as the ~0.7 s commands; a 10 ms bare interpreter start can
fall between such slices.  It is started and timed by launch.py, exactly as
the commands are: timed with ``subprocess.run`` from this large process
instead, it slowed more than the commands did on a busy host and
over-corrected them.  Both kernels are benchmark code, so a change to
memcav cannot move them.  The raw, unscaled figures are kept next to the
scaled ones.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import sys
import time

import numpy as np

from proc import run_child

INTERVAL_S = 0.1
# kernel timings in the fresh-process local median: the kernel is timed
# once per ~0.7 s command, so the window spans about 8 s
FRESH_PROCESS_WINDOW = 9
# roughly each kernel's time on an idle 2.1 GHz x86-64 core
IN_PROCESS_NOMINAL_S = 1.5e-3
FRESH_PROCESS_NOMINAL_S = 0.13
KERNEL_TIMEOUT_S = 60.0


class Speedometer:
    def __init__(self, kernel, nominal_s: float, window: int):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.window = window
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Run the kernel, which returns its own time, if INTERVAL_S has
        passed since the last timing."""
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= INTERVAL_S:
            self.took.append(self.kernel())
            self.at.append(now)

    def scale(self, t: float) -> float:
        """Nominal time over the median kernel time of the timings nearest to t."""
        k = bisect.bisect_right(self.at, t)
        lo = max(0, k - (self.window + 1) // 2)
        return self.nominal_s / statistics.median(self.took[lo:lo + self.window])


def in_process(window: int) -> Speedometer:
    """The in-process kernel, its local median over `window` timings.

    A unit of work longer than INTERVAL_S lies between two timings, and
    window 2 (their mean) tracks it best; units far shorter than INTERVAL_S
    share a timing, and there a window of seconds averages out the
    kernel's own jitter.
    """
    rng = np.random.default_rng(0)
    large = rng.random(1 << 17)    # 1 MiB
    small = rng.random(8)

    def kernel():
        # the kinds of work memcav's hot paths mix: interpreter dispatch with
        # small-object allocation, many calls on tiny numpy arrays, and
        # passes over an L2-sized array
        t0 = time.perf_counter()
        rows = []
        for i in range(2000):
            point = {"x": float(i), "n": i}
            rows.append((point["x"] * 0.5, math.sqrt(point["n"])))
        for _ in range(200):
            small.sum()
        for _ in range(5):
            large.sum()
        return time.perf_counter() - t0

    return Speedometer(kernel, IN_PROCESS_NOMINAL_S, window)


def fresh_process(cwd) -> Speedometer:
    # -I: the benchmark's own environment (thread caps) but no PYTHONPATH,
    # so memcav can never be on the kernel's path
    argv = [sys.executable, "-I", "-c", "import numpy"]

    def kernel():
        # timed from spawn to exit by the launcher that times the CLI
        # commands, so kernel and commands are measured the same way
        child = run_child(argv, cwd, dict(os.environ), KERNEL_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError(f"speed kernel exited {child.code}: {child.stderr.strip()}")
        return child.wall_s

    return Speedometer(kernel, FRESH_PROCESS_NOMINAL_S, FRESH_PROCESS_WINDOW)
