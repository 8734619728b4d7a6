"""Wall-clock timing normalised to the machine's speed during the run.

A shared VM changes speed by up to a third over tens of seconds to
minutes: CPU steal and other tenants on the same cores.  The process's
CPU time slows down with it, so it is no steadier than the wall clock.
A ``Clock`` therefore runs a fixed calibration kernel, which does not use
fcmax, before and after every timed interval, and also reports each
interval as the time it would have taken on a machine that runs the kernel
at ``REF_RATE`` loops per second.  The kernel mixes small numpy products
and Python object work, like the program.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# About the median rate of the kernel on the 2-core Xeon VM the benchmark
# was written on, so that normalised numbers read like raw ones there.
# Changing it rescales every normalised number.
REF_RATE = 60000.0
KERNEL_LOOPS = 6000


def kernel_rate() -> float:
    """Loops per second of the calibration kernel, timed now."""
    a = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32) / 8.0
    v = np.linspace(-1.0, 1.0, 32)
    start = time.perf_counter()
    for _ in range(KERNEL_LOOPS):
        v = np.tanh(a @ v + 0.1)
        p = np.exp(v - v.max())
        p /= p.sum()
        sorted((float(x), i) for i, x in enumerate(p[:16]))
    return KERNEL_LOOPS / (time.perf_counter() - start)


@dataclass(frozen=True)
class Interval:
    wall: float     # seconds
    before: float   # kernel rate just before
    after: float    # kernel rate just after


class Clock:
    """Times intervals and normalises them to the reference machine speed.

    An interval's speed estimate is the mean of the kernel rates around it,
    shrunk halfway toward the median rate of the whole run: the rates next
    to an interval follow changes within the run, and the run's median is
    steadier.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []

    def timed(self, fn, *args):
        """Run fn(*args); return (result, Interval)."""
        before = kernel_rate()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        after = kernel_rate()
        self.rates += [before, after]
        return result, Interval(wall, before, after)

    def seconds(self, interval: Interval) -> float:
        """The interval's time on a machine that runs the kernel at REF_RATE."""
        local = (interval.before + interval.after) / 2.0
        speed = (local + statistics.median(self.rates)) / (2.0 * REF_RATE)
        return interval.wall * speed

    def speed(self) -> float:
        """The machine's median speed over the run, relative to REF_RATE."""
        return statistics.median(self.rates) / REF_RATE
