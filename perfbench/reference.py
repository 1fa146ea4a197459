"""How fast the machine runs Python right now, from a fixed kernel sampled during a run.

On a shared host the same CPU work runs up to 1.9 times slower in phases that
last from a second to several minutes: other tenants compete for the core's
caches and execution units, which no clock filters out.  So while a workload
runs, a wall-clock timer interrupts it every ``PERIOD_S`` seconds and runs
``kernel`` once, a fixed piece of pure-Python graph code of the same kind as
the library's (lists, dicts, small ints).  ``Speedometer.clock`` is process
CPU time without the kernel's share, so an operation's time never includes it.

``Speedometer.scaled`` turns an operation's time into time at reference speed:
it multiplies it by ``KERNEL_S`` (a fixed scale, the kernel's typical time on
the calibration machine) over the mean kernel time sampled during the operation and the
``WINDOW`` samples on either side.  The kernel is benchmark code that no
library change touches, so a slower library still shows as slower, while a
slower machine phase slows both and cancels.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

CLOCK = time.process_time

# A fixed scale: the kernel's typical CPU time per call on the calibration
# machine (a shared 2-vCPU Intel Xeon VM, CPython 3.11; 0.44 ms when quiet).
KERNEL_S = 0.0006
PERIOD_S = 0.01
WINDOW = 8


def kernel() -> int:
    """Breadth-first search from every eighth vertex of a fixed random digraph."""
    n, x = 400, 12345
    adj = [[] for _ in range(n)]
    for _ in range(3 * n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % n
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % n
        if u != v:
            adj[u].append(v)
    total = 0
    for s in range(0, n, 8):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
    return total


class Speedometer:
    """Samples ``kernel`` on a timer between ``start`` and ``stop``.

    ``samples`` holds each call's CPU time and ``busy`` their sum.  The timer
    is ``ITIMER_REAL``: a CPU-time timer (``ITIMER_PROF``) would make the
    kernel coarsen the process CPU clock to scheduler ticks.
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0
        self.sampling = False

    def _sample(self, signum, frame) -> None:
        # A tick that lands while the kernel runs (the process was descheduled
        # for a period) is dropped: a nested sample would be counted twice.
        if self.sampling:
            return
        self.sampling = True
        # Without the collector: a collection started by the kernel's
        # allocations would scan the library's objects and bill them to it.
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = CLOCK()
            kernel()
            seconds = CLOCK() - t0
        except RecursionError:  # the timer landed deep in a library recursion; skip this sample
            return
        finally:
            self.sampling = False
            if collecting:
                gc.enable()
        self.samples.append(seconds)
        self.busy += seconds

    def start(self) -> None:
        for _ in range(20):  # let the interpreter specialise the kernel first
            kernel()
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        if not self.samples:  # a run shorter than one period
            self._sample(None, None)

    def clock(self) -> float:
        """Process CPU time without the kernel's calls; exact even if one lands mid-read."""
        while True:
            busy = self.busy
            now = CLOCK()
            if self.busy == busy:
                return now - busy

    def timed(self, fn) -> tuple:
        """Call ``fn()``; returns its CPU time and the samples taken meanwhile, as a slice."""
        first = len(self.samples)
        t0 = self.clock()
        fn()
        return self.clock() - t0, (first, len(self.samples))

    def scaled(self, seconds: float, span: tuple) -> float:
        """``seconds`` at reference speed, from the samples around ``span``."""
        first, last = span
        around = self.samples[max(0, first - WINDOW) : last + WINDOW]
        return seconds * KERNEL_S / statistics.fmean(around)
