"""Host-speed normalisation of the benchmark's timings.

On the 2-vCPU Linux VM where the reference figures were taken, the speed of
a fixed pure-Python loop switches between two levels about 1.6 times apart,
for stretches of seconds to minutes, whatever runs inside the VM. Raw wall
times of identical rounds therefore spread by more than any useful
regression bound. While a worker measures, ``Sampler`` times a fixed
pure-Python reference loop every 20 ms from a SIGALRM handler. A timed
interval is then reported in reference seconds: its wall time, minus the
sampler's own time inside it, times the mean of ``REF_S / sample`` over the
samples inside it. The loop does what byzsim does most (small tuples, dict
updates, short strings), so it slows down and speeds up with the program.
On identical ``consistency-small`` rounds this took the spread between runs
from 0.10 to 0.01 of the median.

``REF_S`` is the loop's time on that VM at its usual speed, so reported
figures read as seconds there.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 335e-6
INTERVAL_S = 0.02


def reference_loop():
    table = {}
    total = 0
    for i in range(600):
        key = (i & 31, i >> 5)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + len(table)


class Sampler:
    """Times ``reference_loop`` every INTERVAL_S seconds while started."""

    def __init__(self):
        self.samples = []  # (start, duration)
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start, end) -> float:
        """Reference seconds spent between two perf_counter readings.

        An interval too short to hold a sample is scaled by the mean speed
        over all samples taken so far.
        """
        inside = [d for s, d in self.samples if start <= s < end]
        pool = inside or [d for _, d in self.samples]
        if not pool:
            return end - start
        speed = statistics.fmean(REF_S / d for d in pool)
        return (end - start - sum(inside)) * speed
