"""Machine-speed sampler for the benchmark's child processes.

On a shared virtual machine the same code can run 1.6 times slower for
seconds or minutes at a time, because of load outside the machine.  Wall
times taken in such a period mix the program's cost with the host's load.
The sampler measures that load: every PERIOD_S seconds of wall time it
runs a fixed pure-Python loop that does not touch `finbench` and records
how long it took.  REFERENCE_S / duration is the machine's speed at that
moment, relative to the reference machine below.  Samples come at a fixed
wall-time rate, so their mean speed over an interval is the time-weighted
speed of the interval.  Multiplying a wall time by it gives the time the
interval would have taken at reference speed.

The loop takes about 1% of the process's time, in every run alike.
"""

import signal
import time

PERIOD_S = 0.01
LOOP = 400
# One sample's loop time varies by about a quarter, so the speed of a short
# interval is taken over at least this much time around it.
WINDOW_S = 0.5
# Median loop time on the reference machine (2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7) in its fast state.
REFERENCE_S = 25e-6


class Sampler:
    """Samples (time, speed) from SIGALRM until stopped."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP):
            s += i % 7
        t1 = time.perf_counter()
        self.samples.append((t1, REFERENCE_S / (t1 - t0)))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, start=float("-inf"), end=float("inf")):
        """Mean speed of the samples taken between start and end, widened to
        WINDOW_S around its middle when shorter, or of the nearest sample
        when none fell inside; 1.0 without samples."""
        pad = (WINDOW_S - (end - start)) / 2
        if pad > 0:
            start, end = start - pad, end + pad
        inside = [v for t, v in self.samples if start <= t <= end]
        if inside:
            return sum(inside) / len(inside)
        if not self.samples:
            return 1.0
        return min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]
