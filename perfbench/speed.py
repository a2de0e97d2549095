"""A clock that reads in reference seconds: wall time scaled by the machine's
speed, measured next to the work it times.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.5x in episodes of several seconds and drifts over minutes, so a fixed
pure-Python loop varies by a coefficient of variation near 0.12 at every
window from 1 s to 30 s.  Longer runs do not average that away.  This clock
times a short fixed reference loop at every reading (and, inside
``sampling``, on a timer while an operation runs), and counts each stretch of
wall time between two readings at the mean speed of its two ends:

    reference seconds = wall seconds * REFERENCE_NOMINAL_S / reference loop time

``REFERENCE_NOMINAL_S`` is the loop's time at the fast end of its range on
a 2-core x86-64 VM with Python 3.11, so on such a machine at full speed
reference seconds are close to wall seconds.  The time of the reference loop itself is left out of both the
reference and the wall readings.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

REFERENCE_ITERATIONS = 80_000
REFERENCE_NOMINAL_S = 0.0050
SAMPLE_PERIOD_S = 0.05  # how often ``sampling`` reads the clock; the loop takes about 10 % of it


def reference_loop_seconds():
    """Wall time of one fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedClock:
    """Reference seconds since the first reading, plus the wall seconds outside
    the reference loop over the same span and the wall seconds inside it."""

    def __init__(self):
        self.reference_s = 0.0
        self.wall_s = 0.0
        self.reading_s = 0.0
        self._mark = None
        self._factor = None
        self._busy = False

    def read(self):
        """Time the reference loop now; return (reference seconds, wall seconds)."""
        self._busy = True
        try:
            now = time.perf_counter()
            factor = REFERENCE_NOMINAL_S / reference_loop_seconds()
            if self._mark is not None:
                stretch = now - self._mark
                self.wall_s += stretch
                self.reference_s += stretch * (self._factor + factor) / 2
            self._factor = factor
            self._mark = time.perf_counter()
            self.reading_s += self._mark - now
        finally:
            self._busy = False
        return self.reference_s, self.wall_s

    def _tick(self, signum, frame):
        if not self._busy:
            self.read()

    @contextmanager
    def sampling(self):
        """Also read the clock every ``SAMPLE_PERIOD_S`` while work runs in
        this process.

        The signal handler runs in the main thread between bytecodes, so a
        long operation is split into short stretches.  Do not use it while a
        child process does the work: the reference loop would then compete
        with the child for the host's cores.
        """
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
