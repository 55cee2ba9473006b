"""A clock in reference seconds, steady against a host whose speed drifts.

The benchmark runs on shared machines whose speed changes by a third or
more within seconds.  The reference clock corrects for that.  Every
``PERIOD`` seconds of wall time a timer signal runs a short fixed probe loop
and takes the machine's current speed from the probe's time.  The clock
then advances by the wall time since the last tick scaled by that speed
(the mean of the speeds at both ends of the interval).  One reference
second is the time that ``1 / NOMINAL_PROBE_S`` runs of the probe take at
the speed measured alongside the work, so a program that does the same
work reads about the same on a fast host and on a slowed one.

The probe's own time is left out of both the reference and the raw clock.
Like invsg it hashes small ints and tuples into dicts and sets, so it slows
down nearly as much as invsg does when the host is busy; a plain arithmetic loop
slows down less, and corrects for less.  The garbage collector is off
during the probe, so the program's heap never enters a sample.  The timer
is SIGALRM from ``setitimer``: it runs in the benchmark's only thread,
between bytecodes.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

PERIOD = 0.1              # seconds of wall time between speed samples
NOMINAL_PROBE_S = 0.001   # the probe's time, in reference seconds


def probe() -> int:
    """A fixed pure-Python loop of one to two milliseconds."""
    table, seen, total = {}, set(), 0
    for i in range(3_000):
        k = (i * 7919) & 4095
        table[k] = table.get(k, 0) + 1
        seen.add((k, k >> 3))
        total += i * i % 7
    return total + len(table) + len(seen)


class RefClock:
    """Reference seconds since ``since`` (a ``perf_counter`` reading; default
    now).  Time before the clock was made is scaled by its first sample."""

    def __init__(self, since: float | None = None):
        self.ticks = 0
        self.probe_s = 0.0        # wall seconds spent in the probe
        if since is None:
            since = perf_counter()
        self._rate = self._sample()
        self._last = perf_counter()
        # reference seconds up to self._last
        self._units = (self._last - since - self.probe_s) * self._rate
        self._busy = False
        self._previous = None

    def _sample(self) -> float:
        """Run the probe once; the current reference seconds per second."""
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.probe_s += dt
        return NOMINAL_PROBE_S / dt

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a tick is skipped
            return
        self._busy = True
        now = perf_counter()
        rate = self._sample()
        self._units += (now - self._last) * (self._rate + rate) / 2
        self._rate = rate
        self.ticks += 1
        self._last = perf_counter()
        self._busy = False

    def start(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        """Cancel the timer and put back the SIGALRM handler it replaced."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    # A tick can run between any two bytecodes of a reading; the readings
    # retry until no tick came between them.

    def now(self) -> float:
        """Reference seconds since ``since``."""
        while True:
            ticks = self.ticks
            value = self._units + (perf_counter() - self._last) * self._rate
            if ticks == self.ticks:
                return value

    def raw(self) -> float:
        """Wall seconds, less the time spent in the probe."""
        while True:
            ticks = self.ticks
            value = perf_counter() - self.probe_s
            if ticks == self.ticks:
                return value
