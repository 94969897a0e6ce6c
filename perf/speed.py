"""Wall time corrected for the speed a shared host gives this process.

On a shared host the same work takes between one and about two times its
best wall time. Other tenants load the physical core this process runs
on, in spells that last from microseconds to minutes, and the guest
kernel reports no steal time for them, so process CPU time stretches
with the wall clock. A benchmark that reads only the clock then measures
its neighbours.

While a :class:`SpeedProbe` is active, a SIGALRM handler times a fixed
integer loop of about a microsecond every ``TICK_S`` of wall time. The
loop's fastest time over the whole probe, over its time at one tick, is
the host's speed at that instant. A span's corrected time is its wall
time times the mean speed of the ticks inside it: the time the span
would take if the host ran this process throughout as fast as it did at
its best during the run. A change to the program moves the corrected
time as it moves the wall time; the loop itself never changes.

The handler runs the loop twice and times the second run. The first
pays for caches the program's own work just evicted, which depends on
what the program was doing, not on the host; corrected with it, the
benchmark's wall-clock metrics spread more over seeds, not less.

The correction is partial. When the host stays slow for a whole run,
even the fastest tick is slow, so the reference is too and the run is
not corrected. ``perf/README.md`` has the measured effect.

The handler reads no state of the program under test, so it changes
nothing the program computes. It costs well under 1% of the wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Wall seconds between two ticks.
TICK_S = 0.001
#: Iterations of the timed loop.
LOOPS = 20


class SpeedProbe:
    """Context manager sampling the host's speed; then corrects spans."""

    def __init__(self) -> None:
        #: ``perf_counter_ns`` at the end of each tick, and the loop's time then.
        self._at: list[int] = []
        self._took: list[int] = []
        self._reference = 0
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._reference = min(self._took, default=0)

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter_ns
        acc = 0
        for i in range(LOOPS):
            acc += i * i
        start = clock()
        for i in range(LOOPS):
            acc += i * i
        end = clock()
        self._at.append(end)
        self._took.append(end - start)

    @property
    def ticks(self) -> int:
        """Ticks sampled so far."""
        return len(self._took)

    def seconds(self, span: tuple[int, int]) -> float:
        """Corrected seconds of ``span`` (``perf_counter_ns`` start, end).

        A span shorter than a tick takes the speed of the first tick
        after its start; without any tick the wall time is returned.
        """
        start, end = span
        wall = (end - start) / 1e9
        lo = bisect.bisect_left(self._at, start)
        hi = max(bisect.bisect_right(self._at, end), lo + 1)
        took = self._took[lo:hi]
        if not took or not self._reference:
            return wall
        reference = self._reference
        return wall * statistics.fmean(reference / t for t in took)
