"""The machine's pace, sampled while the timed work runs.

The CPUs a benchmark gets on a shared host run a fixed job at a speed
that swings by up to 2x, over spans from milliseconds to minutes (the
same `witness` job on G(26, 1/2) took 0.09 s in one five-second window
and 0.15 s in the next), and CPU time stretches with it.  ``Pace``
samples that speed every ``INTERVAL_S`` of CPU time: a profiling timer
interrupts whatever runs, and the handler times a short fixed
pure-Python loop that uses none of hcolkit.  Work's CPU time, less the
loops run inside it, times ``REFERENCE_S`` over the mean loop time
sampled during it, is its time in reference seconds.  A change to
hcolkit moves reference seconds exactly as it moves CPU seconds; a
change in the machine's speed cancels out.  On a corpus of `witness`
jobs each run twice, the two times of a job differed by 25% (standard
deviation of the log ratio) in CPU seconds and by 5-7% in reference
seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# one sample every 10 ms of CPU time; a loop costs about 0.35 ms, so
# sampling adds about 4% to a run's length
INTERVAL_S = 0.01
ROUNDS = 75
# the loop's CPU time on a 2-vCPU Intel Xeon VM (2.1 GHz nominal) with
# Python 3.11 at its median pace, so that reference seconds read as CPU
# seconds there
REFERENCE_S = 0.00035
# a span with fewer samples inside it takes this many nearest ones
MIN_SAMPLES = 4


def _loop(rounds: int) -> int:
    """Int arithmetic, dict stores and bitset scans: of the loops tried,
    the one whose time tracked the `witness`, `gf` and `hom` jobs closest."""
    table: dict[int, int] = {}
    rows = [(v * 0x9E3779B97F4A7C15 >> 7) & ((1 << 40) - 1) for v in range(40)]
    acc = count = 0
    for i in range(rounds):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        table[i & 1023] = acc
        acc += bin(x).count("1")
        scan = rows[i % 40] & rows[(i * 7) % 40]
        while scan:
            low = scan & -scan
            scan ^= low
            count += (rows[low.bit_length() - 1] & scan).bit_count()
    return acc + count


def clock() -> float:
    """The main thread's CPU time: the time line the samples are placed on.

    While a profiling timer is armed, Linux reads the process CPU clock
    (``time.process_time``) only at scheduler ticks; the thread clock
    stays exact."""
    return time.thread_time()


class Pace:
    """Samples the loop's time while armed (``with Pace() as pace:``).

    Mark a span with ``clock()`` at its start and end; ``reference``
    converts the span's CPU time once samples after it exist."""

    def __init__(self):
        self.stamps: list[float] = []  # clock() at the start of each sample
        self.loops: list[float] = []  # the loop's CPU time in that sample

    def _sample(self, signum, frame) -> None:
        started = clock()
        _loop(ROUNDS)
        self.stamps.append(started)
        self.loops.append(clock() - started)

    def __enter__(self) -> "Pace":
        self.previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self.previous)

    def reference(self, start: float, end: float, cpu: float) -> float:
        """Reference seconds of a span from `start` to `end` on ``clock()``
        that took `cpu` CPU seconds, sampling included."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        inside = sum(self.loops[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.loops)):
            # widen to the nearer sample on either side
            if lo > 0 and (hi == len(self.loops) or start - self.stamps[lo - 1] <= self.stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return (cpu - inside) * REFERENCE_S / statistics.fmean(self.loops[lo:hi])

    def median_loop(self) -> float:
        return statistics.median(self.loops)
