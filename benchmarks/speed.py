"""Host-speed correction for job and set-up times.

The benchmark runs on shared hosts whose speed moves by a third or more
over seconds to minutes, while process CPU time tracks wall time, so the
slowdown is in the host, not in the scheduler.  No statistic over one run
removes that drift from raw times.  Instead a fixed pure-Python reference
loop, owned by the benchmark and independent of ``maxcross``, samples the
host's speed all through the run, inside jobs too: a periodic interval
timer runs it every ``PERIOD_S``.  The time the samples take inside a job is
subtracted from the job's time.  A job's time at nominal speed is its raw
time times the mean of ``NOMINAL_S / sample`` over the samples taken during
the job (or, for a job too short to hold ``MIN_SAMPLES``, over the samples
nearest to it).  ``NOMINAL_S`` is a fixed constant, so the corrected times
are seconds on a host where the reference loop takes ``NOMINAL_S``.

Jobs that run pool workers on every core are not sampled inside: there the
reference would compete with the workers.  They use the nearest samples
around them.

Set-up, which runs in a fresh process, did not slow down with the reference
loop, so that loop cannot correct it.  It did slow down with a bare
interpreter start (``python -c pass``), which does none of the program's
work; each set-up sample is corrected by the mean of ``START_NOMINAL_S /
start`` over bare starts timed just before and just after it.

The same timer enforces the per-job wall-clock limit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PERIOD_S = 0.05
# The reference loop's time on the nominal host (about its time on an idle
# 2-core x86 VM with Python 3.11).
NOMINAL_S = 0.002
MIN_SAMPLES = 4
# A bare interpreter start on the nominal host.
START_NOMINAL_S = 0.07


class JobTimeout(BaseException):
    """Raised by the interval timer when a job exceeds its limit."""


_MASKS = tuple((i * 2654435761) & 0xFFFFFFFFFFFF for i in range(64))
_EDGE_INDEX = {(u, w): u * 8 + w for u in range(8) for w in range(8)}
_POINTS = tuple((Fraction(i * 7 % 13, 3), Fraction(i * i % 11, 5)) for i in range(9))


def reference_work() -> int:
    """Fixed pure-Python work in the two styles the jobs spend their time in.

    A recursive search over bitmasks with a tuple-keyed dict and a degree
    list, like the convex DFS and the enumerator, then orientation signs of
    Fraction points, like the geometric kernels.  Of the loops tried, these
    two together tracked the jobs' slowdowns best; a dict-building loop
    tracked them poorly.
    """
    remaining = [2] * 7
    total = 0

    def dfs(depth: int, mask: int, current: int) -> None:
        nonlocal total
        if depth == 4:
            total += current
            return
        u = depth % 7
        for w in range(7):
            if not remaining[w] or w == u:
                continue
            index = _EDGE_INDEX[(u, w)]
            gained = (_MASKS[index] & mask).bit_count()
            remaining[w] -= 1
            dfs(depth + 1, mask | (1 << index), current + gained)
            remaining[w] += 1

    dfs(0, 0, 0)
    for i in range(9):
        for j in range(9):
            (px, py), (qx, qy), (rx, ry) = _POINTS[i], _POINTS[j], _POINTS[(i + j) % 9]
            total += (qx - px) * (ry - py) - (qy - py) * (rx - px) > 0
    return total


def bare_start() -> float:
    """Seconds for a bare interpreter start.

    No timeout: with one, subprocess polls the child in steps of up to
    50 ms, which would quantize the measurement.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started


def setup_at_nominal(seconds: float, starts: list[float]) -> float:
    """Set-up `seconds` at nominal speed, given bare starts timed around it."""
    return seconds * sum(START_NOMINAL_S / s for s in starts) / len(starts)


class SpeedProbe:
    """Samples the reference loop on a timer and corrects job times with it.

    The timer takes samples while ``sampling`` is on: when the probe is
    ``enabled``, that is during jobs that are not parallel and between jobs.
    It always checks the current job's deadline.  ``spent`` is the total
    time of all samples; a job subtracts its increase during the job.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.sampling = enabled
        self.deadline = float("inf")
        self.spent = 0.0
        self._midpoints: list[float] = []
        self._seconds: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        if time.perf_counter() >= self.deadline:
            raise JobTimeout
        if self.sampling:
            started = time.perf_counter()
            reference_work()
            ended = time.perf_counter()
            self._midpoints.append((started + ended) / 2)
            self._seconds.append(ended - started)
            self.spent += ended - started

    def nominal(self, seconds: float, started: float, ended: float) -> float:
        """`seconds` of work done between `started` and `ended`, at nominal speed."""
        points = self._midpoints
        lo = bisect.bisect_left(points, started)
        hi = bisect.bisect_right(points, ended)
        # Widen to the nearest samples on either side until there are enough.
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(points)):
            before = started - points[lo - 1] if lo > 0 else float("inf")
            after = points[hi] - ended if hi < len(points) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        window = self._seconds[lo:hi]
        if not window:
            return seconds
        return seconds * sum(NOMINAL_S / s for s in window) / len(window)

    def summary(self) -> dict:
        """Sample count and median reference time, in seconds."""
        if not self._seconds:
            return {"samples": 0}
        return {"samples": len(self._seconds), "median_s": statistics.median(self._seconds)}
