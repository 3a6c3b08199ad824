"""Timers for the benchmark: plain wall time, and wall time at a reference
machine speed.

On a shared host the speed of one vCPU changes from second to second, by
up to 1.9x, while the process is running: CPU time grows with wall time,
so this is not time spent waiting to be scheduled. ``SpeedTimer`` measures
that speed while an operation runs. It times a fixed piece of pure-Python
work, the calibration unit, once when the operation starts and then every
``SAMPLE_PERIOD_S`` of CPU time from a ``SIGPROF`` handler, which runs in
the middle of the operation. Each stretch of the operation between two
samples is scaled by the unit time measured just before it. The result is
the operation's time in seconds at the speed at which one unit takes
``UNIT_REFERENCE_S``; the calibration itself is not counted.

The calibration unit does not depend on the program under test, so a
program that does its work faster reads faster by the same factor.
"""

from __future__ import annotations

import signal
import statistics
import time

# What one calibration unit takes at the reference speed: about its median
# inside an operation on a 2-vCPU Intel Xeon KVM guest (Python 3.11) in a
# quiet period, so that reference seconds read close to wall seconds there.
UNIT_REFERENCE_S = 2.0e-4
# CPU time between samples; a sample costs one unit, about 2 % of it.
SAMPLE_PERIOD_S = 0.01

# A fixed graph on 41 vertices, one adjacency bitmask per vertex, as
# hamclosure stores graphs.
_ROWS = tuple(
    sum(1 << w for w in ((v * 7 + 3) % 41, (v * 11 + 5) % 41, (v * 13 + 1) % 41, (v + 1) % 41))
    for v in range(41)
)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def calibration_unit() -> int:
    """A fixed piece of pure-Python work in the program's own idiom: graph
    searches over adjacency bitmasks, with a generator over set bits.

    It tracks the program's speed better than a unit of set and list
    operations did. Over four passes of ``classify-random``, pass times
    varied by 9.7 % (coefficient of variation); scaled by the set-and-list
    unit, by 2.9 %; scaled by this one, by 0.5 %.
    """
    total = 0
    for root in range(0, 41, 5):
        seen = 1 << root
        frontier = [root]
        while frontier:
            new = _ROWS[frontier.pop()] & ~seen
            seen |= new
            frontier.extend(_bits(new))
        total += seen.bit_count()
    return total


def reference_seconds(samples: list[tuple[float, float]], end: float) -> float:
    """Time from the end of the first sample to ``end`` at the reference
    speed. ``samples`` are the (start, end) clock readings of each
    calibration unit, in order; the time inside them is left out, and each
    stretch after one is scaled by that unit's duration."""
    total = 0.0
    for (start0, end0), (start1, _) in zip(samples, samples[1:] + [(end, end)]):
        total += (start1 - end0) / (end0 - start0)
    return total * UNIT_REFERENCE_S


class WallTimer:
    """Wall-clock seconds between ``start`` and ``stop``."""

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        return time.perf_counter() - self._t0


class SpeedTimer:
    """Seconds at the reference speed between ``start`` and ``stop``.

    Creating one installs its ``SIGPROF`` handler; the sampling timer runs
    only between ``start`` and ``stop``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.unit_times: list[float] = []  # every unit measured, for the report
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        calibration_unit()
        end = time.perf_counter()
        self.samples.append((start, end))
        self.unit_times.append(end - start)

    def start(self) -> None:
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_PROF, 0)
        return reference_seconds(self.samples, time.perf_counter())

    def describe(self) -> str:
        if not self.unit_times:
            return "no calibration units timed"
        median = statistics.median(self.unit_times)
        return (f"calibration unit: median {median * 1e6:.1f} us over {len(self.unit_times)} "
                f"samples, reference {UNIT_REFERENCE_S * 1e6:.1f} us")
