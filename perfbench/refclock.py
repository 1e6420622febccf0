"""Drift-cancelling reference clock.

On a small shared host the same code runs up to ~1.6x slower in one
minute than in the next.  The reference is a fixed CPU workload with the
benchmark's own mix -- a pure-Python loop, many small-array NumPy
reductions and one sum over an array larger than the caches -- timed in
the load process just before and just after every timed window.  Dividing
a window's timings by its reference time gives figures in *reference
units* that the drift largely cancels out of.

Normalising is not always steadier: a timing made partly of fixed timers
(the batcher's linger) does not scale with CPU speed, so dividing it by
the reference adds the reference's own noise.  The benchmark therefore
prints every timing raw beside its normalised form; ``BENCHMARK.json``
names the form each metric is gated on by its unit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

#: reference repetitions timed on each side of a window
REPS = 3


class ReferenceClock:
    """The fixed reference workload."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._small = [rng.standard_normal(256) for _ in range(48)]
        self._large = rng.standard_normal(1 << 20)  # 8 MiB of float64

    def _once(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += (i * i) % 7
        for a in self._small:
            acc += int(a.sum() > 0.0)
        acc += int(self._large.sum() > 0.0)
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median of ``REPS`` reference timings, in seconds."""
        times = sorted(self._once() for _ in range(REPS))
        return times[len(times) // 2]


@dataclass(frozen=True)
class Window:
    """One timed window: items done, its duration, the reference around it."""

    items: int
    seconds: float
    ref_before: float
    ref_after: float

    @property
    def ref(self) -> float:
        return 0.5 * (self.ref_before + self.ref_after)


def plan(seconds: float, window_s: float) -> "tuple[int, float]":
    """``seconds`` of measurement as a count of equal windows near ``window_s``."""
    count = max(2, round(seconds / window_s))
    return count, seconds / count


def throughput(windows: "list[Window]") -> "tuple[float, float]":
    """Items per second, and items per reference unit, over all windows.

    Raw: total items over total seconds.  Normalised: total items over the
    windows' durations each expressed in its own reference units, so a slow
    minute that stretches both a window and its reference cancels out.
    """
    items = sum(w.items for w in windows)
    seconds = sum(w.seconds for w in windows)
    ref_units = sum(w.seconds / w.ref for w in windows)
    if seconds <= 0 or ref_units <= 0:
        raise ValueError("no timed window has a positive duration")
    return items / seconds, items / ref_units


def normalise(latency_s: float, window: Window) -> float:
    """One latency sample in reference units of its own window."""
    return latency_s / window.ref
