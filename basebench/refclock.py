"""Wall time rescaled to a fixed reference CPU speed.

The machines this benchmark runs on share their cores: the same
pure-Python loop can take 50-70% longer for seconds or minutes at a time
when a neighbour is busy, and CPU time slows just as much as wall time.
Raw wall figures then measure the neighbour, not the program.

:class:`ReferenceClock` samples the machine's current speed throughout a
measured window: every :data:`SAMPLE_EVERY` wall seconds (whenever the
load generator calls :meth:`ReferenceClock.tick`) it runs a short,
fixed reference loop and times it.  Afterwards every wall timestamp
taken in the window maps to *reference seconds*
(:meth:`ReferenceClock.to_reference`): the time between two samples
counts as its wall length times :data:`REFERENCE_SECONDS` over the mean
duration of the two samples that bracket it, and the samples' own time
counts as nothing.  A program that gets faster takes fewer reference
seconds; a machine that gets slower slows the reference loop as much as
the program and leaves them unchanged.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from bisect import bisect_right
from typing import Callable, List

#: Wall seconds between reference samples while a window is running.
SAMPLE_EVERY = 0.05
#: Iterations of the reference loop (about 2-3 ms of pure Python).
REFERENCE_ITERATIONS = 8000
#: What one reference loop is taken to last: reference seconds run at
#: the speed at which the loop takes exactly this long.
REFERENCE_SECONDS = 0.002


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic, calls into a dict and
    a branch per iteration, with no container allocated in the loop (so
    the cyclic collector never runs inside it)."""
    table = dict.fromkeys(range(256), 0)
    acc = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        if acc & 1:
            acc = (acc * 3 + key) & 0xFFFFFFFF
        else:
            acc = (acc >> 1) ^ i
    return acc


class ReferenceClock:
    """Samples the machine's speed during one window; maps wall
    timestamps taken inside the window to reference seconds."""

    def __init__(self, loop: Callable[[], object] = reference_loop,
                 every: float = SAMPLE_EVERY):
        self.loop = loop
        self.every = every
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._next = math.inf
        self._mapped: List[float] = []

    def sample(self) -> float:
        """Run the reference loop once; returns the wall clock after it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.loop()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        return t1

    def start(self) -> None:
        """Open the window (with a sample) and sample on every tick
        that finds the last sample ``every`` seconds old."""
        del self.starts[:], self.ends[:], self._mapped[:]
        self._next = self.sample() + self.every

    def tick(self) -> float:
        """The current wall clock, after a sample if one is due."""
        now = time.perf_counter()
        if now >= self._next:
            now = self.sample()
            self._next = now + self.every
        return now

    def stop(self) -> None:
        """Close the window with a last sample."""
        self._next = math.inf
        self.sample()
        self._mapped = [0.0]
        for k in range(len(self.starts) - 1):
            self._mapped.append(self._mapped[-1] + (
                self.starts[k + 1] - self.ends[k]) * self._scale(k))

    def _scale(self, k: int) -> float:
        """Reference seconds per wall second between samples k and k+1."""
        mean = (self.ends[k] - self.starts[k]
                + self.ends[k + 1] - self.starts[k + 1]) / 2
        return REFERENCE_SECONDS / mean

    def to_reference(self, t: float) -> float:
        """Reference seconds from the window's start to wall time ``t``
        (taken inside the window, outside any sample)."""
        k = min(max(bisect_right(self.ends, t) - 1, 0), len(self.ends) - 2)
        return self._mapped[k] + (t - self.ends[k]) * self._scale(k)

    @property
    def elapsed(self) -> float:
        """The window's length in reference seconds."""
        return self._mapped[-1]

    @property
    def wall_elapsed(self) -> float:
        """The window's wall length, without the samples' own time."""
        return sum(self.starts[k + 1] - self.ends[k]
                   for k in range(len(self.starts) - 1))

    @property
    def speed(self) -> float:
        """Reference seconds per wall second over the whole window, from
        the median sample (for totals that have no timestamps)."""
        return REFERENCE_SECONDS / statistics.median(
            e - s for s, e in zip(self.starts, self.ends))
