"""Interpreter-speed probe, to report times at a reference speed.

On a shared 2-core Xeon host the same Python code ran 25-45% slower or
faster from one second to the next, whatever it did.  The probe times a
fixed pure-Python kernel (no poclab code) before and after each cell
and, through SIGALRM, every INTERVAL_S while the cell runs.  A cell's
seconds are then scaled by KERNEL_REF_S over the mean kernel time during
the cell: the time the cell would have taken had the interpreter run at
the reference speed.  The kernel takes 0.5-0.7 ms, so the samples cost
1-1.5% of a run.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
# The kernel's typical time between cells on the 2-core Xeon the goldens
# were recorded on (Python 3.11.7), so that reference-speed times read
# close to raw times there.  It sets only the scale of reported times.
KERNEL_REF_S = 700e-6


class _Item:
    __slots__ = ("kind", "args", "link")

    def __init__(self, kind, args, link):
        self.kind = kind
        self.args = args
        self.link = link


def kernel() -> int:
    """Dict, tuple and set work, then small-object allocation: the kind
    of work the planner does, with none of its code."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(1000):
        key = (i % 61, i % 7)
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    for a, b in counts:
        seen.add(a * b)
    items = [_Item("open", (i, i + 1), None) for i in range(300)]
    kept = [it for it in items if it.args[0] % 3]
    return len(sorted(seen)) + len(frozenset(it.args for it in kept))


def time_kernel() -> float:
    """One kernel run's seconds, with the cyclic collector held off: a
    collection the kernel's allocations set off would scan the planner's
    heap and time that instead of the interpreter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Kernel times sampled at cell boundaries and on a timer between."""

    def __init__(self):
        self.samples: list[float] = []

    def mark(self) -> int:
        """Take a sample now; returns its index."""
        self.samples.append(time_kernel())
        return len(self.samples) - 1

    def mean_since(self, first: int) -> float:
        """Mean kernel time of the samples from index `first` on."""
        return statistics.fmean(self.samples[first:])

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(time_kernel())

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
