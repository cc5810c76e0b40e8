"""Machine speed, measured beside the requests it scales.

The benchmark runs on a few cores of a shared host whose speed drifts:
one identical exact query takes 0.55 s in one period and 1.3 s in
another, minutes apart, with CPU time equal to wall time in both (no
steal; the slowdown is in the core itself). A run-level wall clock then
measures the host as much as the program.

So the gated timings are expressed in ``ref_s`` (reference
seconds): a fixed reference kernel that does not touch the program —
per-row numpy comparisons on a small matrix plus a pure-Python dict
loop, the mix of the library's hot paths — is timed between requests,
and each request's wall latency is divided by the time
:data:`PROBES_PER_REF_S` kernel calls took around it (the median of the
probes within :data:`WINDOW_S` seconds of the request). One ``ref_s``
lasted 0.6 to 1.3 wall seconds on the host the bounds were set on (2
vCPUs of an Intel Xeon), depending on its load. A program change moves
the latency and leaves the kernel alone; a host slowdown moves both,
though not by quite the same factor: from the slowest to the fastest
period seen, adhoc-join's median moved from 1.07 to 0.92 ``ref_s``
while its wall median halved.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

#: The kernel's fixed input: per-row dominance-style comparisons.
_MATRIX = np.random.default_rng(20170420).uniform(size=(400, 7))
#: Rows compared per kernel call (12-20 ms on the host above).
KERNEL_ROWS = 600
#: Kernel calls that make one ``ref_s``.
PROBES_PER_REF_S = 50
#: Seconds between probes at most: a probe runs before a request when
#: this long has passed since the last one.
EVERY_S = 0.25
#: Probes within this many seconds of a request scale its latency.
WINDOW_S = 1.0


def kernel() -> int:
    """The reference work; its result is returned so none of it is skipped."""
    acc = 0
    for j in range(KERNEL_ROWS):
        row = _MATRIX[j % len(_MATRIX)]
        acc += int((row <= _MATRIX).all(axis=1).sum())
        seen = {}
        for q in range(200):
            seen[q] = q % 7
        acc += len(seen)
    return acc


def time_kernel() -> float:
    """Seconds one kernel call takes in this process."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speed:
    """Probes taken during one run, and latencies scaled by them.

    ``measure`` runs the kernel once where the program runs and returns
    its seconds (in this process by default; served-mix asks its server
    process). Timestamps are this process's ``perf_counter``.
    """

    def __init__(self, measure: Callable[[], float] = time_kernel) -> None:
        self.measure = measure
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        start = time.perf_counter()
        seconds = self.measure()
        self.probes.append(((start + time.perf_counter()) / 2, seconds))

    def tick(self) -> None:
        """Probe if none was taken in the last :data:`EVERY_S` seconds."""
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= EVERY_S:
            self.probe()

    def ref_s(self, start: float, end: float) -> float:
        """Wall seconds one ``ref_s`` lasted around ``[start, end]``: the
        median probe within :data:`WINDOW_S` of it (at least the two
        nearest probes), times :data:`PROBES_PER_REF_S`."""
        near = [s for t, s in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < 2:
            mid = (start + end) / 2
            near = [s for _, s in sorted(self.probes, key=lambda p: abs(p[0] - mid))[:2]]
        return statistics.median(near) * PROBES_PER_REF_S

    def scaled(self, start: float, end: float) -> float:
        """The latency ``end - start`` in ``ref_s``."""
        return (end - start) / self.ref_s(start, end)

    def wall_per_ref_s(self) -> float:
        """Median wall seconds per ``ref_s`` over the whole run."""
        return statistics.median(s for _, s in self.probes) * PROBES_PER_REF_S
