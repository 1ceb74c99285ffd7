"""Host speed probe: a fixed pure-Python task timed around and during each call.

On a shared virtual machine the speed of a vCPU drifts by up to twofold
within a second, and CPU time drifts with it, so raw wall times of the same
runs spread by a third between minutes. The drift slows interpreted code
nearly alike, so a call's wall time divided by the time of a fixed task
measured around it drifts far less (figures in `METRICS.md`).

`HostClock` times a call and scales its wall time to a reference host, one
on which the task takes `REFERENCE_S`. It probes right before and right
after the call and, when sampling, every `SAMPLE_EVERY_S` during it from a
SIGALRM handler, whose own time it takes out of the call's. The task uses
only the standard library, so no change to the program under test moves it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

REFERENCE_S = 0.001     # task time on the reference host; sets the scale
SIDE = 14               # task grid side
REPEATS = 3             # a probe is the median of this many task timings
SAMPLE_EVERY_S = 0.025  # interval of the probes taken during a call


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x, self.y = x, y

    def neighbours(self) -> tuple[tuple[int, int], ...]:
        x, y = self.x, self.y
        return ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))


def _task() -> int:
    """Breadth-first and best-first search over a fixed open grid."""
    cells = {(x, y): _Cell(x, y) for y in range(SIDE) for x in range(SIDE)}
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    for u in frontier:  # grows while iterated
        for w in cells[u].neighbours():
            if w in cells and w not in dist:
                dist[w] = dist[u] + 1
                frontier.append(w)
    heap = [(0, (SIDE - 1, 0))]
    seen: set[tuple[int, int]] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        for w in cells[u].neighbours():
            if w in cells and w not in seen:
                heapq.heappush(heap, (d + 1 + (dist[w] & 1), w))
    return len(seen) + sum(dist.values())


def _timed_task() -> float:
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


def probe() -> float:
    """Median wall time of the task, in seconds; one interrupt does not move it."""
    return statistics.median(_timed_task() for _ in range(REPEATS))


def to_reference(wall: float, probes: list[float]) -> float:
    """`wall` seconds scaled to the reference host by the mean of `probes`."""
    return wall * REFERENCE_S / statistics.fmean(probes)


class HostClock:
    """Context manager that sets `wall_s` and `ref_s` of the block it wraps.

    `wall_s` is the block's wall time less the time spent probing in it,
    `ref_s` that time scaled to the reference host.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.probes: list[float] = []
        self.busy = 0.0
        self.wall_s = self.ref_s = 0.0
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        # the handler stays installed after the block, so that a tick
        # delivered late is dropped here rather than killing the process
        if self._sampling:
            t0 = time.perf_counter()
            self.probes.append(_timed_task())
            self.busy += time.perf_counter() - t0

    def __enter__(self) -> HostClock:
        self.probes, self.busy = [probe()], 0.0
        if self.sample:
            signal.signal(signal.SIGALRM, self._on_alarm)
            self._sampling = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._t0
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sampling = False
        self.probes.append(probe())
        self.wall_s = wall - self.busy
        self.ref_s = to_reference(self.wall_s, self.probes)
