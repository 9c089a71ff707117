"""Machine-speed probe: a fixed pure-Python kernel timed next to each operation.

On a shared host the speed of one core drifts by a third within a minute, in
steps that last seconds to tens of seconds, and every timing follows it. The
benchmark times this kernel before and after each operation and set-up, and
scales the operation's wall time by NOMINAL_S over the mean of those two probe
times: an op's time as it would read at the probe's nominal speed. The kernel
is part of the benchmark, not of placement_opt, so a change to the program
cannot change it. Raw wall times are kept beside the scaled ones.
"""

from __future__ import annotations

import heapq
import time

# Median time of `kernel()` on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.
NOMINAL_S = 0.013
_N = 6000
_SUCC = [[(i * 7 + k) % _N for k in (1, 3)] for i in range(_N)]


def kernel() -> int:
    """Dijkstra over a fixed sparse graph: heap, dict, list and float work,
    the kind of code the simulator and min-cut spend their time in."""
    dist = {}
    heap = [(0.0, 0)]
    while heap:
        t, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = t
        for w in _SUCC[v]:
            if w not in dist:
                heapq.heappush(heap, (t + ((v * 31 + w) % 17) * 0.5, w))
    return len(dist)


def probe() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(raw: list[float], probes: list[float]) -> list[float]:
    """raw[i] at nominal speed, given probes[i] before and probes[i+1] after it."""
    return [t * NOMINAL_S * 2.0 / (probes[i] + probes[i + 1]) for i, t in enumerate(raw)]
