"""Host speed reference for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed switches by
tens of percent every few seconds, as other tenants come and go.  A
slow spell can last a whole benchmark run and cannot be averaged away
inside it, so the run also times a fixed reference loop, interleaved
with its repetitions, and scales its timings to a host on which that
loop takes ``REFERENCE_S``.

The loop is a small loss-network simulation written in the same style
as the program (``__slots__`` objects, a ``heapq`` event list, seeded
``random`` draws, per-hop capacity checks), so contention slows both by
about the same factor.  It is part of the benchmark and must never
change: its time is the yardstick every later measurement is scaled by.
"""

from __future__ import annotations

import heapq
import random
import time

#: Reference loop time the scaled timings are quoted for.  Any constant
#: works; this one is close to the loop's time on a quiet 2-vCPU VM, so
#: scaled and raw figures are of the same size.
REFERENCE_S = 0.030
#: Arrivals per call; about 30 ms of work.
ARRIVALS = 10_000
#: Flows the loop admits; fixed, so every call does the same work.
EXPECTED_ADMITTED = 6250

LINKS = 64
PATHS = tuple(tuple((p * 7 + hop * 13) % LINKS for hop in range(4)) for p in range(40))


class _Flow:
    __slots__ = ("path", "bandwidth")

    def __init__(self, path: tuple[int, ...], bandwidth: float) -> None:
        self.path = path
        self.bandwidth = bandwidth


def reference_loop() -> float:
    """Wall time of one pass of the fixed reference simulation.

    Poisson arrivals at 50/s with 180 s holding times on 64 links of
    capacity 300, each trying up to three random 4-hop paths.
    """
    rng = random.Random(7)
    free = [300.0] * LINKS
    departures: list[tuple[float, int, _Flow]] = []
    now = 0.0
    admitted = 0
    start = time.perf_counter()
    for _ in range(ARRIVALS):
        now += rng.expovariate(50.0)
        while departures and departures[0][0] <= now:
            flow = heapq.heappop(departures)[2]
            for link in flow.path:
                free[link] += flow.bandwidth
        for _attempt in range(3):
            path = PATHS[rng.randrange(len(PATHS))]
            if min(free[link] for link in path) >= 1.0:
                flow = _Flow(path, 1.0)
                for link in path:
                    free[link] -= 1.0
                admitted += 1
                heapq.heappush(departures, (now + rng.expovariate(1 / 180.0), admitted, flow))
                break
    elapsed = time.perf_counter() - start
    if admitted != EXPECTED_ADMITTED:
        raise RuntimeError(f"reference loop admitted {admitted}, not {EXPECTED_ADMITTED}")
    return elapsed
