"""A fixed pure-Python task that gauges how fast the machine runs Python code
at the moment, so that timings taken minutes apart on a shared host can be
compared.

On a host shared with other tenants the same pass of the same commands can
take 30% longer from one minute to the next, and that drift moves every
timing of a run alike. The benchmark runs reference() before and after every
timed command and scales the command's wall time by REF_S over the mean of
those two reference times: the result is the command's time at the speed at
which reference() takes REF_S seconds. The task uses only the standard
library, never forkfleet, so a change to the program cannot move it; its mix
(a heap, dict updates, float arithmetic, small objects, number formatting
and parsing, a sort) is that of the program's own hot loops.
"""

from __future__ import annotations

import gc
import heapq
import math
import time

# Seconds reference() took, as a median, on the 2-core x86-64 sandbox the
# benchmark was written on. Only the ratio to it matters: it sets the speed
# that scaled times are quoted at.
REF_S = 0.1


class _Point:
    __slots__ = ("t", "x", "y", "s")

    def __init__(self, t, x, y):
        self.t, self.x, self.y, self.s = t, x, y, 0.0


def reference():
    """Run the fixed task once -> wall seconds. The garbage collector is off
    meanwhile, so the program's live objects do not add to its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _task()
    finally:
        if enabled:
            gc.enable()


def _task():
    t0 = time.perf_counter()
    heap, sums = [], {}
    for i in range(30000):
        x = (i * 2654435761) % 1000003
        heapq.heappush(heap, (x, i))
        sums[x % 4099] = sums.get(x % 4099, 0.0) + math.sqrt(x) * 0.5
        if len(heap) > 512:
            heapq.heappop(heap)
    pts = [_Point(i * 0.1, (i * 7919) % 1000 * 0.01, (i * 104729) % 1000 * 0.01)
           for i in range(12000)]
    for a, b in zip(pts, pts[1:]):
        b.s = a.s + math.hypot(b.x - a.x, b.y - a.y)
    rows = [tuple(map(float, f"{q.t:.6f},{q.x:.6f},{q.s:.6f}".split(","))) for q in pts]
    rows.sort(key=lambda r: r[2])
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` of wall time, taken between reference times `before` and
    `after`, as seconds at the reference speed."""
    return seconds * REF_S / ((before + after) / 2)
