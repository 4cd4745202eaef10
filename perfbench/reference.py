"""A fixed reference kernel that tells how fast the machine runs right now.

The CPU of a shared virtual machine switches between a fast state and one
1.5 to 1.8 times slower, for stretches of a fraction of a second up to
minutes (a neighbour on the same physical core, most likely; CPU time moves
with wall time, so it is not time spent descheduled).  A run can fall
wholly in either state, so raw times of the same code differ by that factor
from run to run.

The benchmark therefore times this kernel right before and after each unit
of work and scales the unit's time by ``NOMINAL_S`` over the kernel's mean
time: the result is the time the unit would take on a machine on which the
kernel takes ``NOMINAL_S``.  The kernel does what srcpsp spends its time
on (heap pushes and pops, tuple building, dict stores, a sort), so the two
slow down alike.  It never touches srcpsp, so a change to srcpsp cannot
move it.
"""

from __future__ import annotations

import heapq
import random
import time

NOMINAL_S = 0.002  # about the kernel's time in the fast state of a 2.1 GHz Xeon vCPU
ITEMS = 2000


def kernel() -> list[tuple[float, int, int]]:
    rng = random.Random(7)
    heap: list[tuple[float, int, int]] = []
    seen: dict[tuple[int, int], tuple[float, int, int]] = {}
    for i in range(ITEMS):
        item = (rng.random(), i, i * 7 % 13)
        heapq.heappush(heap, item)
        seen[item[1:]] = item
        if len(heap) > 50:
            heapq.heappop(heap)
    return sorted(seen.values())[:5]


def seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
