"""A fixed pure-Python reference load that gauges the machine's speed
at the moment.

On a shared 2-vCPU machine the time of one fixed piece of Python work
moves by up to 1.8 times within a minute, and the process's CPU time
moves with it, so neither wall nor CPU time alone tells a slower
program from a busier host. ``kernel`` is a memoised search over packed
integer states, with generators, shifts and dict and set traffic, the
kind of work rescheck's solvers do; it imports nothing from rescheck,
so no change to the program under test changes its cost. run.py times
it right before and right after each timed request and set-up and
reports the request's time scaled by ``REFERENCE_S / kernel time``: the
time the request would have taken had the kernel run in REFERENCE_S.
"""

from __future__ import annotations

import gc
import time

# About the kernel's time between requests on a 2-vCPU cloud machine
# (Python 3.11); a unit, so that scaled times still read as seconds.
REFERENCE_S = 0.001
BITS = 6
FULL = (1 << BITS) - 1
_MASKS = tuple((i * 2654435761 >> 7) & FULL for i in range(10))


def kernel() -> int:
    """Count the ways to cover a BITS-bit target with two disjoint groups
    drawn from _MASKS in order, memoised on (index, packed state)."""
    memo: dict[tuple[int, int], int] = {}
    seen: set[int] = set()

    def moves(state: int, mask: int):
        for j in range(2):
            shift = j * BITS
            demand = state >> shift & FULL
            if demand & mask:
                yield state - (demand << shift) + ((demand & ~mask) << shift)

    def count(i: int, state: int) -> int:
        if state == 0:
            return 1
        if i == len(_MASKS):
            return 0
        key = (i, state)
        cached = memo.get(key)
        if cached is not None:
            return cached
        seen.add(state)
        total = count(i + 1, state)
        for child in moves(state, _MASKS[i]):
            total += count(i + 1, child)
        memo[key] = total
        return total

    return count(0, FULL | FULL << BITS) + len(seen)


def measure() -> float:
    """Seconds one kernel call takes now. The collector is off meanwhile,
    so that the garbage the measured work left behind does not add to the
    kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
