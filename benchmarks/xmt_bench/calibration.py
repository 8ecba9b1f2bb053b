"""Host speed-state correction for a shared sandbox.

The 2-vCPU sandbox switches between two speed states every few tens of
seconds (a fixed pure-Python loop takes 4.1 ms in one and 5.2 ms in the
other, with identical user CPU time and no page faults, GC or context
switches to explain it), so whole 10-second runs land 25-30 % apart and
no statistic over the rounds inside one run can tell a slow commit from
a slow minute.  A tiny interpreter-bound loop timed right before and
right after a piece of work tracks the state well enough to divide it
out: on ``kernels_functional`` the spread of run medians drops from
22 % to about 2 %.  The loop shares no code with the repository, so a
change to the toolchain cannot move it.

Times reported by the benchmark are therefore *calibrated seconds*:
wall seconds x (``REFERENCE_S`` / measured spin seconds).  With the
sandbox in its usual state the factor is close to 1.  The raw wall time
of every round is kept beside it as ``wall_s``.
"""

from __future__ import annotations

import time

#: what one spin takes on the sandbox in its common (slower) state
REFERENCE_S = 0.0050
_SPIN_STEPS = 60_000
_SPINS = 5


class _Cell:
    __slots__ = ("total", "table")

    def __init__(self):
        self.total = 0
        self.table = {}

    def step(self, i: int) -> None:
        self.total += i & 7
        self.table[i & 63] = self.total


def spin_seconds() -> float:
    """Fastest of a few runs of the calibration loop: method calls,
    attribute updates, small-int arithmetic and dict stores -- the
    interpreter work the simulator and compiler are made of."""
    best = float("inf")
    for _ in range(_SPINS):
        step = _Cell().step
        start = time.perf_counter()
        for i in range(_SPIN_STEPS):
            step(i)
        best = min(best, time.perf_counter() - start)
    return best


def timed(fn):
    """Run ``fn()`` between two calibrations.  Returns ``(result, wall
    seconds, scale)``; ``wall * scale`` is the calibrated time."""
    before = spin_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = spin_seconds()
    return result, wall, REFERENCE_S / ((before + after) / 2)
