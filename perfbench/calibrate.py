"""Calibrated timing: raw seconds scaled by a CPU burst run next to each unit.

A shared two-vCPU machine runs the same analysis at visibly different speeds
from one minute to the next.  Every timed unit (a row, a request, a set-up
step) is therefore bracketed by a fixed integer loop, run while the program
under test is idle, and its raw time is scaled by how fast that loop ran:

    calibrated = raw * REFERENCE_BURST_S / min(burst before, burst after)

The loop imports nothing from ``repro``, allocates no GC-tracked objects
(only ints) and runs with the garbage collector paused, so it measures the
CPU speed the process gets, not the state of the heap.

The faster of the two bursts is used because interference from other
tenants only ever slows a burst down, and on the reference machine it comes
in episodes of about a tenth of a second: one burst caught in such an
episode says little about a unit that runs for half a second, and averaging
it in made the spread of ten runs wider than raw seconds did.  The faster
burst tracks the speed the machine offers around the unit.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

#: Iterations of one burst: 10 to 17 ms on the reference machine.
BURST_ITERATIONS = 100_000

#: The faster burst's median time on the reference machine (a 2-vCPU Linux
#: container, CPython 3.11).  Calibrated seconds are seconds on that machine.
REFERENCE_BURST_S = 0.0101

T = TypeVar("T")


def burst() -> float:
    """Run the fixed integer loop once; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        value = 0
        start = time.perf_counter()
        for step in range(BURST_ITERATIONS):
            value = (value * 1103515245 + step) & 0xFFFFFFFF
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Sample:
    """One timed unit: its raw seconds and the bursts run next to it."""

    raw_s: float
    burst_before_s: float
    burst_after_s: float

    @property
    def factor(self) -> float:
        return REFERENCE_BURST_S / min(self.burst_before_s, self.burst_after_s)

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.factor

    def to_dict(self) -> dict:
        return {
            "raw_s": self.raw_s,
            "burst_before_s": self.burst_before_s,
            "burst_after_s": self.burst_after_s,
            "factor": self.factor,
            "calibrated_s": self.calibrated_s,
        }


def measure(unit: Callable[[], T]) -> tuple[T, Sample]:
    """Run ``unit`` between two bursts and return its result and sample."""
    before = burst()
    start = time.perf_counter()
    result = unit()
    raw = time.perf_counter() - start
    return result, Sample(raw, before, burst())
