"""Tick clocks: a real monotonic clock and a virtual clock for tests.

A clock only tells time (``now()``), in 32-bit wrapping tick counts at
``TICK_RATE_HZ`` = 300 ticks/s, i.e. 3 ticks per 10 ms unit time.
Elapsed-time comparisons must go through :func:`tick_elapsed`, which is
wrap-aware.
"""
from __future__ import annotations

import time

from .constants import TICK_MASK

TICK_RATE_HZ = 300
DEFAULT_TICKS_PER_UNIT_TIME = 3
UNIT_TIME_S = DEFAULT_TICKS_PER_UNIT_TIME / TICK_RATE_HZ  # exactly the double 0.01


def tick_elapsed(earlier: int, later: int) -> int:
    """Elapsed ticks from ``earlier`` to ``later`` across 32-bit wrap."""
    return (later - earlier) & TICK_MASK


def seconds_to_ticks(seconds: float) -> int:
    """A duration in whole ticks, rounded to the nearest."""
    return int(round(seconds * TICK_RATE_HZ))


class VirtualClock:
    """Deterministic clock for tests: time moves only via advance()."""

    def __init__(self, start: int = 0):
        self._now = start & TICK_MASK

    def now(self) -> int:
        return self._now

    def advance(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        self._now = (self._now + ticks) & TICK_MASK

    def advance_seconds(self, seconds: float) -> None:
        self.advance(seconds_to_ticks(seconds))


class MonotonicClock:
    """Wall clock quantized to ticks, wrapping at 32 bits."""

    def now(self) -> int:
        return int(time.monotonic() * TICK_RATE_HZ) & TICK_MASK
