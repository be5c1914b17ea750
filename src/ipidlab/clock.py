"""Tick clocks: a real monotonic clock and a virtual clock for tests.

Timestamps are stored as 32-bit wrapping tick counts; elapsed-time
comparisons must go through :func:`tick_elapsed`, which is wrap-aware.
The default tick rate is 300 ticks/s, i.e. 3 ticks per 10 ms unit time.
"""
from __future__ import annotations

import time

from .constants import TICK_MASK

DEFAULT_TICK_RATE_HZ = 300
DEFAULT_TICKS_PER_UNIT_TIME = 3


def tick_elapsed(earlier: int, later: int) -> int:
    """Elapsed ticks from ``earlier`` to ``later`` across 32-bit wrap."""
    return (later - earlier) & TICK_MASK


class VirtualClock:
    """Deterministic clock for tests: time moves only via advance()."""

    def __init__(self, start: int = 0, tick_rate_hz: int = DEFAULT_TICK_RATE_HZ):
        if tick_rate_hz <= 0:
            raise ValueError("tick_rate_hz must be positive")
        self._now = start & TICK_MASK
        self.tick_rate_hz = tick_rate_hz

    def now(self) -> int:
        return self._now

    def advance(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        self._now = (self._now + ticks) & TICK_MASK

    def advance_seconds(self, seconds: float) -> None:
        self.advance(self.seconds_to_ticks(seconds))

    def seconds_to_ticks(self, seconds: float) -> int:
        return int(round(seconds * self.tick_rate_hz))


class MonotonicClock:
    """Wall clock quantized to ticks, wrapping at 32 bits."""

    def __init__(self, tick_rate_hz: int = DEFAULT_TICK_RATE_HZ):
        self.tick_rate_hz = tick_rate_hz

    def now(self) -> int:
        return int(time.monotonic() * self.tick_rate_hz) & TICK_MASK

    def seconds_to_ticks(self, seconds: float) -> int:
        return int(round(seconds * self.tick_rate_hz))
