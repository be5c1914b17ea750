import pytest

from ipidlab.clock import MonotonicClock, VirtualClock, seconds_to_ticks, tick_elapsed
from ipidlab.constants import TICK_MASK


def test_virtual_clock_advances_explicitly():
    clock = VirtualClock()
    assert clock.now() == 0
    clock.advance(5)
    assert clock.now() == 5
    clock.advance(0)
    assert clock.now() == 5


def test_virtual_clock_seconds_conversion():
    assert seconds_to_ticks(0.5) == 150
    assert seconds_to_ticks(60) == 18000
    clock = VirtualClock()
    clock.advance_seconds(1.0)
    assert clock.now() == 300


def test_virtual_clock_wraps_at_32_bits():
    clock = VirtualClock(start=TICK_MASK)
    clock.advance(2)
    assert clock.now() == 1


def test_tick_elapsed_wrap_aware():
    assert tick_elapsed(10, 15) == 5
    assert tick_elapsed(TICK_MASK, 4) == 5  # across the wrap
    assert tick_elapsed(7, 7) == 0


def test_virtual_clock_rejects_negative_advance():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1)


def test_monotonic_clock_non_decreasing():
    clock = MonotonicClock()
    reads = [clock.now() for _ in range(100)]
    for earlier, later in zip(reads, reads[1:]):
        # wrap-aware elapsed is tiny for adjacent reads
        assert tick_elapsed(earlier, later) < 1000
