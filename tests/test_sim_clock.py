"""Unit tests for simulated time: the loop's clock and the calendar helpers."""

import pytest

from repro.sim.clock import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    day_of_week,
    hour_of_day,
    second_of_day,
)
from repro.sim.events import EventLoop


def test_starts_at_epoch_by_default():
    assert EventLoop().now == 0.0


def test_custom_start():
    loop = EventLoop()
    loop.run_until(100.0)
    assert loop.now == 100.0


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        EventLoop().schedule_at(-1.0, lambda: None)


def test_advance_to_moves_forward():
    loop = EventLoop()
    loop.run_until(42.0)
    assert loop.now == 42.0


def test_advance_backwards_rejected():
    loop = EventLoop()
    loop.run_until(10.0)
    with pytest.raises(ValueError):
        loop.schedule_at(5.0, lambda: None)
    loop.run_until(5.0)
    assert loop.now == 10.0


def test_advance_to_same_time_is_ok():
    loop = EventLoop()
    loop.run_until(10.0)
    loop.schedule_at(10.0, lambda: None)
    loop.run_until(10.0)
    assert loop.now == 10.0
    assert loop.events_fired == 1


def test_epoch_is_monday_midnight():
    assert day_of_week(0.0) == 0
    assert hour_of_day(0.0) == 0.0
    assert second_of_day(0.0) == 0.0


def test_day_of_week_cycles():
    assert day_of_week(5 * SECONDS_PER_DAY) == 5    # saturday
    assert day_of_week(7 * SECONDS_PER_DAY) == 0    # monday again


def test_hour_of_day():
    assert hour_of_day(13.5 * SECONDS_PER_HOUR) == pytest.approx(13.5)


def test_second_of_day_wraps():
    assert second_of_day(SECONDS_PER_DAY + 61.0) == pytest.approx(61.0)


def test_week_index():
    # The calendar repeats every week: week 3 starts on a Monday midnight.
    t = 3 * SECONDS_PER_WEEK + 5
    assert day_of_week(t) == 0
    assert second_of_day(t) == pytest.approx(5.0)


def test_is_weekend():
    assert day_of_week(0.0) < 5
    assert day_of_week(5 * SECONDS_PER_DAY) >= 5
    assert day_of_week(6 * SECONDS_PER_DAY) >= 5
    assert day_of_week(7 * SECONDS_PER_DAY) < 5


def test_helpers_accept_explicit_when():
    loop = EventLoop()
    assert day_of_week(2 * SECONDS_PER_DAY) == 2
    assert hour_of_day(6 * SECONDS_PER_HOUR) == pytest.approx(6.0)
    assert hour_of_day(loop.now) == 0.0
    # reading the calendar does not move the clock
    assert loop.now == 0.0
