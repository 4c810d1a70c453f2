"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.events import EventLoop


def test_schedule_and_run():
    loop = EventLoop()
    fired = []
    loop.schedule(5.0, lambda: fired.append(loop.now))
    loop.run()
    assert fired == [5.0]
    assert loop.now == 5.0
    assert loop.events_fired == 1


def test_run_on_an_empty_loop_fires_nothing():
    loop = EventLoop()
    loop.run()
    assert loop.events_fired == 0
    assert loop.now == 0.0


def test_now_stays_a_float():
    loop = EventLoop()
    seen = []
    loop.schedule_at(3, lambda: seen.append(type(loop.now)))
    loop.run_until(5)
    assert seen == [float]
    assert type(loop.now) is float
    loop.run_for(2)
    assert type(loop.now) is float


def test_events_fire_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule(3.0, lambda: order.append("c"))
    loop.schedule(1.0, lambda: order.append("a"))
    loop.schedule(2.0, lambda: order.append("b"))
    loop.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    loop = EventLoop()
    order = []
    for label in "abcde":
        loop.schedule(1.0, lambda lab=label: order.append(lab))
    loop.run()
    assert order == list("abcde")


def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.schedule_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        EventLoop().schedule(-1.0, lambda: None)


def test_cancel_prevents_firing():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    loop.run()
    assert fired == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    handle = loop.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    loop.run()


def test_run_until_stops_at_boundary():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(2.0, lambda: fired.append(2))
    loop.schedule(3.0, lambda: fired.append(3))
    loop.run_until(2.0)
    assert fired == [1, 2]
    assert loop.now == 2.0
    loop.run()
    assert fired == [1, 2, 3]


def test_run_until_advances_clock_even_without_events():
    loop = EventLoop()
    loop.run_until(100.0)
    assert loop.now == 100.0


def test_run_for_is_relative():
    loop = EventLoop()
    loop.run_until(10.0)
    loop.run_for(5.0)
    assert loop.now == 15.0


def test_events_scheduled_during_run_fire():
    loop = EventLoop()
    fired = []

    def first():
        loop.schedule(1.0, lambda: fired.append("second"))
        fired.append("first")

    loop.schedule(1.0, first)
    loop.run()
    assert fired == ["first", "second"]


def test_runaway_guard():
    loop = EventLoop()

    def rearm():
        loop.schedule(1.0, rearm)

    loop.schedule(1.0, rearm)
    with pytest.raises(RuntimeError):
        loop.run(max_events=100)
    assert loop.events_fired == 100
    assert loop.now == 100.0


def test_periodic_task_fires_repeatedly():
    loop = EventLoop()
    ticks = []
    loop.every(10.0, lambda: ticks.append(loop.now))
    loop.run_until(35.0)
    assert ticks == [10.0, 20.0, 30.0]


def test_periodic_task_start_after():
    loop = EventLoop()
    ticks = []
    loop.every(10.0, lambda: ticks.append(loop.now), start_after=0.0)
    loop.run_until(25.0)
    assert ticks == [0.0, 10.0, 20.0]


def test_periodic_task_stop():
    loop = EventLoop()
    ticks = []
    task = loop.every(10.0, lambda: ticks.append(loop.now))
    loop.run_until(25.0)
    task.stop()
    loop.run_until(100.0)
    assert ticks == [10.0, 20.0]
    assert task.stopped


def test_periodic_task_can_stop_itself():
    loop = EventLoop()
    ticks = []

    def tick():
        ticks.append(loop.now)
        if len(ticks) == 2:
            task.stop()

    task = loop.every(1.0, tick)
    loop.run()
    assert ticks == [1.0, 2.0]


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        EventLoop().every(0.0, lambda: None)


def test_events_fired_counter():
    loop = EventLoop()
    for _ in range(4):
        loop.schedule(1.0, lambda: None)
    loop.run()
    assert loop.events_fired == 4


def test_pending_counts_live_events_only():
    loop = EventLoop()
    handles = [loop.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert loop.pending == 10
    assert loop.raw_heap_size == 10
    handles[0].cancel()
    handles[1].cancel()
    # Cancelled entries are tombstones: still in the heap, not pending.
    assert loop.pending == 8
    assert loop.raw_heap_size >= 8
    loop.run()
    assert loop.pending == 0
    assert loop.raw_heap_size == 0


def test_tombstones_compact_when_they_dominate():
    loop = EventLoop()
    fired = []
    handles = [
        loop.schedule(float(i + 1), lambda i=i: fired.append(i))
        for i in range(100)
    ]
    for handle in handles[:80]:
        handle.cancel()
    # Once cancellations outnumber live entries the heap is compacted,
    # so the raw size tracks the live count instead of growing unbounded.
    assert loop.pending == 20
    assert loop.raw_heap_size < 100
    loop.run()
    assert fired == list(range(80, 100))


def test_pending_tracks_periodic_tasks():
    loop = EventLoop()
    task = loop.every(10.0, lambda: None)
    assert loop.pending == 1      # exactly one queued occurrence at a time
    loop.run_until(35.0)
    assert loop.pending == 1
    task.stop()
    loop.run_until(100.0)
    assert loop.pending == 0
