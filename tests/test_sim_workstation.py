"""Unit tests for the workstation owner-activity model."""

import random

import pytest

from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import ALWAYS_IDLE, ERRATIC, OFFICE_WORKER
from repro.sim.workstation import Workstation


def make_ws(profile=OFFICE_WORKER, seed=1, **kwargs):
    loop = EventLoop()
    ws = Workstation(
        loop,
        "ws0",
        spec=MachineSpec(mips=1000.0, ram_mb=256.0),
        profile=profile,
        rng=random.Random(seed),
        **kwargs,
    )
    return loop, ws


def test_always_idle_never_present():
    loop, ws = make_ws(profile=ALWAYS_IDLE)
    loop.run_until(SECONDS_PER_WEEK)
    assert not ws.owner_present
    assert ws.machine.owner_cpu == 0.0


def test_office_worker_shows_up_during_the_day():
    loop, ws = make_ws(profile=OFFICE_WORKER)
    present_samples = 0
    total = 0
    # Sample Tuesday 9h-18h over several weeks.
    for week in range(4):
        start = week * SECONDS_PER_WEEK + SECONDS_PER_DAY + 9 * SECONDS_PER_HOUR
        for offset in range(0, 9 * SECONDS_PER_HOUR, 1800):
            loop.run_until(start + offset)
            total += 1
            present_samples += ws.owner_present
    assert present_samples / total > 0.5


def test_office_worker_rarely_present_at_night():
    loop, ws = make_ws(profile=OFFICE_WORKER)
    present = 0
    total = 0
    for week in range(4):
        start = week * SECONDS_PER_WEEK + 2 * SECONDS_PER_HOUR
        for offset in range(0, 3 * SECONDS_PER_HOUR, 1800):
            loop.run_until(start + offset)
            total += 1
            present += ws.owner_present
    assert present / total < 0.2


def test_presence_drives_machine_load():
    loop, ws = make_ws(profile=ERRATIC)
    saw_loaded = False
    saw_unloaded = False
    for tick in range(500):
        loop.run_until(tick * ws.tick_seconds)   # one owner tick per pass
        if ws.owner_present:
            saw_loaded = saw_loaded or ws.machine.owner_cpu > 0
            assert ws.machine.keyboard_active
        else:
            saw_unloaded = True
            assert ws.machine.owner_cpu == 0.0
    assert saw_loaded and saw_unloaded


def test_owner_change_listener_fires_on_transitions():
    loop, ws = make_ws(profile=ERRATIC)
    transitions = []
    ws.on_owner_change(transitions.append)
    loop.run_until(2 * SECONDS_PER_DAY)
    assert transitions, "erratic owner should come and go within two days"
    # Transitions must alternate: arrive, leave, arrive...
    for a, b in zip(transitions, transitions[1:]):
        assert a != b


def test_deterministic_given_seed():
    loop1, ws1 = make_ws(seed=7)
    loop2, ws2 = make_ws(seed=7)
    history1, history2 = [], []
    ws1.on_owner_change(lambda p: history1.append((loop1.now, p)))
    ws2.on_owner_change(lambda p: history2.append((loop2.now, p)))
    loop1.run_until(SECONDS_PER_WEEK)
    loop2.run_until(SECONDS_PER_WEEK)
    assert history1 == history2
    assert history1


def test_different_seeds_diverge():
    loop1, ws1 = make_ws(seed=1)
    loop2, ws2 = make_ws(seed=2)
    h1, h2 = [], []
    ws1.on_owner_change(lambda p: h1.append((loop1.now, p)))
    ws2.on_owner_change(lambda p: h2.append((loop2.now, p)))
    loop1.run_until(SECONDS_PER_WEEK)
    loop2.run_until(SECONDS_PER_WEEK)
    assert h1 != h2


def test_stop_detaches_from_loop():
    loop, ws = make_ws(profile=ERRATIC)
    loop.run_until(SECONDS_PER_DAY)
    ws.stop()
    fired_before = loop.events_fired
    loop.run_until(2 * SECONDS_PER_DAY)
    assert loop.events_fired == fired_before


def test_holidays_suppress_presence():
    loop, ws = make_ws(profile=OFFICE_WORKER, holidays={1})  # Tuesday of week 0
    tuesday_noon = SECONDS_PER_DAY + 12 * SECONDS_PER_HOUR
    assert ws.is_holiday(tuesday_noon)
    assert ws.true_mean_presence(tuesday_noon) < 0.05
    wednesday_morning = 2 * SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR
    assert not ws.is_holiday(wednesday_morning)
    assert ws.true_mean_presence(wednesday_morning) > 0.8


def test_true_mean_presence_matches_profile():
    loop, ws = make_ws(profile=OFFICE_WORKER)
    when = SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR  # Tuesday 10:00
    assert ws.true_mean_presence(when) == pytest.approx(
        OFFICE_WORKER.mean_presence(1, 10.0)
    )
