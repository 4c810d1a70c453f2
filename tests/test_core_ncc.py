"""Unit tests for the Node Control Center."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ncc import (
    BlackoutWindow,
    DEFAULT_POLICY,
    NodeControlCenter,
    SharingPolicy,
    VACATE_POLICY,
    thirty_percent_policy,
)
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.sim.events import EventLoop
from repro.sim.machine import ResourceSample


def sample(cpu_owner=0.0, keyboard=False):
    return ResourceSample(
        time=0.0, cpu_total=cpu_owner, cpu_owner=cpu_owner, cpu_grid=0.0,
        mem_used_mb=0.0, mem_owner_mb=0.0, mem_grid_mb=0.0,
        disk_used_mb=0.0, net_owner_mbps=0.0, keyboard_active=keyboard,
    )


class TestBlackoutWindow:
    def test_covers_hours(self):
        window = BlackoutWindow(9.0, 17.0)
        assert window.covers(0, 12.0)
        assert not window.covers(0, 8.0)
        assert not window.covers(0, 17.0)   # end-exclusive

    def test_day_restriction(self):
        window = BlackoutWindow(9.0, 17.0, days=(0, 1))
        assert window.covers(1, 10.0)
        assert not window.covers(4, 10.0)

    @pytest.mark.parametrize("kwargs", [
        {"start_hour": -1.0, "end_hour": 5.0},
        {"start_hour": 5.0, "end_hour": 25.0},
        {"start_hour": 10.0, "end_hour": 9.0},
        {"start_hour": 9.0, "end_hour": 17.0, "days": (7,)},
    ])
    def test_invalid_windows(self, kwargs):
        with pytest.raises(ValueError):
            BlackoutWindow(**kwargs)


class TestSharingPolicy:
    def test_default_policy_is_permissive_when_idle(self):
        assert DEFAULT_POLICY.enabled
        assert DEFAULT_POLICY.cpu_cap_idle == 1.0

    def test_vacate_policy(self):
        assert VACATE_POLICY.vacate_on_owner_return
        assert VACATE_POLICY.cpu_cap_active == 0.0

    def test_thirty_percent_policy_matches_paper_example(self):
        policy = thirty_percent_policy(ram_mb=256.0)
        assert policy.cpu_cap_idle == pytest.approx(0.30)
        assert policy.mem_cap_mb == pytest.approx(128.0)

    @pytest.mark.parametrize("kwargs", [
        {"cpu_cap_idle": 1.5},
        {"cpu_cap_active": -0.1},
        {"mem_cap_mb": -1.0},
        {"idle_owner_cpu_below": 2.0},
    ])
    def test_invalid_policies(self, kwargs):
        with pytest.raises(ValueError):
            SharingPolicy(**kwargs)


class TestNodeControlCenter:
    def test_sharing_now_default(self):
        ncc = NodeControlCenter(EventLoop())
        assert ncc.sharing_now()

    def test_disabled_policy(self):
        ncc = NodeControlCenter(EventLoop(), SharingPolicy(enabled=False))
        assert not ncc.sharing_now()
        ok, reason = ncc.admission_check(False, 0.1)
        assert not ok
        assert "disabled" in reason

    def test_blackout_blocks_sharing(self):
        loop = EventLoop()
        loop.run_until(10 * SECONDS_PER_HOUR)   # Monday 10:00
        policy = SharingPolicy(blackouts=(BlackoutWindow(9.0, 17.0),))
        ncc = NodeControlCenter(loop, policy)
        assert ncc.in_blackout()
        assert not ncc.sharing_now()
        ok, reason = ncc.admission_check(False, 0.1)
        assert not ok and "blackout" in reason

    def test_blackout_respects_day(self):
        saturday_10am = 5 * SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR
        loop = EventLoop()
        loop.run_until(saturday_10am)
        policy = SharingPolicy(
            blackouts=(BlackoutWindow(9.0, 17.0, days=(0, 1, 2, 3, 4)),)
        )
        ncc = NodeControlCenter(loop, policy)
        assert ncc.sharing_now()

    def test_cpu_cap_by_owner_state(self):
        ncc = NodeControlCenter(
            EventLoop(), SharingPolicy(cpu_cap_idle=0.9, cpu_cap_active=0.2)
        )
        assert ncc.cpu_cap(owner_present=False) == 0.9
        assert ncc.cpu_cap(owner_present=True) == 0.2

    def test_admission_respects_cap(self):
        ncc = NodeControlCenter(
            EventLoop(), SharingPolicy(cpu_cap_idle=0.5)
        )
        ok, _ = ncc.admission_check(False, 0.5)
        assert ok
        ok, reason = ncc.admission_check(False, 0.6)
        assert not ok and "exceeds cap" in reason

    def test_admission_zero_active_cap(self):
        ncc = NodeControlCenter(EventLoop(), VACATE_POLICY)
        ok, reason = ncc.admission_check(True, 0.1)
        assert not ok and "owner present" in reason

    def test_should_vacate(self):
        vacate = NodeControlCenter(EventLoop(), VACATE_POLICY)
        share = NodeControlCenter(EventLoop(), DEFAULT_POLICY)
        assert vacate.should_vacate(owner_present=True)
        assert not vacate.should_vacate(owner_present=False)
        assert not share.should_vacate(owner_present=True)

    def test_idleness_definition(self):
        ncc = NodeControlCenter(EventLoop())
        assert ncc.considered_idle(sample(cpu_owner=0.05, keyboard=False))
        assert not ncc.considered_idle(sample(cpu_owner=0.05, keyboard=True))
        assert not ncc.considered_idle(sample(cpu_owner=0.5, keyboard=False))

    def test_custom_idleness_threshold(self):
        ncc = NodeControlCenter(
            EventLoop(),
            SharingPolicy(idle_owner_cpu_below=0.5,
                          idle_requires_no_keyboard=False),
        )
        assert ncc.considered_idle(sample(cpu_owner=0.3, keyboard=True))

    def test_mem_cap(self):
        ncc = NodeControlCenter(
            EventLoop(), SharingPolicy(mem_cap_mb=64.0)
        )
        assert ncc.mem_cap_mb() == 64.0
        assert NodeControlCenter(EventLoop()).mem_cap_mb() is None


MINUTES_PER_DAY = 24 * 60


@st.composite
def blackout_windows(draw):
    """A window on whole minutes, any hour of the day incl. 24:00."""
    start = draw(st.integers(0, MINUTES_PER_DAY - 1))
    end = draw(st.integers(start + 1, MINUTES_PER_DAY))
    days = draw(st.one_of(
        st.just(()), st.sets(st.integers(0, 6), min_size=1).map(
            lambda chosen: tuple(sorted(chosen)))))
    return BlackoutWindow(start / 60.0, end / 60.0, days=days)


class TestNextSharingChange:
    def ncc(self, *windows, enabled=True):
        return NodeControlCenter(
            EventLoop(), SharingPolicy(enabled=enabled, blackouts=windows))

    def test_never_without_blackouts_or_when_disabled(self):
        assert self.ncc().next_sharing_change(123.0) == math.inf
        window = BlackoutWindow(9.0, 17.0)
        assert self.ncc(window, enabled=False) \
            .next_sharing_change(0.0) == math.inf

    def test_never_when_the_week_is_blacked_out(self):
        assert self.ncc(BlackoutWindow(0.0, 24.0)) \
            .next_sharing_change(5000.0) == math.inf

    def test_start_then_end_then_tomorrow(self):
        ncc = self.ncc(BlackoutWindow(9.0, 17.0))
        assert ncc.next_sharing_change(0.0) == 9 * SECONDS_PER_HOUR
        assert ncc.next_sharing_change(9 * SECONDS_PER_HOUR) \
            == 17 * SECONDS_PER_HOUR
        assert ncc.next_sharing_change(17 * SECONDS_PER_HOUR) \
            == SECONDS_PER_DAY + 9 * SECONDS_PER_HOUR

    def test_adjoining_windows_are_one_blackout(self):
        # 22:00-24:00 Monday runs straight into 00:00-06:00 Tuesday.
        ncc = self.ncc(BlackoutWindow(22.0, 24.0, days=(0,)),
                       BlackoutWindow(0.0, 6.0, days=(1,)))
        assert ncc.next_sharing_change(0.0) == 22 * SECONDS_PER_HOUR
        assert ncc.next_sharing_change(23 * SECONDS_PER_HOUR) \
            == SECONDS_PER_DAY + 6 * SECONDS_PER_HOUR

    def test_week_wrap(self):
        # Sunday evening, next blackout Monday morning of the next week.
        ncc = self.ncc(BlackoutWindow(8.0, 9.0, days=(0,)))
        sunday_evening = 6 * SECONDS_PER_DAY + 20 * SECONDS_PER_HOUR
        assert ncc.next_sharing_change(sunday_evening) \
            == SECONDS_PER_WEEK + 8 * SECONDS_PER_HOUR
        # ... and from just after it, a whole week ahead.
        assert ncc.next_sharing_change(9 * SECONDS_PER_HOUR) \
            == SECONDS_PER_WEEK + 8 * SECONDS_PER_HOUR

    def test_is_pure(self):
        ncc = self.ncc(BlackoutWindow(9.0, 17.0))
        assert ncc.next_sharing_change(100.0) == ncc.next_sharing_change(100.0)
        assert ncc._loop.now == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        windows=st.lists(blackout_windows(), min_size=1, max_size=3),
        now=st.one_of(
            st.integers(0, 3 * 7 * MINUTES_PER_DAY).map(lambda m: m * 60.0),
            st.floats(0.0, 3.0 * SECONDS_PER_WEEK),
        ),
    )
    def test_agrees_with_a_minute_scan_of_in_blackout(self, windows, now):
        ncc = self.ncc(*windows)
        current = ncc.sharing_now(now)
        expected = math.inf
        minute = int(now // 60) + 1
        for m in range(minute, minute + 8 * MINUTES_PER_DAY + 1):
            if ncc.sharing_now(m * 60.0) != current:
                expected = m * 60.0
                break
        edge = ncc.next_sharing_change(now)
        assert edge == pytest.approx(expected, abs=1e-6)
        if edge < math.inf:
            # The first instant of the new state, by the predicate itself.
            assert edge > now
            assert ncc.sharing_now(edge) != current
            before = math.nextafter(edge, 0.0)
            assert before <= now or ncc.sharing_now(before) == current
