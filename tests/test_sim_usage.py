"""Unit tests for the synthetic usage profiles."""

import pytest

from repro.sim.usage import (
    ALWAYS_IDLE,
    ERRATIC,
    NIGHT_OWL,
    OFFICE_WORKER,
    PROFILES,
    STUDENT_LAB,
    UsageProfile,
)


class TestOfficeWorker:
    def test_busy_during_working_hours(self):
        assert OFFICE_WORKER.mean_presence(1, 10.0) > 0.8

    def test_lunch_dip(self):
        lunch = OFFICE_WORKER.mean_presence(1, 12.5)
        morning = OFFICE_WORKER.mean_presence(1, 10.0)
        assert lunch < morning / 2

    def test_idle_at_night(self):
        assert OFFICE_WORKER.mean_presence(1, 3.0) < 0.1

    def test_idle_on_weekend(self):
        assert OFFICE_WORKER.mean_presence(5, 10.0) < 0.1
        assert OFFICE_WORKER.mean_presence(6, 10.0) < 0.1

    def test_holiday_discount(self):
        normal = OFFICE_WORKER.mean_presence(1, 10.0)
        holiday = OFFICE_WORKER.mean_presence(1, 10.0, holiday=True)
        assert holiday < normal * 0.1


class TestOtherProfiles:
    def test_night_owl_peaks_at_night(self):
        assert NIGHT_OWL.mean_presence(2, 22.0) > NIGHT_OWL.mean_presence(2, 14.0)

    def test_night_owl_wraps_midnight(self):
        assert NIGHT_OWL.mean_presence(2, 1.0) > 0.5

    def test_always_idle_is_always_idle(self):
        for day in range(7):
            for hour in (0.0, 6.0, 12.0, 18.0, 23.5):
                assert ALWAYS_IDLE.mean_presence(day, hour) == 0.0

    def test_erratic_is_flat(self):
        values = {
            ERRATIC.mean_presence(d, h)
            for d in range(7)
            for h in (0.0, 8.0, 16.0)
        }
        assert len(values) == 1

    def test_student_lab_open_long_hours(self):
        assert STUDENT_LAB.mean_presence(3, 21.0) > 0.5
        assert STUDENT_LAB.mean_presence(3, 23.5) < 0.1


class TestTransitionProbs:
    def test_stationary_distribution_matches_mean(self):
        for mean in (0.1, 0.5, 0.9):
            p_on, p_off = OFFICE_WORKER.transition_probs(mean, tick_minutes=5.0)
            stationary = p_on / (p_on + p_off)
            assert stationary == pytest.approx(mean, rel=1e-6)

    def test_zero_mean_never_arrives(self):
        p_on, p_off = OFFICE_WORKER.transition_probs(0.0, 5.0)
        assert p_on == 0.0
        assert p_off == 1.0

    def test_full_mean_never_leaves(self):
        p_on, p_off = OFFICE_WORKER.transition_probs(1.0, 5.0)
        assert p_on == 1.0
        assert p_off == 0.0

    def test_session_length_sets_p_off(self):
        p_on, p_off = OFFICE_WORKER.transition_probs(0.5, tick_minutes=5.0)
        assert p_off == pytest.approx(5.0 / OFFICE_WORKER.mean_session_minutes)

    def test_probs_clamped_to_one(self):
        # Very high mean with short sessions must not exceed probability 1.
        p_on, p_off = ERRATIC.transition_probs(0.99, tick_minutes=60.0)
        assert 0.0 <= p_on <= 1.0
        assert 0.0 <= p_off <= 1.0


def test_profile_registry():
    assert set(PROFILES) == {
        "office_worker", "student_lab", "night_owl", "always_idle", "erratic",
    }
    for name, profile in PROFILES.items():
        assert profile.name == name


def test_presence_clamped():
    # Day and hour outside canonical ranges are wrapped, not errors.
    assert 0.0 <= OFFICE_WORKER.mean_presence(8, 25.0) <= 1.0


@pytest.mark.parametrize("holiday", [False, True])
def test_clamp_is_the_seeds_min_max(holiday):
    """The comparison clamp returns the float the seed's
    ``min(1.0, max(0.0, p))`` returns, for every raw presence."""
    raws = [0, 1, 2, -1, True, False, 0.0, -0.0, 1.0, 0.5, 1e-300,
            1.0000000000000002, 0.9999999999999999, -1e-300, 20.0,
            float("inf"), float("-inf"), float("nan")]
    for raw in raws:
        profile = UsageProfile("raw", presence=lambda day, hour: raw,
                               holiday_factor=0.5)
        p = raw * 0.5 if holiday else raw
        got = profile.mean_presence(3, 10.0, holiday=holiday)
        seed = min(1.0, max(0.0, p))
        assert (type(got), got.hex()) == (type(seed), float(seed).hex())


class TestVectorizedGrids:
    """The weekly numpy grids must be bit-identical to the scalar path."""

    def test_presence_grid_matches_scalar(self):
        from repro.sim.usage import (
            SECONDS_PER_DAY, SECONDS_PER_HOUR, presence_grid,
        )
        for profile in (OFFICE_WORKER, STUDENT_LAB, ALWAYS_IDLE):
            for holiday in (False, True):
                grid = presence_grid(profile, 300.0, holiday)
                assert len(grid) == 2016   # a week of 5-minute ticks
                for k in (0, 1, 500, 1000, 2015):
                    t = k * 300.0
                    day = int(t // SECONDS_PER_DAY) % 7
                    hour = (t % SECONDS_PER_DAY) / SECONDS_PER_HOUR
                    assert grid[k] == profile.mean_presence(
                        day, hour, holiday=holiday
                    )

    def test_transition_grid_matches_scalar(self):
        from repro.sim.usage import presence_grid, transition_grid
        for profile in (NIGHT_OWL, ERRATIC, ALWAYS_IDLE):
            mean = presence_grid(profile, 300.0)
            grid = transition_grid(profile, 300.0)
            for k in range(0, len(grid), 97):
                expected = profile.transition_probs(mean[k], 5.0)
                assert (grid[k, 0], grid[k, 1]) == expected

    def test_grids_are_cached_and_read_only(self):
        from repro.sim.usage import presence_grid
        a = presence_grid(OFFICE_WORKER, 300.0)
        assert presence_grid(OFFICE_WORKER, 300.0) is a
        with pytest.raises(ValueError):
            a[0] = 0.5

    def test_generate_presence_trace_deterministic(self):
        import numpy as np
        from repro.sim.usage import generate_presence_trace
        t1 = generate_presence_trace(OFFICE_WORKER, weeks=2, seed=7)
        t2 = generate_presence_trace(OFFICE_WORKER, weeks=2, seed=7)
        assert t1.dtype == bool and len(t1) == 2 * 2016
        assert np.array_equal(t1, t2)
        t3 = generate_presence_trace(OFFICE_WORKER, weeks=2, seed=8)
        assert not np.array_equal(t1, t3)
        assert not generate_presence_trace(ALWAYS_IDLE, weeks=1).any()
        with pytest.raises(ValueError):
            generate_presence_trace(OFFICE_WORKER, weeks=0)

    def test_holiday_days_suppress_presence(self):
        import numpy as np
        from repro.sim.usage import generate_presence_trace
        ticks_per_day = 288
        busy = generate_presence_trace(STUDENT_LAB, weeks=1, seed=3)
        quiet = generate_presence_trace(
            STUDENT_LAB, weeks=1, seed=3, holidays={1}
        )
        day1 = slice(1 * ticks_per_day, 2 * ticks_per_day)
        assert quiet[day1].sum() <= busy[day1].sum()
