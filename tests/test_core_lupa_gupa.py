"""Unit tests for usage-pattern learning (LUPA) and aggregation (GUPA)."""

import random

import pytest

from repro.core.gupa import Gupa, UNKNOWN
from repro.core.lupa import Lupa
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import ALWAYS_IDLE, OFFICE_WORKER
from repro.sim.workstation import Workstation


def office_lupa(weeks=2, seed=3):
    """A LUPA fed from a simulated office workstation for ``weeks``."""
    loop = EventLoop()
    ws = Workstation(
        loop, "ws0", spec=MachineSpec(), profile=OFFICE_WORKER,
        rng=random.Random(seed),
    )
    machine = ws.machine
    lupa = Lupa(
        loop, "ws0",
        probe=lambda: 1.0 if (machine.keyboard_active or machine.owner_cpu >= 0.1) else 0.0,
        min_history_days=7,
    )
    loop.run_until(weeks * SECONDS_PER_WEEK)
    return loop, lupa


class TestLupaCollection:
    def test_samples_accumulate(self):
        loop = EventLoop()
        lupa = Lupa(loop, "n0", probe=lambda: 0.0)
        loop.run_until(SECONDS_PER_HOUR)
        assert lupa.samples_taken == 12   # every 5 minutes

    def test_history_days_grow(self):
        loop = EventLoop()
        lupa = Lupa(loop, "n0", probe=lambda: 0.0)
        loop.run_until(3 * SECONDS_PER_DAY + 60)
        assert lupa.history_days == 3

    def test_not_learned_before_min_history(self):
        loop = EventLoop()
        lupa = Lupa(loop, "n0", probe=lambda: 0.0, min_history_days=7)
        loop.run_until(3 * SECONDS_PER_DAY)
        assert not lupa.learned
        assert lupa.predict_busy(0.0) == 0.5   # maximum uncertainty
        assert lupa.pattern() is None

    def test_invalid_configuration(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            Lupa(loop, "n0", probe=lambda: 0.0, bins_per_day=7)
        with pytest.raises(ValueError):
            Lupa(loop, "n0", probe=lambda: 0.0, categories=0)


def weekday_lupa(days, min_history_days=3):
    """A LUPA fed a deterministic weekday-busy / weekend-idle owner."""
    loop = EventLoop()
    lupa = Lupa(
        loop, "n0",
        probe=lambda: 1.0 if (
            int(loop.now // SECONDS_PER_DAY) % 7 < 5
            and 9 * SECONDS_PER_HOUR <= loop.now % SECONDS_PER_DAY
            < 17 * SECONDS_PER_HOUR
        ) else 0.0,
        min_history_days=min_history_days,
    )
    loop.run_until(days * SECONDS_PER_DAY + SECONDS_PER_HOUR)
    return lupa


class TestLupaLearning:
    def test_relearns_daily(self):
        lupa = weekday_lupa(days=10)
        # One clustering pass per finished day once history suffices.
        assert lupa.full_relearns == 10 - 3 + 1

    def test_learn_wall_time_accumulates(self):
        lupa = weekday_lupa(days=5)
        assert lupa.full_relearns > 0
        assert lupa.learn_wall_s > 0.0

    def test_office_pattern_recovered(self):
        _, lupa = office_lupa(weeks=3)
        assert lupa.learned
        tuesday_10am = SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR
        tuesday_3am = SECONDS_PER_DAY + 3 * SECONDS_PER_HOUR
        saturday_noon = 5 * SECONDS_PER_DAY + 12 * SECONDS_PER_HOUR
        assert lupa.predict_busy(tuesday_10am) > 0.5
        assert lupa.predict_busy(tuesday_3am) < 0.2
        assert lupa.predict_busy(saturday_noon) < 0.3

    def test_idle_node_learns_idleness(self):
        loop = EventLoop()
        lupa = Lupa(loop, "n0", probe=lambda: 0.0, min_history_days=7)
        loop.run_until(8 * SECONDS_PER_DAY)
        assert lupa.learned
        assert lupa.predict_busy(SECONDS_PER_DAY) == pytest.approx(0.0)

    def test_idle_probability_longer_spans_less_likely(self):
        _, lupa = office_lupa(weeks=3)
        monday_7am = 7 * SECONDS_PER_HOUR
        short = lupa.idle_probability(monday_7am, 30 * 60)
        long = lupa.idle_probability(monday_7am, 8 * SECONDS_PER_HOUR)
        assert short > long

    def test_night_span_predicted_idle(self):
        _, lupa = office_lupa(weeks=3)
        monday_10pm = 22 * SECONDS_PER_HOUR
        assert lupa.idle_probability(monday_10pm, 6 * SECONDS_PER_HOUR) > 0.5

    def test_workday_span_predicted_busy(self):
        _, lupa = office_lupa(weeks=3)
        tuesday_9am = SECONDS_PER_DAY + 9 * SECONDS_PER_HOUR
        assert lupa.idle_probability(tuesday_9am, 6 * SECONDS_PER_HOUR) < 0.2

    def test_pattern_is_marshallable_shape(self):
        _, lupa = office_lupa(weeks=2)
        pattern = lupa.pattern()
        assert pattern["node"] == "ws0"
        assert len(pattern["weekly"]) == 7
        assert len(pattern["weekly"][0]) == lupa.bins_per_day
        assert all(
            0.0 <= v <= 1.0 for row in pattern["weekly"] for v in row
        )

    def test_stop_halts_sampling(self):
        loop = EventLoop()
        lupa = Lupa(loop, "n0", probe=lambda: 0.0)
        loop.run_until(SECONDS_PER_HOUR)
        lupa.stop()
        before = lupa.samples_taken
        loop.run_until(2 * SECONDS_PER_HOUR)
        assert lupa.samples_taken == before


class TestGupa:
    def make_pattern(self, busy_hours=(9, 17), bins_per_day=24):
        weekly = []
        for day in range(7):
            row = [
                1.0 if (day < 5 and busy_hours[0] <= h < busy_hours[1]) else 0.0
                for h in range(bins_per_day)
            ]
            weekly.append(row)
        return {"bins_per_day": bins_per_day, "weekly": weekly}

    def test_upload_and_query(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern())
        assert gupa.has_pattern("n0")
        assert gupa.uploads == 1
        monday_noon = 12 * SECONDS_PER_HOUR
        assert gupa.busy_probability("n0", monday_noon) == 1.0
        monday_3am = 3 * SECONDS_PER_HOUR
        assert gupa.busy_probability("n0", monday_3am) == 0.0

    def test_unknown_node(self):
        gupa = Gupa()
        assert not gupa.has_pattern("ghost")
        assert gupa.busy_probability("ghost", 0.0) == UNKNOWN
        assert gupa.idle_probability("ghost", 0.0, 100.0) == UNKNOWN

    def test_none_upload_ignored(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", None)   # LUPA not learned yet
        assert not gupa.has_pattern("n0")
        assert gupa.uploads == 0

    def test_malformed_pattern_rejected(self):
        gupa = Gupa()
        with pytest.raises(ValueError):
            gupa.upload_pattern("n0", {"weekly": [[0.0]]})
        with pytest.raises(ValueError):
            gupa.upload_pattern("n0", {"bins_per_day": 24})

    def test_non_dividing_bins_per_day_rejected(self):
        gupa = Gupa()
        for bad in (7, 23, 1000):   # none divide the 86400-second day
            with pytest.raises(ValueError, match="divide"):
                gupa.upload_pattern(
                    "n0", {"bins_per_day": bad, "weekly": [[0.0] * bad] * 7}
                )
        assert not gupa.has_pattern("n0")

    def test_nonpositive_or_non_integer_bins_rejected(self):
        gupa = Gupa()
        for bad in (0, -24, 24.0, "24", True):
            with pytest.raises(ValueError):
                gupa.upload_pattern(
                    "n0", {"bins_per_day": bad, "weekly": [[0.0]] * 7}
                )

    @pytest.mark.parametrize(
        "bad", [2.0, -0.5, float("nan"), float("inf")],
        ids=["above_one", "negative", "nan", "inf"],
    )
    def test_busy_values_must_be_probabilities(self, bad):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern())
        weekly = self.make_pattern()["weekly"]
        weekly[2][7] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gupa.upload_pattern("n0", {"bins_per_day": 24, "weekly": weekly})
        # The refused upload left the node's previous pattern in force.
        assert gupa.uploads == 1
        monday_noon = 12 * SECONDS_PER_HOUR
        assert gupa.busy_probability("n0", monday_noon) == 1.0
        assert 0.0 <= gupa.idle_probability("n0", 0.0, 90000.5) <= 1.0

    def test_row_length_mismatch_rejected(self):
        gupa = Gupa()
        weekly = [[0.0] * 24 for _ in range(7)]
        weekly[3] = [0.0] * 23   # one short row
        with pytest.raises(ValueError, match="row"):
            gupa.upload_pattern("n0", {"bins_per_day": 24, "weekly": weekly})
        assert not gupa.has_pattern("n0")

    def test_batch_matches_single_queries(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern())
        gupa.upload_pattern("n1", self.make_pattern(busy_hours=(0, 24)))
        start = 8 * SECONDS_PER_HOUR
        duration = 4 * SECONDS_PER_HOUR
        batch = gupa.idle_probabilities(
            ["n0", "n1", "ghost"], start, duration
        )
        assert batch[0] == gupa.idle_probability("n0", start, duration)
        assert batch[1] == gupa.idle_probability("n1", start, duration)
        assert batch[2] == UNKNOWN

    def test_batch_mixed_bin_widths(self):
        gupa = Gupa()
        gupa.upload_pattern("hourly", self.make_pattern(bins_per_day=24))
        gupa.upload_pattern(
            "halfhour", self.make_pattern(bins_per_day=48)
        )
        start = 16 * SECONDS_PER_HOUR + 600.0
        batch = gupa.idle_probabilities(["hourly", "halfhour"], start, 7200.0)
        for node, value in zip(["hourly", "halfhour"], batch):
            assert value == gupa.idle_probability(node, start, 7200.0)

    def test_batch_per_node_durations(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern())
        gupa.upload_pattern("n1", self.make_pattern())
        import numpy as np
        durations = np.array([3600.0, -1.0])
        batch = gupa.idle_probabilities(["n0", "n1"], 1000.0, durations)
        assert batch[0] == gupa.idle_probability("n0", 1000.0, 3600.0)
        assert batch[1] == gupa.idle_probability("n1", 1000.0, -1.0)

    def test_idle_probability_spans(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern())
        night = 22 * SECONDS_PER_HOUR
        assert gupa.idle_probability("n0", night, 4 * SECONDS_PER_HOUR) \
            == pytest.approx(1.0)
        morning = 8 * SECONDS_PER_HOUR
        # 08:00 + 4h crosses into the busy 9-17 block: certain interruption
        assert gupa.idle_probability("n0", morning, 4 * SECONDS_PER_HOUR) \
            == pytest.approx(0.0)

    def test_weekend_is_idle(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern())
        saturday_noon = 5 * SECONDS_PER_DAY + 12 * SECONDS_PER_HOUR
        assert gupa.idle_probability(
            "n0", saturday_noon, 8 * SECONDS_PER_HOUR
        ) == pytest.approx(1.0)

    def test_forget(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern())
        gupa.forget("n0")
        assert not gupa.has_pattern("n0")

    def test_reupload_refreshes(self):
        gupa = Gupa()
        gupa.upload_pattern("n0", self.make_pattern(busy_hours=(0, 24)))
        gupa.upload_pattern("n0", self.make_pattern(busy_hours=(9, 10)))
        assert gupa.busy_probability("n0", 12 * SECONDS_PER_HOUR) == 0.0
        assert gupa.known_nodes == ["n0"]


class TestEndToEndPatternFlow:
    def test_lupa_pattern_feeds_gupa(self):
        _, lupa = office_lupa(weeks=2)
        gupa = Gupa()
        gupa.upload_pattern(lupa.node, lupa.pattern())
        tuesday_10am = SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR
        # Both sides must agree: same model, same numbers.
        assert gupa.busy_probability("ws0", tuesday_10am) == pytest.approx(
            lupa.predict_busy(tuesday_10am)
        )
        assert gupa.idle_probability(
            "ws0", tuesday_10am, SECONDS_PER_HOUR
        ) == pytest.approx(lupa.idle_probability(tuesday_10am, SECONDS_PER_HOUR))
