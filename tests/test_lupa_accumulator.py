"""LUPA's list accumulator against the seed's numpy one, bit for bit.

:class:`~repro.core.lupa.Lupa` adds each sample to a plain Python list
and builds arrays only when a day closes or a holiday is judged; the
oracle (``tests/oracles/lupa.py``) bumps numpy arrays in place, as the
seed did.  Float addition of the same values in the same order gives
the same bits either way, so two analyzers fed one seeded probe must
agree on every period, pattern and prediction.
"""

import random

import numpy as np

from repro.core.lupa import Lupa
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.events import EventLoop
from tests.oracles.lupa import NumpyAccumulatorLupa

DAYS = 22            # three weeks and a day
HOLIDAY = 16         # the third week's Wednesday (day 0 is a Monday)
STEP_S = 1000.0      # where the analyzers are compared: off the 300 s grid


def seeded_probe(loop: EventLoop, seed: int):
    """A workday owner (busy 9-17 on weekdays) with noise that leaves
    [0, 1] on both sides, and who stays away on the holiday."""
    rng = random.Random(seed)

    def activity() -> float:
        day = int(loop.now // SECONDS_PER_DAY)
        hour = (loop.now % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        if day == HOLIDAY:
            return rng.uniform(-0.2, 0.05)
        if day % 7 >= 5:
            base = 0.02
        elif 9.0 <= hour < 17.0:
            base = 0.9
        else:
            base = 0.1
        return base + rng.uniform(-0.2, 0.3)

    return activity


def bits(value: float) -> str:
    return float(value).hex()


def test_list_accumulator_is_bit_identical_to_the_numpy_one():
    loop = EventLoop()
    lupa = Lupa(loop, "n0", seeded_probe(loop, 7), seed=3)
    oracle = NumpyAccumulatorLupa(loop, "n0", seeded_probe(loop, 7), seed=3)
    holiday_scores = []
    t = 0.0
    while t < DAYS * SECONDS_PER_DAY:
        t += STEP_S
        loop.run_until(t)
        assert bits(lupa.holiday_likelihood()) \
            == bits(oracle.holiday_likelihood())
        for ahead in (0.0, 2 * SECONDS_PER_HOUR, SECONDS_PER_DAY):
            assert bits(lupa.predict_busy_adaptive(t + ahead)) \
                == bits(oracle.predict_busy_adaptive(t + ahead))
        assert repr(lupa.pattern()) == repr(oracle.pattern())
        if int(t // SECONDS_PER_DAY) == HOLIDAY:
            holiday_scores.append(lupa.holiday_likelihood())
    assert lupa.samples_taken == oracle.samples_taken \
        == DAYS * SECONDS_PER_DAY // 300
    assert lupa.history_days == oracle.history_days == DAYS
    assert [p.tobytes() for p in lupa._periods] \
        == [p.tobytes() for p in oracle._periods]
    assert np.asarray(lupa._day_sums).tobytes() \
        == oracle._day_sums.tobytes()
    # The run exercised what it claims to: a learned weekly profile and
    # a holiday that the adaptive prediction discounts.
    assert lupa.pattern() is not None
    assert max(holiday_scores) >= 0.8
