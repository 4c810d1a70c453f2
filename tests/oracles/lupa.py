"""LUPA with the seed's accumulator: today's per-bin sums and counts are
numpy arrays, bumped in place by every sample.

:class:`repro.core.lupa.Lupa` keeps them in plain lists and makes arrays
only when it reads them; ``tests/test_lupa_accumulator.py`` holds its
periods, patterns and predictions to this analyzer's, bit for bit.
"""

import numpy as np

from repro.core.lupa import Lupa
from repro.sim.clock import SECONDS_PER_DAY


class NumpyAccumulatorLupa(Lupa):
    """The seed accumulator and what reads it; learning and prediction
    are inherited."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._day_sums = np.zeros(self.bins_per_day)
        self._day_counts = np.zeros(self.bins_per_day, dtype=int)

    def _sample(self) -> None:
        now = self._loop.now
        day = int(now // SECONDS_PER_DAY)
        if day != self._current_day:
            self._finish_day()
            self._current_day = day
        bin_index = int((now % SECONDS_PER_DAY) // self._bin_seconds)
        activity = min(1.0, max(0.0, float(self._probe())))
        self._day_sums[bin_index] += activity
        self._day_counts[bin_index] += 1
        self.samples_taken += 1

    def _finish_day(self) -> None:
        if self._day_counts.sum() == 0:
            return
        with np.errstate(invalid="ignore"):
            period = np.where(
                self._day_counts > 0, self._day_sums / self._day_counts, 0.0
            )
        self._periods.append(period)
        self._period_dows.append(self._current_day % 7)
        self._day_sums = np.zeros(self.bins_per_day)
        self._day_counts = np.zeros(self.bins_per_day, dtype=int)
        if len(self._periods) >= self.min_history_days:
            self._learn()

    def holiday_likelihood(self) -> float:
        if self._weekly is None:
            return 0.0
        filled = self._day_counts > 0
        if not filled.any():
            return 0.0
        dow = self._current_day % 7
        expected = float(self._weekly[dow][filled].mean())
        with np.errstate(invalid="ignore"):
            observed_bins = self._day_sums[filled] / self._day_counts[filled]
        observed = float(observed_bins.mean())
        if expected < 0.10:
            return 0.0
        return max(0.0, min(1.0, (expected - observed) / expected))
