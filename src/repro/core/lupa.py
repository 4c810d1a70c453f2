"""Local Usage Pattern Analyzer (LUPA).

Per the paper: "Node usage information for short time intervals (e.g., 5
minutes) is grouped in larger intervals called periods.  After that, the
system shall apply clustering algorithms to this data in order to extract
behavioral categories."  Here a *period* is one day, binned into
``bins_per_day`` mean-activity values; k-means over the accumulated
periods yields the behavioural categories, and each weekday is mapped to
its most frequent category, giving a weekly busy-probability profile.
Every finished day re-clusters the whole history from scratch, so the
profile is a pure function of the periods seen and the seed.
"""

import time
from typing import Callable, Optional

import numpy as np

from repro.analysis.clustering import kmeans
from repro.sim.clock import SECONDS_PER_DAY
from repro.sim.events import EventLoop

DEFAULT_SAMPLE_INTERVAL = 300.0        # the paper's 5 minutes
DEFAULT_BINS_PER_DAY = 48              # half-hour bins

#: Probe returning the owner's current activity level in [0, 1].
ActivityProbe = Callable[[], float]


class Lupa:
    """Collects activity samples, learns categories, predicts idleness."""

    def __init__(
        self,
        loop: EventLoop,
        node: str,
        probe: ActivityProbe,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
        bins_per_day: int = DEFAULT_BINS_PER_DAY,
        min_history_days: int = 7,
        categories: int = 3,
        seed: int = 0,
    ):
        if bins_per_day <= 0 or SECONDS_PER_DAY % bins_per_day:
            raise ValueError("bins_per_day must divide the day evenly")
        if categories < 1:
            raise ValueError("need at least one category")
        self._loop = loop
        self.node = node
        self._probe = probe
        self.sample_interval = sample_interval
        self.bins_per_day = bins_per_day
        self.min_history_days = min_history_days
        self.categories = categories
        self._seed = seed

        self._bin_seconds = SECONDS_PER_DAY / bins_per_day
        self._day_sums = [0.0] * bins_per_day    # arrays only when read
        self._day_counts = [0] * bins_per_day
        self._current_day = 0
        self._periods: list[np.ndarray] = []       # one vector per finished day
        self._period_dows: list[int] = []
        self._weekly: Optional[np.ndarray] = None  # shape (7, bins_per_day)
        self.samples_taken = 0
        self.full_relearns = 0
        self.learn_wall_s = 0.0
        self._task = loop.every(sample_interval, self._sample)

    def to_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Publish the analyzer's counters as registry views (pull-only)."""
        prefix = prefix if prefix is not None else f"lupa.{self.node}"
        registry.bind(prefix, self, (
            "samples_taken", "history_days", "full_relearns", "learn_wall_s",
        ))

    # -- data collection -----------------------------------------------------

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
        counts = np.array(self._day_counts)
        if counts.sum() == 0:
            return
        with np.errstate(invalid="ignore"):
            period = np.where(
                counts > 0, np.array(self._day_sums) / counts, 0.0
            )
        self._periods.append(period)
        self._period_dows.append(self._current_day % 7)
        self._day_sums = [0.0] * self.bins_per_day
        self._day_counts = [0] * self.bins_per_day
        if len(self._periods) >= self.min_history_days:
            self._learn()

    # -- learning ----------------------------------------------------------------

    def _learn(self) -> None:
        started = time.perf_counter()
        data = np.array(self._periods)
        k = min(self.categories, len(self._periods))
        result = kmeans(data, k, seed=self._seed)
        labels = result.labels
        self.full_relearns += 1
        # Map each weekday to the category its days most often fall into.
        weekly = np.zeros((7, self.bins_per_day))
        global_mean = data.mean(axis=0)
        for dow in range(7):
            dow_labels = [
                labels[i]
                for i, d in enumerate(self._period_dows)
                if d == dow
            ]
            if not dow_labels:
                weekly[dow] = global_mean
                continue
            counts = np.bincount(dow_labels, minlength=k)
            weekly[dow] = result.centroids[int(np.argmax(counts))]
        self._weekly = np.clip(weekly, 0.0, 1.0)
        self.learn_wall_s += time.perf_counter() - started

    @property
    def learned(self) -> bool:
        """Has at least one clustering pass produced a weekly profile?"""
        return self._weekly is not None

    @property
    def history_days(self) -> int:
        return len(self._periods)

    # -- prediction ----------------------------------------------------------------

    def predict_busy(self, when: float) -> float:
        """Probability the owner is active at absolute time ``when``.

        0.5 (maximum uncertainty) until enough history has accumulated.
        """
        if self._weekly is None:
            return 0.5
        dow = int(when // SECONDS_PER_DAY) % 7
        bin_index = int((when % SECONDS_PER_DAY) // self._bin_seconds)
        return float(self._weekly[dow, bin_index])

    # -- holiday detection -----------------------------------------------------------

    def holiday_likelihood(self) -> float:
        """How holiday-like today looks so far, in [0, 1].

        The paper names holidays among the categories LUPA should
        recognise; holidays are rare enough that clustering alone cannot
        learn them, so this is *online*: compare today's observed
        activity against the learned expectation for this weekday.  A
        normally busy weekday with near-zero observed activity scores
        close to 1.
        """
        if self._weekly is None:
            return 0.0
        counts = np.array(self._day_counts)
        filled = counts > 0
        if not filled.any():
            return 0.0
        dow = self._current_day % 7
        expected = float(self._weekly[dow][filled].mean())
        with np.errstate(invalid="ignore"):
            observed_bins = np.array(self._day_sums)[filled] / counts[filled]
        observed = float(observed_bins.mean())
        if expected < 0.10:
            return 0.0   # an idle-anyway day carries no signal
        return max(0.0, min(1.0, (expected - observed) / expected))

    def predict_busy_adaptive(
        self, when: float, holiday_threshold: float = 0.8
    ) -> float:
        """Like :meth:`predict_busy`, but discounts a detected holiday.

        When today looks like a holiday and ``when`` falls later today,
        the weekday profile is scaled down by the evidence observed so
        far.  Predictions for other days are unaffected.
        """
        base = self.predict_busy(when)
        if int(when // SECONDS_PER_DAY) != self._current_day:
            return base
        likelihood = self.holiday_likelihood()
        if likelihood < holiday_threshold:
            return base
        return base * (1.0 - likelihood)

    def idle_probability(self, start: float, duration: float) -> float:
        """Probability the node stays idle through [start, start+duration].

        Treats bins as independent: the product of per-bin idle
        probabilities, partial bins weighted by coverage.
        """
        if duration <= 0:
            return 1.0 - self.predict_busy(start)
        probability = 1.0
        t = start
        end = start + duration
        while t < end:
            bin_end = (t // self._bin_seconds + 1) * self._bin_seconds
            chunk = min(bin_end, end) - t
            weight = chunk / self._bin_seconds
            busy = self.predict_busy(t)
            probability *= (1.0 - busy) ** weight
            t = min(bin_end, end)
        return probability

    # -- pattern exchange -------------------------------------------------------------

    def pattern(self) -> Optional[dict]:
        """The weekly profile in a form marshallable as an ORB variant."""
        if self._weekly is None:
            return None
        return {
            "node": self.node,
            "bins_per_day": self.bins_per_day,
            "weekly": [[float(v) for v in row] for row in self._weekly],
            "history_days": self.history_days,
        }

    def stop(self) -> None:
        """Detach from the event loop."""
        self._task.stop()
