"""Synthetic owner-activity profiles.

The paper expects LUPA's clustering to recover "common usage periods such
as lunch-breaks, nights, holidays, working periods".  The profiles here
generate traces with exactly that structure: a weekly presence schedule
plus a Markov session model (so presence has realistic dwell times instead
of flickering every sample).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

PresenceFn = Callable[[int, float], float]

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


def _office_presence(day: int, hour: float) -> float:
    """Classic 9-to-6 office schedule with a lunch dip."""
    if day >= 5:                      # weekend
        return 0.05
    if 12.0 <= hour < 13.0:           # lunch break
        return 0.15
    if 9.0 <= hour < 18.0:            # working hours
        return 0.90
    if 8.0 <= hour < 9.0 or 18.0 <= hour < 19.0:
        return 0.40                   # arrival / departure shoulder
    return 0.02                       # night


def _student_lab_presence(day: int, hour: float) -> float:
    """Shared instructional lab: long moderately-busy days, open weekends."""
    if day >= 5:
        return 0.30 if 10.0 <= hour < 20.0 else 0.05
    if 8.0 <= hour < 22.0:
        return 0.60
    return 0.05


def _night_owl_presence(day: int, hour: float) -> float:
    """A researcher who computes interactively at night."""
    if 20.0 <= hour or hour < 2.0:
        return 0.80
    if 10.0 <= hour < 18.0:
        return 0.10
    return 0.03


def _always_idle_presence(day: int, hour: float) -> float:
    """A dedicated grid node: no interactive owner, ever."""
    return 0.0


def _erratic_presence(day: int, hour: float) -> float:
    """No temporal structure at all — the adversarial case for LUPA."""
    return 0.40


@dataclass(frozen=True)
class UsageProfile:
    """Statistical description of a machine owner's behaviour.

    ``presence`` maps (day-of-week, fractional hour) to the long-run
    probability that the owner is at the machine.  When present, the owner
    consumes CPU and memory drawn uniformly from the given ranges, fixed
    per session.
    """

    name: str
    presence: PresenceFn
    cpu_range: Tuple[float, float] = (0.20, 0.80)
    mem_fraction_range: Tuple[float, float] = (0.20, 0.60)
    net_mbps_range: Tuple[float, float] = (0.1, 5.0)
    mean_session_minutes: float = 45.0
    holiday_factor: float = 0.05

    def mean_presence(self, day: int, hour: float, holiday: bool = False) -> float:
        """Expected presence probability, optionally discounted for holidays.

        Clamped to [0, 1] (NaN to 0.0) by comparisons: the same float as
        ``min(1.0, max(0.0, p))``, without its two builtin calls.
        """
        p = self.presence(day % 7, hour % 24.0)
        if holiday:
            p *= self.holiday_factor
        return p if 0.0 < p < 1.0 else (1.0 if p >= 1.0 else 0.0)

    def transition_probs(self, mean: float, tick_minutes: float) -> Tuple[float, float]:
        """(p_on, p_off) per tick of a two-state Markov presence chain.

        Chosen so the chain's stationary distribution matches ``mean`` and
        mean busy-session length matches ``mean_session_minutes``.
        """
        if mean <= 0.0:
            return 0.0, 1.0
        if mean >= 1.0:
            return 1.0, 0.0
        p_off = min(1.0, tick_minutes / self.mean_session_minutes)
        p_on = min(1.0, p_off * mean / (1.0 - mean))
        return p_on, p_off


OFFICE_WORKER = UsageProfile(
    name="office_worker",
    presence=_office_presence,
    cpu_range=(0.25, 0.75),
    mem_fraction_range=(0.25, 0.60),
    mean_session_minutes=50.0,
)

STUDENT_LAB = UsageProfile(
    name="student_lab",
    presence=_student_lab_presence,
    cpu_range=(0.30, 0.90),
    mem_fraction_range=(0.30, 0.70),
    mean_session_minutes=35.0,
)

NIGHT_OWL = UsageProfile(
    name="night_owl",
    presence=_night_owl_presence,
    cpu_range=(0.40, 0.95),
    mem_fraction_range=(0.30, 0.70),
    mean_session_minutes=90.0,
)

ALWAYS_IDLE = UsageProfile(
    name="always_idle",
    presence=_always_idle_presence,
    cpu_range=(0.0, 0.0),
    mem_fraction_range=(0.0, 0.0),
    mean_session_minutes=1.0,
)

ERRATIC = UsageProfile(
    name="erratic",
    presence=_erratic_presence,
    cpu_range=(0.10, 0.95),
    mem_fraction_range=(0.10, 0.80),
    mean_session_minutes=25.0,
)

PROFILES = {
    p.name: p
    for p in (OFFICE_WORKER, STUDENT_LAB, NIGHT_OWL, ALWAYS_IDLE, ERRATIC)
}


# -- weekly tables --------------------------------------------------------------
#
# One week of tick times per (profile, tick, holiday), built once with the
# scalar methods, so every reader gets the bits of a per-tick call: the
# workstation's transition cache reads plain lists, and only the bulk trace
# generator wraps them in numpy (and imports it).


@functools.lru_cache(maxsize=None)
def _presence_table(profile, tick_seconds, holiday) -> list:
    tick = float(tick_seconds)
    return [
        profile.mean_presence(int(t // SECONDS_PER_DAY) % 7,
                              t % SECONDS_PER_DAY / SECONDS_PER_HOUR, holiday)
        for t in (k * tick for k in range(int(SECONDS_PER_WEEK // tick)))
    ]


@functools.lru_cache(maxsize=None)
def transition_pairs(
    profile: UsageProfile,
    tick_seconds: float = 300.0,
    holiday: bool = False,
) -> list:
    """Weekly ``(p_on, p_off)`` pairs, one per tick offset into the week:
    ``profile.transition_probs`` of each :func:`presence_grid` entry."""
    tick_minutes = tick_seconds / 60.0
    return [profile.transition_probs(mean, tick_minutes)
            for mean in _presence_table(profile, tick_seconds, holiday)]


def _read_only(table: list) -> np.ndarray:
    import numpy as np
    grid = np.array(table, dtype=np.float64)
    grid.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=None)
def presence_grid(
    profile: UsageProfile,
    tick_seconds: float = 300.0,
    holiday: bool = False,
) -> np.ndarray:
    """Weekly mean-presence vector, one entry per tick offset into the week.

    Entry ``k`` equals ``profile.mean_presence(day, hour, holiday)`` at
    week offset ``k * tick_seconds``.  Cached per (profile, tick, holiday).
    """
    return _read_only(_presence_table(profile, tick_seconds, holiday))


@functools.lru_cache(maxsize=None)
def transition_grid(
    profile: UsageProfile,
    tick_seconds: float = 300.0,
    holiday: bool = False,
) -> np.ndarray:
    """:func:`transition_pairs` as a read-only array of shape ``(n, 2)``."""
    return _read_only(transition_pairs(profile, tick_seconds, holiday))


def generate_presence_trace(
    profile: UsageProfile,
    weeks: int,
    tick_seconds: float = 300.0,
    seed: int = 0,
    holidays: Optional[set] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Simulate the two-state presence chain for ``weeks`` weeks at once.

    Returns a boolean array with one entry per tick.  The per-tick
    transition probabilities come from the vectorized weekly grids (tiled
    across weeks, with holiday days swapped in), so generating months of
    LUPA training data costs one tight scan instead of millions of
    presence-function calls.  Uses its own numpy RNG stream — this is the
    bulk offline generator, not the event-driven workstation model.
    """
    import numpy as np
    if weeks <= 0:
        raise ValueError(f"weeks must be positive, got {weeks}")
    base = transition_grid(profile, tick_seconds, holiday=False)
    n_week = len(base)
    n = n_week * int(weeks)
    probs = np.tile(base, (int(weeks), 1))
    if holidays:
        hol = transition_grid(profile, tick_seconds, holiday=True)
        ticks_per_day = int(SECONDS_PER_DAY // tick_seconds)
        for day in sorted(holidays):
            lo = day * ticks_per_day
            if lo >= n:
                continue
            hi = min(n, lo + ticks_per_day)
            week_lo = lo % n_week
            probs[lo:hi] = hol[week_lo:week_lo + (hi - lo)]
    if rng is None:
        rng = np.random.default_rng(seed)
    draws = rng.random(n)
    p_on = probs[:, 0].tolist()
    p_off = probs[:, 1].tolist()
    u = draws.tolist()
    out = np.empty(n, dtype=bool)
    present = False
    for i in range(n):
        if present:
            if u[i] < p_off[i]:
                present = False
        else:
            if u[i] < p_on[i]:
                present = True
        out[i] = present
    return out
