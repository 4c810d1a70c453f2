"""Node Control Center — the resource owner's policy knob.

"Parameters such as periods in which they do not want their resources to
be shared, the portion of resources that can be used by grid applications
(e.g., 30% of the CPU and 50% of its physical memory), or definitions as
to when to consider their machine idle can be set using this tool."
(paper, Section 4.)  Defaults are deliberately conservative-but-useful,
since "the vast majority of resource providers will not be knowledgeable
users".
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.sim.clock import (
    SECONDS_PER_DAY, SECONDS_PER_HOUR, day_of_week, hour_of_day, second_of_day,
)
from repro.sim.events import EventLoop
from repro.sim.machine import ResourceSample


@dataclass(frozen=True)
class BlackoutWindow:
    """A weekly window in which the owner forbids grid use entirely.

    ``days`` is a tuple of day indices (0 = Monday); empty means every
    day.  Hours are fractional, [start, end); windows may not wrap
    midnight — use two windows for that.
    """

    start_hour: float
    end_hour: float
    days: Tuple[int, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.start_hour < 24.0:
            raise ValueError(f"start_hour out of range: {self.start_hour}")
        if not 0.0 < self.end_hour <= 24.0:
            raise ValueError(f"end_hour out of range: {self.end_hour}")
        if self.end_hour <= self.start_hour:
            raise ValueError("end_hour must be after start_hour")
        for day in self.days:
            if not 0 <= day <= 6:
                raise ValueError(f"invalid day index {day}")

    def covers(self, day: int, hour: float) -> bool:
        if self.days and day not in self.days:
            return False
        return self.start_hour <= hour < self.end_hour


@dataclass(frozen=True)
class SharingPolicy:
    """What the owner agreed to share, and when.

    ``cpu_cap_active`` = 0 together with ``vacate_on_owner_return`` = True
    reproduces Condor-style behaviour (grid leaves when the owner
    arrives); a nonzero active cap with vacate off gives the paper's
    "use a portion of a partially idle node" behaviour.
    """

    enabled: bool = True
    cpu_cap_idle: float = 1.0
    cpu_cap_active: float = 0.2
    mem_cap_mb: Optional[float] = None
    vacate_on_owner_return: bool = False
    #: With vacate on, wait this long after the owner arrives before
    #: actually evicting (tasks are suspended meanwhile): a short owner
    #: visit then costs nothing.  0 = evict immediately.
    vacate_grace_s: float = 0.0
    blackouts: Tuple[BlackoutWindow, ...] = ()
    idle_requires_no_keyboard: bool = True
    idle_owner_cpu_below: float = 0.10

    def __post_init__(self):
        for name in ("cpu_cap_idle", "cpu_cap_active"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.mem_cap_mb is not None and self.mem_cap_mb < 0:
            raise ValueError("mem_cap_mb must be >= 0")
        if self.vacate_grace_s < 0:
            raise ValueError("vacate_grace_s must be >= 0")
        if not 0.0 <= self.idle_owner_cpu_below <= 1.0:
            raise ValueError("idle_owner_cpu_below out of range")


#: What a non-knowledgeable provider gets without touching anything:
#: share the whole machine when idle, a fifth of it while working, never
#: kick tasks off abruptly.
DEFAULT_POLICY = SharingPolicy()

#: Condor-style policy: the grid vacates the instant the owner returns.
VACATE_POLICY = SharingPolicy(
    cpu_cap_active=0.0, vacate_on_owner_return=True
)

#: The paper's worked example: "30% of the CPU and 50% of its physical
#: memory" (memory cap is applied by the LRM against the machine's RAM).
def thirty_percent_policy(ram_mb: float) -> SharingPolicy:
    return SharingPolicy(
        cpu_cap_idle=0.30, cpu_cap_active=0.30, mem_cap_mb=0.5 * ram_mb
    )


#: ``midnight + hour * 3600`` rounds, and so does ``hour_of_day``: a
#: window edge computed in seconds can sit this many float ulps away
#: from where :meth:`NodeControlCenter.in_blackout` flips.
_EDGE_ULPS = 8


class NodeControlCenter:
    """Evaluates the owner's :class:`SharingPolicy` for the LRM."""

    def __init__(self, loop: EventLoop, policy: SharingPolicy = DEFAULT_POLICY):
        self._loop = loop
        self.policy = policy

    def in_blackout(self, when: Optional[float] = None) -> bool:
        """True while any blackout window covers ``when`` (default now)."""
        if not self.policy.blackouts:
            return False
        t = self._loop.now if when is None else when
        day, hour = day_of_week(t), hour_of_day(t)
        return any(w.covers(day, hour) for w in self.policy.blackouts)

    def sharing_now(self, when: Optional[float] = None) -> bool:
        """May the grid use this node at all right now?"""
        return self.policy.enabled and not self.in_blackout(when)

    def next_sharing_change(self, now: float) -> float:
        """The first instant after ``now`` at which :meth:`sharing_now`
        differs from what it says at ``now``; ``inf`` if it never will.

        Pure — it reads the policy and nothing else — so the LRM can
        plan a wake-up for a blackout edge instead of polling for it.
        Every window edge of the coming week is a candidate; whether
        sharing really flips there (an adjoining window may keep the
        blackout going, a day filter may skip the day) is decided by
        :meth:`in_blackout` itself, and the candidate is moved by a few
        float ulps onto the first instant the predicate flips at, so an
        event scheduled for the returned time always sees the new state.
        """
        policy = self.policy
        if not policy.enabled or not policy.blackouts:
            return math.inf
        current = self.in_blackout(now)
        offsets = sorted({
            hour * SECONDS_PER_HOUR
            for window in policy.blackouts
            for hour in (window.start_hour, window.end_hour)
        })
        midnight = now - second_of_day(now)
        for day in range(8):   # a day-filtered window recurs within a week
            for offset in offsets:
                when = midnight + day * SECONDS_PER_DAY + offset
                if when <= now:
                    continue
                for _ in range(_EDGE_ULPS):
                    if self.in_blackout(when) != current:
                        break
                    when = math.nextafter(when, math.inf)
                else:
                    continue   # not an edge: sharing stays as it is here
                for _ in range(_EDGE_ULPS):
                    before = math.nextafter(when, -math.inf)
                    if before <= now or self.in_blackout(before) == current:
                        break
                    when = before
                return when
        return math.inf   # the blackouts cover the whole week

    def cpu_cap(self, owner_present: bool) -> float:
        """The grid's CPU share ceiling in the current owner state."""
        if owner_present:
            return self.policy.cpu_cap_active
        return self.policy.cpu_cap_idle

    def mem_cap_mb(self) -> Optional[float]:
        """The grid's memory ceiling (None = machine limit only)."""
        return self.policy.mem_cap_mb

    def should_vacate(self, owner_present: bool) -> bool:
        """Must running grid tasks be evicted in this owner state?"""
        return owner_present and self.policy.vacate_on_owner_return

    def considered_idle(self, sample: ResourceSample) -> bool:
        """Apply the owner's idleness definition to a usage sample."""
        if self.policy.idle_requires_no_keyboard and sample.keyboard_active:
            return False
        return sample.cpu_owner < self.policy.idle_owner_cpu_below

    def admission_check(
        self,
        owner_present: bool,
        cpu_fraction: float,
        when: Optional[float] = None,
    ) -> Tuple[bool, str]:
        """Policy-level admission (capacity is the machine's concern)."""
        if not self.policy.enabled:
            return False, "sharing disabled by owner"
        if self.in_blackout(when):
            return False, "owner blackout window"
        cap = self.cpu_cap(owner_present)
        if cap <= 0.0:
            return False, "owner present and active cap is zero"
        if cpu_fraction > cap + 1e-9:
            return False, f"request {cpu_fraction:.2f} exceeds cap {cap:.2f}"
        return True, "ok"
