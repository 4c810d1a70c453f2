"""A workstation: a machine plus the synthetic owner who uses it.

The workstation drives owner load onto its :class:`~repro.sim.machine.Machine`
on a fixed tick and notifies listeners (typically the LRM) when the owner
arrives or leaves.  Everything is deterministic given the seed streams.
"""

import random
from typing import Callable, Optional

from repro.sim.clock import (
    SECONDS_PER_DAY, SECONDS_PER_WEEK, day_of_week, hour_of_day,
)
from repro.sim.events import EventLoop
from repro.sim.machine import Machine, MachineSpec
from repro.sim.usage import UsageProfile, ALWAYS_IDLE, transition_pairs

OwnerListener = Callable[[bool], None]

DEFAULT_TICK_SECONDS = 300.0   # 5 minutes, the paper's sampling interval


class Workstation:
    """Machine + owner activity model, driven by the event loop."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        spec: Optional[MachineSpec] = None,
        profile: UsageProfile = ALWAYS_IDLE,
        rng: Optional[random.Random] = None,
        tick_seconds: float = DEFAULT_TICK_SECONDS,
        holidays: Optional[set] = None,
        scheduling: str = "owner_first",
    ):
        self.loop = loop
        self.machine = Machine(name, spec, scheduling=scheduling)
        self.profile = profile
        self.tick_seconds = float(tick_seconds)
        self.holidays = holidays if holidays is not None else set()
        self._rng = rng if rng is not None else random.Random(0)
        self._present = False
        self._session_cpu = 0.0
        self._session_mem_mb = 0.0
        self._session_net_mbps = 0.0
        self._listeners: list[OwnerListener] = []
        # Weekly transition-prob cache: valid only when tick times repeat
        # with the week, i.e. the tick divides the week evenly.  Built
        # lazily (per holiday flag) from the vectorized usage grids.
        self._tp_cacheable = (SECONDS_PER_WEEK % self.tick_seconds) == 0.0
        self._tp_pairs: dict[bool, list] = {}
        self._task = loop.every(self.tick_seconds, self._tick, start_after=0.0)

    @property
    def name(self) -> str:
        return self.machine.name

    @property
    def owner_present(self) -> bool:
        return self._present

    def stop(self) -> None:
        """Detach from the event loop (end of experiment)."""
        self._task.stop()

    def on_owner_change(self, listener: OwnerListener) -> None:
        """Register a callback fired with True on arrival, False on leave."""
        self._listeners.append(listener)

    # -- ground truth for experiment evaluation ------------------------------

    def is_holiday(self, when: Optional[float] = None) -> bool:
        t = self.loop.now if when is None else when
        return int(t // SECONDS_PER_DAY) in self.holidays

    def true_mean_presence(self, when: float) -> float:
        """The profile's actual presence probability at time ``when``.

        Used only by experiment harnesses to score LUPA's predictions; the
        middleware itself never sees this.
        """
        return self.profile.mean_presence(
            day_of_week(when), hour_of_day(when),
            holiday=self.is_holiday(when),
        )

    # -- internals ------------------------------------------------------------

    def _transition_probs_now(self) -> tuple:
        """Per-tick (p_on, p_off), served from the weekly cache when the
        current time falls exactly on the cached grid."""
        now = self.loop.now
        if self._tp_cacheable:
            index = (now % SECONDS_PER_WEEK) / self.tick_seconds
            k = int(index)
            if k == index:
                holiday = self.is_holiday(now)
                pairs = self._tp_pairs.get(holiday)
                if pairs is None:
                    pairs = self._tp_pairs[holiday] = transition_pairs(
                        self.profile, self.tick_seconds, holiday
                    )
                return pairs[k]
        mean = self.true_mean_presence(now)
        return self.profile.transition_probs(mean, self.tick_seconds / 60.0)

    def _tick(self) -> None:
        p_on, p_off = self._transition_probs_now()
        was_present = self._present
        if self._present:
            if self._rng.random() < p_off:
                self._present = False
        else:
            if self._rng.random() < p_on:
                self._present = True
                self._start_session()
        self._apply_load()
        if was_present != self._present:
            for listener in self._listeners:
                listener(self._present)

    def _start_session(self) -> None:
        lo, hi = self.profile.cpu_range
        self._session_cpu = self._rng.uniform(lo, hi)
        mlo, mhi = self.profile.mem_fraction_range
        self._session_mem_mb = (
            self._rng.uniform(mlo, mhi) * self.machine.spec.ram_mb
        )
        nlo, nhi = self.profile.net_mbps_range
        self._session_net_mbps = self._rng.uniform(nlo, nhi)

    def _apply_load(self) -> None:
        if self._present:
            jitter = 1.0 + self._rng.uniform(-0.1, 0.1)
            cpu = min(1.0, max(0.0, self._session_cpu * jitter))
            self.machine.set_owner_load(
                cpu, self._session_mem_mb, True,
                net_mbps=self._session_net_mbps,
            )
        else:
            self.machine.set_owner_load(0.0, 0.0, False, net_mbps=0.0)

    def __repr__(self) -> str:
        state = "present" if self._present else "away"
        return f"Workstation({self.name!r}, {self.profile.name}, owner {state})"
