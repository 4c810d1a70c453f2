"""Simulated wall-clock time: constants and calendar helpers.

Simulated time is owned by :class:`repro.sim.events.EventLoop` (its
``now``); everything else reads it.  Times are seconds since the
simulation epoch, which is defined to be midnight on a Monday so that
the calendar helpers below are trivial.
"""

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

DAY_NAMES = (
    "monday",
    "tuesday",
    "wednesday",
    "thursday",
    "friday",
    "saturday",
    "sunday",
)


def day_of_week(t: float) -> int:
    """Day index 0..6 (0 = Monday) of time ``t``."""
    return int(t // SECONDS_PER_DAY) % 7


def second_of_day(t: float) -> float:
    """Seconds elapsed between the most recent midnight and ``t``."""
    return t % SECONDS_PER_DAY


def hour_of_day(t: float) -> float:
    """Fractional hour of day of ``t``, in [0, 24)."""
    return second_of_day(t) / SECONDS_PER_HOUR
