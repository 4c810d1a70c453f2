"""What the harness and every workload share: the speed calibrator,
percentiles and the ``--profile all_fast`` keyword filter."""

import inspect
from time import perf_counter

#: What one repetition of the calibration kernel takes on the reference
#: machine.  It only sets the scale of reference seconds (any constant
#: would do); this one makes them read like seconds on the box the
#: benchmark was written on.
KERNEL_REF_S = 100e-6
#: Kernel time per second of the CPU time it follows, so that the speed
#: estimate is weighted by time exactly as the workload's own cost is.
KERNEL_SHARE = 0.05
_COPY_SOURCE = bytearray(32 * 1024)


class Calibrator:
    """Measures how fast the machine is *while* a workload runs.

    The sandbox's speed drifts by ±30 % over minutes and in bursts of
    seconds, and every host time of a CPU-bound workload drifts with it:
    over ten runs the quartiles of the raw wall time are 18-36 % apart
    whether a run reports the median, the minimum or a per-step minimum
    of its iterations, which is more than the widest bound the driver
    accepts.  So the harness calls :meth:`tick` after every part of the
    timed phase: a fixed piece of pure-Python work, repeated for about
    ``KERNEL_SHARE`` of the CPU time the part took.  The kernel sees the
    same slow-downs as the parts around it, and ``speed`` (reference
    kernel time over measured kernel time) turns CPU time into
    **reference seconds**: what it would read on a machine where one
    repetition takes ``KERNEL_REF_S``.  Kernel time is excluded from every
    metric, and the kernel is benchmark code, so no change to ``src/``
    can move it.
    """

    def __init__(self):
        self.seconds = 0.0
        self.reps = 0

    def tick(self, cpu_seconds: float) -> None:
        reps = max(1, round(cpu_seconds * KERNEL_SHARE / KERNEL_REF_S))
        started = perf_counter()
        for _ in range(reps):
            total = 0
            for i in range(1200):
                total += i * i
            table = {}
            for i in range(120):
                table[i] = (i, total)
            copied = bytes(_COPY_SOURCE)
            sampled = [copied[i] for i in range(0, len(copied), 1024)]
        self.seconds += perf_counter() - started
        self.reps += reps

    @property
    def speed(self) -> float:
        """> 1 on a machine faster than the reference."""
        return KERNEL_REF_S * self.reps / self.seconds

    def reference(self, wall: float, cpu: float) -> float:
        """``wall`` seconds in reference seconds, given that ``cpu`` of
        them were spent computing: the computing is rescaled by the
        machine's speed, the waiting (timers, the peer) is not."""
        share = min(1.0, cpu / wall) if wall > 0 else 0.0
        return wall * (1.0 - share + share * self.speed)


def fast_kwargs(factory, names, profile: str) -> dict:
    """``{name: True}`` for each of ``names`` that ``factory`` still
    accepts — only under ``--profile all_fast``; the default profile
    passes no fast-path keyword at all."""
    if profile != "all_fast":
        return {}
    accepted = inspect.signature(factory).parameters
    return {name: True for name in names if name in accepted}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]
