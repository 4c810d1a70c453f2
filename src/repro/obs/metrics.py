"""Grid-wide metrics registry: pull-views and fixed-bucket histograms.

The registry is the one place every component's accounting meets:

* **Views** — a component that already keeps its own cheap integer
  counters (``GrmStats``, ``Lrm``'s ints, ``Orb.stats()``) registers a
  *view*: a zero-argument callable the registry evaluates only at
  :meth:`MetricsRegistry.snapshot` time.  The component's hot path
  stays exactly as it was.
* **Histograms** — a component that times a call asks the registry for
  a :class:`Histogram` once at wiring time and observes into it on its
  own hot path (:func:`timed`).

Snapshots are timestamped in **simulated time** when the registry is
built with the :class:`~repro.sim.events.EventLoop` driving the
experiment, so metric dumps line up with the event journal.

Nothing in this module touches the event loop, RNG streams, or wire
format: enabling metrics can never perturb a deterministic run.
"""

import math
from bisect import bisect_right
from time import perf_counter
from typing import Callable, Optional, Sequence

#: Default histogram bounds for wall-clock latencies, in seconds
#: (1 µs .. 10 s, roughly ×3 per step).  Observations above the last
#: bound land in the overflow bucket.
LATENCY_BOUNDS_S = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)


def timed(hist: Optional["Histogram"], fn: Callable) -> Callable:
    """``fn``, with each call's wall time observed into ``hist``.

    A component keeps the result and calls it on its hot path.  With
    ``hist`` None (metrics not bound) the result is ``fn`` itself, so
    the call goes straight through; otherwise every call is timed, also
    one that raises.
    """
    if hist is None:
        return fn

    def call(*args):
        started = perf_counter()
        try:
            return fn(*args)
        finally:
            hist.observe(perf_counter() - started)

    return call


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max/stddev.

    ``bounds`` are upper bucket edges; an observation lands in the first
    bucket whose edge is >= the value, or the overflow bucket past the
    last edge.  Percentiles are *estimates* (linear interpolation inside
    the winning bucket, clamped to the observed min/max); count, sum,
    mean, min, max, and stddev are exact.

    ``observe`` is a few list/attribute operations — cheap enough to
    leave on permanently.  Updates are GIL-protected; under heavy
    multi-thread use (the BSP barrier) a lost increment is tolerated
    rather than paying for a lock on every observation.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "sumsq",
                 "min", "max")

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS_S):
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                "bounds must be a non-empty strictly increasing sequence"
            )
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- statistics ----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation (0.0 when empty)."""
        if not self.count:
            return 0.0
        variance = self.sumsq / self.count - self.mean ** 2
        return math.sqrt(max(0.0, variance))

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]) from the buckets."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self.count:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                low = self.bounds[i - 1] if i > 0 else self.min
                high = self.bounds[i] if i < len(self.bounds) else self.max
                within = (target - (cumulative - bucket_count)) / bucket_count
                estimate = low + (high - low) * within
                return min(self.max, max(self.min, estimate))
        return self.max

    def snapshot(self) -> dict:
        """Summary dict with the same keys as ``analysis.metrics.describe``."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "stddev": self.stddev,
            "sum": self.total,
            "buckets": {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
            },
        }


class MetricsRegistry:
    """Named histograms plus pull-views, snapshotted in simulated time.

    ``clock`` is anything with a ``now`` attribute (normally the
    experiment's :class:`~repro.sim.events.EventLoop`); without one,
    snapshots carry ``time: 0.0``.
    """

    def __init__(self, clock=None):
        self._clock = clock
        self._metrics: dict[str, Histogram] = {}
        self._views: dict[str, Callable[[], object]] = {}

    # -- creation (get-or-create, so wiring is idempotent) -------------------

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS_S
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            return existing
        if name in self._views:
            raise ValueError(f"{name!r} is already registered as a view")
        hist = self._metrics[name] = Histogram(name, bounds)
        return hist

    def view(self, name: str, fn: Callable[[], object]) -> None:
        """Register (or replace) a pull-view evaluated at snapshot time."""
        if name in self._metrics:
            raise ValueError(f"{name!r} is already a registered metric")
        self._views[name] = fn

    def bind(self, prefix: str, obj, fields: Sequence[str]) -> None:
        """Publish existing attributes of ``obj`` as views, one per field."""
        for field in fields:
            self.view(f"{prefix}.{field}",
                      lambda o=obj, f=field: getattr(o, f))

    # -- access --------------------------------------------------------------

    def get(self, name: str):
        """The histogram (or view callable) registered under a name."""
        metric = self._metrics.get(name)
        if metric is not None:
            return metric
        return self._views.get(name)

    def names(self) -> list:
        return sorted(set(self._metrics) | set(self._views))

    def snapshot(self) -> dict:
        """All metric values as one plain dict, stamped with sim time.

        Histograms flatten to their summary dicts, views to whatever
        their callable returns.
        """
        out: dict = {
            "time": self._clock.now if self._clock is not None else 0.0,
        }
        metrics = {
            name: hist.snapshot() for name, hist in self._metrics.items()
        }
        for name, fn in self._views.items():
            metrics[name] = fn()
        out["metrics"] = dict(sorted(metrics.items()))
        return out
