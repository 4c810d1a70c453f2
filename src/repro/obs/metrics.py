"""Grid-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the one place every component's accounting meets.  Two
usage styles coexist:

* **Push** — a component asks the registry for a :class:`Counter`,
  :class:`Gauge`, or :class:`Histogram` once at wiring time and bumps it
  on its own hot path (plain attribute arithmetic, no name lookup and no
  string formatting per event).
* **Pull (views)** — a component that already keeps its own cheap
  integer counters (``GrmStats``, ``Lrm``'s ints, ``Orb.stats()``)
  registers a *view*: a zero-argument callable the registry evaluates
  only at :meth:`MetricsRegistry.snapshot` time.  The component's hot
  path stays exactly as it was.

Snapshots are timestamped in **simulated time** when the registry is
built with the :class:`~repro.sim.events.EventLoop` driving the
experiment, so metric dumps line up with traces and event logs.

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

#: Default bounds for simulated-time durations, in seconds
#: (1 s .. 1 day).
SIM_SECONDS_BOUNDS = (
    1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0, 4 * 3600.0, 86400.0,
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


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, live nodes, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


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
    """Named metrics plus pull-views, snapshotted in simulated time.

    ``clock`` is anything with a ``now`` attribute (normally the
    experiment's :class:`~repro.sim.events.EventLoop`); without one,
    snapshots carry ``time: 0.0``.
    """

    def __init__(self, clock=None):
        self._clock = clock
        self._metrics: dict[str, object] = {}
        self._views: dict[str, Callable[[], object]] = {}

    # -- creation (get-or-create, so wiring is idempotent) -------------------

    def _named(self, name: str, factory, kind):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            return existing
        if name in self._views:
            raise ValueError(f"{name!r} is already registered as a view")
        metric = factory(name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._named(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._named(name, Gauge, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS_S
    ) -> Histogram:
        return self._named(name, lambda n: Histogram(n, bounds), Histogram)

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
        """The metric object (or view callable) registered under a name."""
        metric = self._metrics.get(name)
        if metric is not None:
            return metric
        return self._views.get(name)

    def names(self) -> list:
        return sorted(set(self._metrics) | set(self._views))

    def snapshot(self) -> dict:
        """All metric values as one plain dict, stamped with sim time.

        Counters and gauges flatten to numbers, histograms to their
        summary dicts, views to whatever their callable returns.
        """
        out: dict = {
            "time": self._clock.now if self._clock is not None else 0.0,
        }
        metrics: dict = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                metrics[name] = metric.snapshot()
            else:
                metrics[name] = metric.value
        for name, fn in self._views.items():
            metrics[name] = fn()
        out["metrics"] = dict(sorted(metrics.items()))
        return out
