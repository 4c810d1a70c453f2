"""Cluster monitoring: utilisation time series.

The paper's information service feeds schedulers; operators need the
same data over time.  A :class:`ClusterMonitor` samples one cluster's
state on a fixed period and keeps a bounded time series — shared-node
count, free/used CPU, owner activity, running grid tasks, pending tasks
— which examples and experiment harnesses render or aggregate.
"""

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.grm import Grm
from repro.sim.events import EventLoop

DEFAULT_PERIOD = 300.0
DEFAULT_KEEP = 10_000


@dataclass(frozen=True)
class ClusterSnapshot:
    """One sampled point of cluster state."""

    time: float
    nodes: int
    sharing_nodes: int
    owner_active_nodes: int
    cpu_capacity: float        # node count (1.0 CPU each)
    cpu_free_for_grid: float
    cpu_grid_running: float    # grid tasks currently placed, in CPUs
    grid_tasks: int
    pending_tasks: int

    @property
    def grid_utilisation(self) -> float:
        """Fraction of total CPU capacity running grid work."""
        if self.cpu_capacity <= 0:
            return 0.0
        return self.cpu_grid_running / self.cpu_capacity

    @property
    def harvest_ratio(self) -> float:
        """Grid CPUs in use / (grid in use + still free): supply uptake."""
        supply = self.cpu_grid_running + self.cpu_free_for_grid
        if supply <= 0:
            return 0.0
        return self.cpu_grid_running / supply


class ClusterMonitor:
    """Periodically samples one GRM's view of its cluster."""

    def __init__(
        self,
        loop: EventLoop,
        grm: Grm,
        period: float = DEFAULT_PERIOD,
        keep: int = DEFAULT_KEEP,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        if keep < 1:
            raise ValueError("must keep at least one snapshot")
        self._loop = loop
        self._grm = grm
        self.period = period
        self._snapshots: deque = deque(maxlen=keep)
        self._task = loop.every(period, self.sample)

    def sample(self) -> ClusterSnapshot:
        """Take one snapshot now (also called by the periodic task)."""
        statuses = [
            record.last_status for record in self._grm._nodes.values()
        ]
        summary = self._grm.cluster_summary()
        snapshot = ClusterSnapshot(
            time=self._loop.now,
            nodes=len(statuses),
            sharing_nodes=sum(1 for s in statuses if s["sharing"]),
            owner_active_nodes=sum(1 for s in statuses if s["owner_active"]),
            cpu_capacity=float(len(statuses)),
            cpu_free_for_grid=sum(s["cpu_free"] for s in statuses),
            cpu_grid_running=self._grid_cpu_estimate(statuses),
            grid_tasks=sum(s["grid_tasks"] for s in statuses),
            pending_tasks=summary["pending_tasks"],
        )
        self._snapshots.append(snapshot)
        return snapshot

    @staticmethod
    def _grid_cpu_estimate(statuses: list) -> float:
        """Grid CPUs in use: capacity under the cap minus what's free.

        NodeStatus does not carry an explicit grid-share field (the
        paper's message set does not either), but ``cpu_free`` already
        subtracts both owner and grid usage from the cap, so nodes with
        running grid tasks show the difference.
        """
        total = 0.0
        for status in statuses:
            if status["grid_tasks"] > 0:
                owner = 1.0 if status["owner_active"] else 0.0
                # Conservative estimate: whatever of the unit CPU is
                # neither free nor (roughly) the owner's.
                total += max(0.0, 1.0 - status["cpu_free"] - owner * 0.5)
        return total

    def stop(self) -> None:
        self._task.stop()

    # -- observability ---------------------------------------------------------

    def to_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Publish the latest snapshot's fields as registry views.

        Views read :meth:`latest` lazily, so a metrics snapshot always
        reflects the monitor's most recent sample without extra sampling
        work on the monitor's own period.  Before the first sample every
        view reads 0.
        """
        prefix = prefix if prefix is not None else \
            f"monitor.{self._grm.cluster}"

        def field_view(name):
            def read():
                snapshot = self.latest()
                return getattr(snapshot, name) if snapshot is not None else 0
            return read

        for name in (
            "nodes", "sharing_nodes", "owner_active_nodes",
            "cpu_capacity", "cpu_free_for_grid", "cpu_grid_running",
            "grid_tasks", "pending_tasks",
            "grid_utilisation", "harvest_ratio",
        ):
            registry.view(f"{prefix}.{name}", field_view(name))
        registry.view(f"{prefix}.samples", lambda: len(self._snapshots))
        registry.view(f"{prefix}.status_age_mean_s",
                      self._grm.status_age_mean)

    # -- queries ---------------------------------------------------------------

    @property
    def snapshots(self) -> list:
        return list(self._snapshots)

    def latest(self) -> Optional[ClusterSnapshot]:
        return self._snapshots[-1] if self._snapshots else None

    def series(self, field: str) -> list:
        """(time, value) pairs for one snapshot attribute."""
        return [(s.time, getattr(s, field)) for s in self._snapshots]

    def mean(self, field: str) -> float:
        """Time-average of one attribute over the kept window."""
        if not self._snapshots:
            return 0.0
        values = [getattr(s, field) for s in self._snapshots]
        return sum(values) / len(values)

    def sparkline(self, field: str, width: int = 60) -> str:
        """A compact ASCII rendering of one attribute's history."""
        marks = " .:-=+*#%@"
        points = [getattr(s, field) for s in self._snapshots]
        if not points:
            return ""
        if len(points) > width:
            stride = len(points) / width
            points = [
                points[int(i * stride)] for i in range(width)
            ]
        top = max(points) or 1.0
        return "".join(
            marks[min(len(marks) - 1, int(p / top * (len(marks) - 1)))]
            for p in points
        )
