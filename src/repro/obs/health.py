"""Grid health plane: causal failure forensics and declarative alerts.

Two consumers sit on top of the :mod:`repro.obs.journal`:

* **Forensics** — :func:`failure_chains` rebuilds, from the journal
  alone, the causal chain each node death set off: the ``node_down``
  event, every ``task_evicted`` it caused, what each evicted task's
  recovery looked like (restored from a checkpoint vs restarted from
  zero vs never recovered), and the sim-time cost attributed to the
  crash (per-task stall off the CPU plus the checkpointed work lost).

* **Alerts** — :func:`evaluate_rules` checks threshold rules
  (:class:`AlertRule`) once against a metrics mapping (a live
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` or a JSON file
  written by ``simulate --metrics-json``); :func:`default_rules` shapes
  the stock set from the metric names and values themselves.

:func:`doctor_report` combines both from an exported journal (plus an
optional metrics snapshot) — that is what ``cli doctor`` renders as a
postmortem; :func:`grid_health_report` runs it against a live grid, so
the two agree on the same run.
"""

import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.obs.journal import JournalEvent

# -- forensics ----------------------------------------------------------------


@dataclass
class TaskRecovery:
    """What happened to one task evicted by a crash."""

    task_id: str
    job_id: Optional[str]
    evicted_at: float
    evicted_seq: int
    outcome: str                      # restored | restarted | unrecovered
    resume_progress_mips: float = 0.0
    lost_progress_mips: float = 0.0
    rescheduled_at: Optional[float] = None
    rescheduled_node: Optional[str] = None
    completed_at: Optional[float] = None

    @property
    def stall_s(self) -> float:
        """Sim seconds the task sat off the CPU because of the crash."""
        if self.rescheduled_at is None:
            return 0.0
        return max(0.0, self.rescheduled_at - self.evicted_at)

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "job_id": self.job_id,
            "evicted_at": self.evicted_at,
            "outcome": self.outcome,
            "resume_progress_mips": self.resume_progress_mips,
            "lost_progress_mips": self.lost_progress_mips,
            "rescheduled_at": self.rescheduled_at,
            "rescheduled_node": self.rescheduled_node,
            "completed_at": self.completed_at,
            "stall_s": self.stall_s,
        }


@dataclass
class FailureChain:
    """One node death and everything the journal says it caused."""

    node: str
    down_seq: int
    down_at: float
    reason: str = ""
    #: Sim seconds between the node's last accepted status update and
    #: the death being declared: the liveness window the tasks silently
    #: sat dead through before anyone acted.
    detection_s: float = 0.0
    tasks: list = field(default_factory=list)       # [TaskRecovery]
    checkpoints_restored: int = 0

    @property
    def cost_s(self) -> float:
        """Total sim-time delay attributed to this crash.

        Each evicted task pays the detection window (it was dead on the
        node but not yet requeued) plus its own requeue stall; parallel
        stalls each cost their own idle time, so they sum."""
        return sum(self.detection_s + t.stall_s for t in self.tasks)

    @property
    def jobs_affected(self) -> list:
        return sorted({t.job_id for t in self.tasks if t.job_id})

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "down_at": self.down_at,
            "reason": self.reason,
            "detection_s": self.detection_s,
            "tasks": [t.to_dict() for t in self.tasks],
            "jobs_affected": self.jobs_affected,
            "checkpoints_restored": self.checkpoints_restored,
            "cost_s": self.cost_s,
        }


def _as_dicts(events: Iterable) -> list:
    return [
        e.to_dict() if isinstance(e, JournalEvent) else e for e in events
    ]


def failure_chains(events: Iterable) -> list:
    """Reconstruct every node-death causal chain from journal events.

    Works on :class:`JournalEvent` objects or plain dicts (a loaded
    JSONL export).  Evictions join a chain through their ``cause`` link
    to the ``node_down`` event; recovery outcomes come from the next
    ``task_scheduled``/``task_restored`` event of the same task.
    """
    events = _as_dicts(events)
    by_task: dict[str, list] = {}
    for event in events:
        task_id = event.get("task_id")
        if task_id is not None:
            by_task.setdefault(task_id, []).append(event)

    chains = []
    for down in events:
        if down["type"] != "node_down":
            continue
        down_attrs = down.get("attrs", {})
        last_seen = down_attrs.get("last_seen")
        chain = FailureChain(
            node=down.get("node") or "?",
            down_seq=down["seq"],
            down_at=down["time"],
            reason=down_attrs.get("reason", ""),
            detection_s=max(0.0, down["time"] - last_seen)
            if last_seen is not None else 0.0,
        )
        chain.checkpoints_restored = sum(
            1 for e in events
            if e["type"] == "checkpoint_restored"
            and e.get("cause") == down["seq"]
        )
        for evicted in events:
            if evicted["type"] != "task_evicted" \
                    or evicted.get("cause") != down["seq"]:
                continue
            task_id = evicted.get("task_id") or "?"
            attrs = evicted.get("attrs", {})
            later = [
                e for e in by_task.get(task_id, ())
                if e["seq"] > evicted["seq"]
            ]
            resched = next(
                (e for e in later if e["type"] == "task_scheduled"), None
            )
            restored = next(
                (e for e in later if e["type"] == "task_restored"), None
            )
            completed = next(
                (e for e in later if e["type"] == "task_completed"), None
            )
            if resched is None:
                outcome = "unrecovered"
            elif restored is not None or resched.get("attrs", {}).get(
                    "initial_progress_mips", 0.0) > 0.0:
                outcome = "restored"
            else:
                outcome = "restarted"
            chain.tasks.append(TaskRecovery(
                task_id=task_id,
                job_id=evicted.get("job_id"),
                evicted_at=evicted["time"],
                evicted_seq=evicted["seq"],
                outcome=outcome,
                resume_progress_mips=attrs.get("resume_progress_mips", 0.0),
                lost_progress_mips=max(
                    0.0,
                    attrs.get("progress_mips", 0.0)
                    - attrs.get("resume_progress_mips", 0.0),
                ),
                rescheduled_at=resched["time"] if resched else None,
                rescheduled_node=resched.get("node") if resched else None,
                completed_at=completed["time"] if completed else None,
            ))
        chains.append(chain)
    return chains


# -- alert rules --------------------------------------------------------------

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class AlertRule:
    """One threshold rule: fire when ``metric`` is in the snapshot and
    ``value_of(metric) <op> value``.

    ``metric`` may use dotted drill-down into structured values:
    ``grm.c0.rank_latency_s.p95`` reads the histogram snapshot's p95.
    """

    name: str
    metric: str
    op: str = ">="
    value: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")


def flatten_metrics(metrics: Mapping) -> dict:
    """Numeric leaves of a metrics mapping, dict values dotted in.

    Histogram snapshots contribute ``name.count`` / ``name.p95`` / ...;
    the nested ``buckets`` structure and non-numeric leaves are skipped.
    """
    flat: dict = {}

    def visit(prefix, value):
        if isinstance(value, bool):
            flat[prefix] = float(value)
        elif isinstance(value, (int, float)):
            flat[prefix] = value
        elif isinstance(value, Mapping):
            for key, sub in value.items():
                visit(f"{prefix}.{key}" if prefix else str(key), sub)

    for name, value in metrics.items():
        visit(str(name), value)
    return flat


def evaluate_rules(rules: Iterable, metrics: Mapping, time: float) -> list:
    """The alert dicts of every rule that fires on ``metrics`` at ``time``."""
    flat = flatten_metrics(metrics)
    return [
        {
            "rule": rule.name,
            "severity": rule.severity,
            "metric": rule.metric,
            "observed": flat[rule.metric],
            "op": rule.op,
            "value": rule.value,
            "time": time,
            "description": rule.description,
        }
        for rule in rules
        if rule.metric in flat and _OPS[rule.op](flat[rule.metric], rule.value)
    ]


def default_rules(metrics: Mapping) -> list:
    """The stock rule set, shaped from a metrics snapshot.

    Every cluster with ``grm.<cluster>.*`` metrics gets a dead-node, a
    status-staleness and a pending-jobs rule; the staleness threshold is
    three of the update intervals its GRM publishes as
    ``grm.<cluster>.update_interval_s`` (a snapshot without that view
    gets no staleness rule for the cluster).  A grid-wide journal-loss
    detector closes the set.
    """
    clusters = sorted({
        name.split(".", 2)[1] for name in metrics
        if name.startswith("grm.") and name.count(".") >= 2
    })
    rules = []
    for cluster in clusters:
        rules.append(AlertRule(
            name=f"dead-nodes.{cluster}",
            metric=f"grm.{cluster}.nodes_declared_dead",
            op=">=", value=1, severity="critical",
            description="nodes declared dead by the liveness sweep",
        ))
        interval = metrics.get(f"grm.{cluster}.update_interval_s")
        if interval is not None:
            rules.append(AlertRule(
                name=f"status-staleness.{cluster}",
                metric=f"grm.{cluster}.status_age_mean_s",
                op=">", value=3.0 * interval, severity="warning",
                description="GRM's node-status view is going stale",
            ))
        rules.append(AlertRule(
            name=f"pending-jobs.{cluster}",
            metric=f"grm.{cluster}.pending_jobs",
            op=">=", value=1, severity="info",
            description="jobs waiting for resources",
        ))
    rules.append(AlertRule(
        name="journal-loss",
        metric="obs.journal.dropped", op=">=", value=1,
        severity="warning",
        description="journal hit its bound; forensics tail is missing",
    ))
    return rules


# -- reports ------------------------------------------------------------------


def doctor_report(
    events: Iterable,
    metrics: Optional[Mapping] = None,
    rules: Optional[Iterable] = None,
    time: Optional[float] = None,
) -> dict:
    """Postmortem assembled from journal events alone (plus optional
    metrics for alert evaluation, by ``rules`` or else
    :func:`default_rules` shaped from the metrics).  This is the one
    report: ``cli doctor`` runs it offline on exported files and
    :func:`grid_health_report` on the live grid.
    """
    events = _as_dicts(events)
    chains = failure_chains(events)
    if time is None:
        time = events[-1]["time"] if events else 0.0
    # Wide-area forensics: a cluster is dead if its last lifecycle event
    # at any parent was cluster_down (a later cluster_up revives it).
    cluster_state: dict = {}
    for event in events:
        if event["type"] in ("cluster_up", "cluster_down"):
            cluster = event["attrs"].get("cluster")
            if cluster is not None:
                cluster_state[cluster] = event
    dead_clusters = [
        {
            "cluster": cluster,
            "parent": event["attrs"].get("parent"),
            "down_at": event["time"],
            "reason": event["attrs"].get("reason"),
            "last_seen": event["attrs"].get("last_seen"),
        }
        for cluster, event in sorted(cluster_state.items())
        if event["type"] == "cluster_down"
    ]
    return {
        "time": time,
        "events": len(events),
        "dead_nodes": [c.node for c in chains],
        "dead_clusters": dead_clusters,
        "chains": [c.to_dict() for c in chains],
        "jobs_affected": sorted({
            job for c in chains for job in c.jobs_affected
        }),
        "alerts": [] if metrics is None else evaluate_rules(
            rules if rules is not None else default_rules(metrics),
            metrics, time,
        ),
    }


def grid_health_report(grid, rules: Optional[Iterable] = None) -> dict:
    """Live health report for a grid with the journal enabled.

    :func:`doctor_report` over the journal and a snapshot of the metrics
    registry (enabled on first use, like :meth:`Grid.metrics_snapshot`),
    stamped with the snapshot's time: the report ``cli doctor`` gives
    for the same exported files.
    """
    journal = getattr(grid, "journal", None)
    if journal is None:
        raise ValueError(
            "grid has no journal; call grid.enable_journal() first"
        )
    snapshot = grid.metrics_snapshot()
    report = doctor_report(
        journal.events, metrics=snapshot["metrics"], rules=rules,
        time=snapshot["time"],
    )
    report["journal"] = {
        "recorded": journal.recorded,
        "dropped": journal.dropped,
        "size": len(journal),
    }
    return report


def render_health_report(report: Mapping) -> str:
    """Human-readable postmortem: dead nodes, recovery, alerts."""
    lines = [f"Grid health report at t={report.get('time', 0.0):.0f}s "
             f"({report.get('events', 0)} journal events)"]
    chains = report.get("chains", ())
    if not chains:
        lines.append("  no node deaths recorded")
    for chain in chains:
        lines.append(
            f"  node {chain['node']} DOWN at t={chain['down_at']:.0f}s"
            + (f" ({chain['reason']})" if chain.get("reason") else "")
            + (f", detected after {chain['detection_s']:.0f}s"
               if chain.get("detection_s") else "")
            + f": {len(chain['tasks'])} task(s) evicted, "
            f"{chain['checkpoints_restored']} checkpoint(s) restored, "
            f"cost {chain['cost_s']:.0f}s"
        )
        for task in chain["tasks"]:
            completed = task.get("completed_at")
            lines.append(
                f"    {task['task_id']} ({task.get('job_id')}): "
                f"{task['outcome']}"
                + (f" at +{task['stall_s']:.0f}s"
                   if task.get("rescheduled_at") is not None else "")
                + (f", lost {task['lost_progress_mips']:.0f} MIPS"
                   if task.get("lost_progress_mips") else "")
                + (f", completed t={completed:.0f}s"
                   if completed is not None else ", not completed")
            )
    for dead in report.get("dead_clusters", ()):
        lines.append(
            f"  cluster {dead['cluster']} DOWN at t={dead['down_at']:.0f}s"
            + (f" at parent {dead['parent']}" if dead.get("parent") else "")
            + (f" ({dead['reason']})" if dead.get("reason") else "")
        )
    jobs = report.get("jobs_affected", ())
    if jobs:
        lines.append(f"  jobs affected: {', '.join(jobs)}")
    alerts = report.get("alerts", ())
    if alerts:
        lines.append(f"  alerts firing ({len(alerts)}):")
        for alert in alerts:
            lines.append(
                f"    [{alert['severity']}] {alert['rule']}: "
                f"{alert['metric']} = {alert['observed']:.4g} "
                f"(rule: {alert['op']} {alert['value']:g})"
            )
    else:
        lines.append("  no alerts firing")
    return "\n".join(lines)
