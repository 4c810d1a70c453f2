"""Grid health plane: causal failure forensics and declarative alerts.

Two consumers sit on top of the :mod:`repro.obs.journal`:

* **Forensics** — :func:`failure_chains` rebuilds, from the journal
  alone, the causal chain each node death set off: the ``node_down``
  event, every ``task_evicted`` it caused, what each evicted task's
  recovery looked like (restored from a checkpoint vs restarted from
  zero vs never recovered), and the sim-time cost attributed to the
  crash (per-task stall off the CPU plus the checkpointed work lost).

* **Alerts** — :class:`AlertEvaluator` runs declarative
  threshold/absence/rate rules over a metrics mapping (a live
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` or a JSON file
  written by ``simulate --metrics-json``).  Rules are plain data
  (:class:`AlertRule`), so rule sets ship as dicts/JSON.

:func:`grid_health_report` combines both against a live grid;
:func:`doctor_report` does the same offline from an exported journal
(plus an optional metrics snapshot) — that is what ``cli doctor``
renders as a postmortem.
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
    """One declarative rule over a metrics mapping.

    ``kind`` is one of:

    * ``threshold`` — fire when ``metric`` exists and
      ``value_of(metric) <op> value``;
    * ``absence`` — fire when ``metric`` is missing from the snapshot
      (a component that should be reporting is not);
    * ``rate`` — fire when the metric's per-second rate of change
      between two successive ``evaluate`` calls satisfies ``op value``.

    ``metric`` may use dotted drill-down into structured values:
    ``grm.c0.rank_latency_s.p95`` reads the histogram snapshot's p95.
    """

    name: str
    kind: str
    metric: str
    op: str = ">="
    value: float = 0.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("threshold", "absence", "rate"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "AlertRule":
        return cls(**dict(data))


@dataclass
class AlertFiring:
    """One rule firing at one evaluation time."""

    rule: str
    severity: str
    metric: str
    observed: Optional[float]
    op: str
    value: float
    time: float
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "metric": self.metric,
            "observed": self.observed,
            "op": self.op,
            "value": self.value,
            "time": self.time,
            "description": self.description,
        }


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


class AlertEvaluator:
    """Evaluates a rule set against successive metric snapshots.

    Stateless per call except for ``rate`` rules (which need the
    previous sample) and the cumulative per-rule firing counts backing
    :meth:`top`.
    """

    def __init__(self, rules: Iterable):
        self.rules = [
            r if isinstance(r, AlertRule) else AlertRule.from_dict(r)
            for r in rules
        ]
        self.firings: list[AlertFiring] = []
        self._fire_counts: dict[str, int] = {}
        self._last_sample: dict[str, tuple] = {}   # rule -> (time, value)

    def evaluate(self, metrics: Mapping, time: float = 0.0) -> list:
        """Run every rule; returns (and remembers) this pass's firings."""
        flat = flatten_metrics(metrics)
        fired = []
        for rule in self.rules:
            observed = flat.get(rule.metric)
            if rule.kind == "absence":
                if observed is None:
                    fired.append(self._fire(rule, None, time))
                continue
            if rule.kind == "threshold":
                if observed is not None and \
                        _OPS[rule.op](observed, rule.value):
                    fired.append(self._fire(rule, observed, time))
                continue
            # rate: needs a previous sample with elapsed time
            previous = self._last_sample.get(rule.name)
            if observed is not None:
                self._last_sample[rule.name] = (time, observed)
            if previous is None or observed is None:
                continue
            prev_time, prev_value = previous
            if time <= prev_time:
                continue
            rate = (observed - prev_value) / (time - prev_time)
            if _OPS[rule.op](rate, rule.value):
                fired.append(self._fire(rule, rate, time))
        self.firings.extend(fired)
        return fired

    def _fire(self, rule: AlertRule, observed, time: float) -> AlertFiring:
        self._fire_counts[rule.name] = self._fire_counts.get(rule.name, 0) + 1
        return AlertFiring(
            rule=rule.name, severity=rule.severity, metric=rule.metric,
            observed=observed, op=rule.op, value=rule.value, time=time,
            description=rule.description,
        )

    def top(self, n: int = 5) -> list:
        """(rule name, firing count) pairs, most-fired first."""
        ranked = sorted(
            self._fire_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:n]


def default_rules(
    clusters: Iterable = (),
    update_interval: float = 60.0,
) -> list:
    """The stock rule set ``grid_health_report`` evaluates.

    Parameterised on the grid's shape: one dead-node, one
    status-staleness and one pending-jobs rule per cluster, plus
    grid-wide journal/tracer loss detectors.
    """
    rules = []
    for cluster in clusters:
        rules.append(AlertRule(
            name=f"dead-nodes.{cluster}", kind="threshold",
            metric=f"grm.{cluster}.nodes_declared_dead",
            op=">=", value=1, severity="critical",
            description="nodes declared dead by the liveness sweep",
        ))
        rules.append(AlertRule(
            name=f"status-staleness.{cluster}", kind="threshold",
            metric=f"grm.{cluster}.status_age_mean_s",
            op=">", value=3.0 * update_interval, severity="warning",
            description="GRM's node-status view is going stale",
        ))
        rules.append(AlertRule(
            name=f"pending-jobs.{cluster}", kind="threshold",
            metric=f"grm.{cluster}.pending_jobs",
            op=">=", value=1, severity="info",
            description="jobs waiting for resources",
        ))
    rules.append(AlertRule(
        name="journal-loss", kind="threshold",
        metric="obs.journal.dropped", op=">=", value=1,
        severity="warning",
        description="journal hit its bound; forensics tail is missing",
    ))
    rules.append(AlertRule(
        name="trace-loss", kind="threshold",
        metric="obs.trace.dropped_spans", op=">=", value=1,
        severity="warning",
        description="tracer hit max_spans; spans were dropped",
    ))
    return rules


# -- reports ------------------------------------------------------------------


def doctor_report(
    events: Iterable,
    metrics: Optional[Mapping] = None,
    rules: Optional[Iterable] = None,
    time: Optional[float] = None,
    top: int = 5,
) -> dict:
    """Postmortem assembled from journal events alone (plus optional
    metrics for alert evaluation).  This is the offline path behind
    ``cli doctor``: no live grid required.
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
    report = {
        "time": time,
        "events": len(events),
        "dead_nodes": [c.node for c in chains],
        "dead_clusters": dead_clusters,
        "chains": [c.to_dict() for c in chains],
        "jobs_affected": sorted({
            job for c in chains for job in c.jobs_affected
        }),
        "alerts": [],
        "top_alerts": [],
    }
    if metrics is not None:
        evaluator = AlertEvaluator(
            rules if rules is not None else default_rules()
        )
        fired = evaluator.evaluate(metrics, time=time)
        report["alerts"] = [f.to_dict() for f in fired]
        report["top_alerts"] = evaluator.top(top)
    return report


def grid_health_report(
    grid,
    rules: Optional[Iterable] = None,
    top: int = 5,
) -> dict:
    """Live health report for a grid with the journal enabled.

    Uses the journal for forensics and the metrics registry (enabled on
    first use, like :meth:`Grid.metrics_snapshot`) for alert rules; the
    stock rule set is shaped to the grid's clusters.
    """
    journal = getattr(grid, "journal", None)
    if journal is None:
        raise ValueError(
            "grid has no journal; call grid.enable_journal() first"
        )
    snapshot = grid.metrics_snapshot()
    if rules is None:
        rules = default_rules(
            clusters=sorted(grid.clusters),
            update_interval=grid.update_interval,
        )
    report = doctor_report(
        journal.events, metrics=snapshot["metrics"], rules=rules,
        time=snapshot["time"], top=top,
    )
    report["journal"] = {
        "recorded": journal.recorded,
        "dropped": journal.dropped,
        "size": len(journal),
    }
    return report


def render_health_report(report: Mapping) -> str:
    """Human-readable postmortem: dead nodes, recovery, top alerts."""
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
            observed = alert.get("observed")
            shown = f"{observed:.4g}" if observed is not None else "absent"
            lines.append(
                f"    [{alert['severity']}] {alert['rule']}: "
                f"{alert['metric']} = {shown} "
                f"(rule: {alert['op']} {alert['value']:g})"
            )
    else:
        lines.append("  no alerts firing")
    topn = report.get("top_alerts", ())
    if topn:
        lines.append("  top alert firings: " + ", ".join(
            f"{name} x{count}" for name, count in topn
        ))
    return "\n".join(lines)
