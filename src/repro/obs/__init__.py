"""Observability: metrics, event journal, health plane.

The always-on layer is the :class:`MetricsRegistry` — pull-views over
the components' existing cheap counters plus fixed-bucket latency
histograms, stamped in simulated time.  The opt-in diagnosis layer is
the :class:`EventJournal` — typed, causally-linked lifecycle events —
with :func:`failure_chains` forensics, threshold :class:`AlertRule`
evaluation, and the :func:`doctor_report` postmortem behind both
``cli doctor`` and the live :func:`grid_health_report`.

No layer draws randomness, schedules events, or changes the wire
format when idle, so observability never perturbs a deterministic run.
"""

from repro.obs.exporters import export_metrics_json
from repro.obs.health import (
    AlertRule,
    FailureChain,
    TaskRecovery,
    default_rules,
    doctor_report,
    evaluate_rules,
    failure_chains,
    flatten_metrics,
    grid_health_report,
    render_health_report,
)
from repro.obs.journal import (
    EVENT_TYPES,
    EventJournal,
    JournalEvent,
    JournalFormatError,
    export_journal_jsonl,
    load_journal_jsonl,
    validate_journal,
    validate_journal_file,
)
from repro.obs.metrics import (
    Histogram,
    LATENCY_BOUNDS_S,
    MetricsRegistry,
)

__all__ = [
    "AlertRule",
    "EVENT_TYPES",
    "EventJournal",
    "FailureChain",
    "Histogram",
    "JournalEvent",
    "JournalFormatError",
    "LATENCY_BOUNDS_S",
    "MetricsRegistry",
    "TaskRecovery",
    "default_rules",
    "doctor_report",
    "evaluate_rules",
    "export_journal_jsonl",
    "export_metrics_json",
    "failure_chains",
    "flatten_metrics",
    "grid_health_report",
    "load_journal_jsonl",
    "render_health_report",
    "validate_journal",
    "validate_journal_file",
]
