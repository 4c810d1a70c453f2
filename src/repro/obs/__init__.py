"""Observability: metrics, span tracer, event journal, health plane.

The always-on layer is the :class:`MetricsRegistry` — pull-views over
the components' existing cheap counters plus fixed-bucket latency
histograms, stamped in simulated time.  The opt-in layer is the
:class:`Tracer`, whose spans follow one submission across LRM, Trader,
GRM, and reservation hops via ORB-propagated trace context, and export
to JSONL or Chrome ``trace_event`` JSON.  The diagnosis layer is the
:class:`EventJournal` — typed, causally-linked lifecycle events — with
:func:`failure_chains` forensics, threshold :class:`AlertRule`
evaluation, and the :func:`doctor_report` postmortem behind both
``cli doctor`` and the live :func:`grid_health_report`.

No layer draws randomness, schedules events, or changes the wire
format when idle, so observability never perturbs a deterministic run.
"""

from repro.obs.exporters import (
    TraceFormatError,
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
    export_metrics_json,
    validate_chrome_trace,
    validate_chrome_trace_file,
)
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
from repro.obs.trace import NULL_SPAN, Span, Tracer

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
    "NULL_SPAN",
    "Span",
    "TaskRecovery",
    "Tracer",
    "TraceFormatError",
    "chrome_trace_events",
    "default_rules",
    "doctor_report",
    "evaluate_rules",
    "export_chrome_trace",
    "export_journal_jsonl",
    "export_jsonl",
    "export_metrics_json",
    "failure_chains",
    "flatten_metrics",
    "grid_health_report",
    "load_journal_jsonl",
    "render_health_report",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "validate_journal",
    "validate_journal_file",
]
