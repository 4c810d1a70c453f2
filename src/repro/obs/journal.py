"""Structured event journal: typed, causally linked grid lifecycle records.

Metrics say *how much* and spans say *how long*; neither answers "node
N died — which tasks were evicted, which checkpoints brought them back,
and what did the crash cost?".  The journal records the grid's discrete
lifecycle transitions as typed events with **causal links**: an event
may name the sequence number of the event that caused it (a
``task_evicted`` caused by a ``node_down``), so forensics can rebuild
whole failure chains after the fact from the journal alone.

Design rules, identical to the metrics/tracer layers:

* **Simulated time.**  Events are stamped from the experiment's
  :class:`~repro.sim.events.EventLoop`, so they line up with metric
  snapshots and spans.
* **Deterministic.**  Recording draws no randomness and schedules no
  events; sequence numbers come from a plain counter.  Enabling the
  journal can never perturb a run.
* **Opt-in and bounded.**  Components guard on
  ``journal is not None and journal.active`` — the disabled path is one
  attribute check.  The buffer is bounded (``max_events``); past the cap
  new events are *counted* as dropped, never silently lost, and causal
  sequence numbers keep advancing so links stay valid.
* **Exportable.**  One JSON object per line
  (:func:`export_journal_jsonl`), with a schema validator
  (:func:`validate_journal`) that CI runs against the CLI's export.
"""

import json
from typing import Iterable, Optional

from repro.obs.exporters import PathOrFile, _open_for_write

#: The closed set of event types components may record.  Holding the
#: vocabulary closed is what lets the forensics engine and the schema
#: validator reason about journals from any run.
EVENT_TYPES = frozenset({
    "node_up",
    "node_down",
    "cluster_up",
    "cluster_down",
    "task_scheduled",
    "task_evicted",
    "task_restored",
    "task_completed",
    "checkpoint_saved",
    "checkpoint_restored",
    "reservation_granted",
    "reservation_violated",
    "bsp_superstep",
    "update_dropped",
})


class JournalFormatError(ValueError):
    """An exported journal does not conform to the event schema."""


class JournalEvent:
    """One recorded lifecycle transition."""

    __slots__ = ("seq", "time", "type", "node", "job_id", "task_id",
                 "cause", "attrs")

    def __init__(self, seq, time, type, node=None, job_id=None,
                 task_id=None, cause=None, attrs=None):
        self.seq = seq
        self.time = time
        self.type = type
        self.node = node
        self.job_id = job_id
        self.task_id = task_id
        self.cause = cause
        self.attrs = attrs if attrs is not None else {}

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "type": self.type,
            "node": self.node,
            "job_id": self.job_id,
            "task_id": self.task_id,
            "cause": self.cause,
            "attrs": self.attrs,
        }

    def __repr__(self):
        return (f"JournalEvent(#{self.seq} t={self.time} {self.type} "
                f"node={self.node} job={self.job_id} task={self.task_id} "
                f"cause={self.cause})")


class EventJournal:
    """Bounded, sim-time-stamped journal of typed grid events.

    ``clock`` is anything with a ``now`` attribute (normally the
    experiment's :class:`~repro.sim.events.EventLoop`); without one,
    events carry ``time: 0.0``.
    """

    def __init__(self, clock=None, max_events: int = 200_000):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self._clock = clock
        self._max_events = max_events
        self.events: list[JournalEvent] = []
        self.recorded = 0
        self.dropped = 0
        self._seq = 0
        self._active = True

    # -- switching -----------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def enable(self) -> None:
        self._active = True

    def disable(self) -> None:
        """Stop recording; sequence numbers keep advancing on re-enable."""
        self._active = False

    def clear(self) -> None:
        self.events.clear()
        self.recorded = 0
        self.dropped = 0

    # -- recording -----------------------------------------------------------

    def record(
        self,
        type: str,
        node: Optional[str] = None,
        job_id: Optional[str] = None,
        task_id: Optional[str] = None,
        cause: Optional[int] = None,
        **attrs,
    ) -> Optional[JournalEvent]:
        """Record one event; returns it (for causal chaining), or None
        when the journal is disabled.

        Past ``max_events`` the event is still constructed and counted
        (so its ``seq`` stays usable as a cause for later events) but
        not kept — ``dropped`` says how much of the tail is missing.
        """
        if not self._active:
            return None
        if type not in EVENT_TYPES:
            raise ValueError(f"unknown journal event type {type!r}")
        seq = self._seq
        self._seq = seq + 1
        event = JournalEvent(
            seq,
            self._clock.now if self._clock is not None else 0.0,
            type, node, job_id, task_id, cause, attrs,
        )
        if len(self.events) < self._max_events:
            self.events.append(event)
            self.recorded += 1
        else:
            self.dropped += 1
        return event

    # -- queries -------------------------------------------------------------

    def select(
        self,
        type: Optional[str] = None,
        node: Optional[str] = None,
        job_id: Optional[str] = None,
        task_id: Optional[str] = None,
    ) -> list:
        """Events matching every given filter, in recording order."""
        return [
            e for e in self.events
            if (type is None or e.type == type)
            and (node is None or e.node == node)
            and (job_id is None or e.job_id == job_id)
            and (task_id is None or e.task_id == task_id)
        ]

    def __len__(self) -> int:
        return len(self.events)

    # -- observability -------------------------------------------------------

    def to_metrics(self, registry) -> None:
        """Publish journal accounting as registry views."""
        registry.view("obs.journal.recorded", lambda: self.recorded)
        registry.view("obs.journal.dropped", lambda: self.dropped)
        registry.view("obs.journal.size", lambda: len(self.events))


# -- export / import ----------------------------------------------------------


def export_journal_jsonl(events: Iterable, target: PathOrFile) -> int:
    """Write events one-JSON-object-per-line; returns the event count.

    Accepts :class:`JournalEvent` objects or already-plain dicts.
    """
    f, owned = _open_for_write(target)
    try:
        count = 0
        for event in events:
            record = event if isinstance(event, dict) else event.to_dict()
            f.write(json.dumps(record, sort_keys=True))
            f.write("\n")
            count += 1
        return count
    finally:
        if owned:
            f.close()


def load_journal_jsonl(path: str) -> list:
    """Parse a journal JSONL file into a list of event dicts."""
    events = []
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise JournalFormatError(
                    f"line {i + 1} is not valid JSON: {exc}"
                ) from exc
    return events


# -- schema validation --------------------------------------------------------

_OPTIONAL_STR_FIELDS = ("node", "job_id", "task_id")


def validate_journal(events: Iterable) -> int:
    """Check parsed journal events; returns the event count.

    Enforces the schema every consumer (forensics, doctor) relies on:
    required fields with the right types, a known event type, strictly
    increasing sequence numbers, non-decreasing times, and causal links
    that point backwards (an event cannot be caused by a later one).
    Raises :class:`JournalFormatError` on the first violation.
    """
    count = 0
    last_seq = None
    last_time = None
    for i, event in enumerate(events):
        if isinstance(event, JournalEvent):
            event = event.to_dict()
        if not isinstance(event, dict):
            raise JournalFormatError(f"event {i} is not an object")
        for key in ("seq", "time", "type", "attrs"):
            if key not in event:
                raise JournalFormatError(f"event {i} is missing {key!r}")
        seq = event["seq"]
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise JournalFormatError(f"event {i}: 'seq' must be an integer")
        if last_seq is not None and seq <= last_seq:
            raise JournalFormatError(
                f"event {i}: seq {seq} does not increase past {last_seq}"
            )
        time = event["time"]
        if not isinstance(time, (int, float)) or isinstance(time, bool):
            raise JournalFormatError(f"event {i}: 'time' must be a number")
        if last_time is not None and time < last_time:
            raise JournalFormatError(
                f"event {i}: time {time} goes backwards from {last_time}"
            )
        if event["type"] not in EVENT_TYPES:
            raise JournalFormatError(
                f"event {i}: unknown type {event['type']!r}"
            )
        for key in _OPTIONAL_STR_FIELDS:
            value = event.get(key)
            if value is not None and not isinstance(value, str):
                raise JournalFormatError(
                    f"event {i}: {key!r} must be a string or null"
                )
        cause = event.get("cause")
        if cause is not None:
            if not isinstance(cause, int) or isinstance(cause, bool):
                raise JournalFormatError(
                    f"event {i}: 'cause' must be an integer or null"
                )
            if cause >= seq:
                raise JournalFormatError(
                    f"event {i}: cause {cause} does not precede seq {seq}"
                )
        if not isinstance(event["attrs"], dict):
            raise JournalFormatError(f"event {i}: 'attrs' must be an object")
        last_seq = seq
        last_time = time
        count += 1
    return count


def validate_journal_file(path: str) -> int:
    """Parse and validate a journal JSONL file; returns the event count."""
    return validate_journal(load_journal_jsonl(path))
