"""Information Update Protocol, scaled: deltas and adaptive throttling.

The paper's protocol has every LRM push its *complete* status record to
the GRM on a fixed interval, and explicitly frames the update frequency
as the knob trading scheduling freshness against intrusiveness on the
network.  :class:`DeltaSender` is the sender-side state machine that
makes both knobs cheap:

* **Delta encoding** — after the full snapshot sent at registration,
  only fields that actually changed travel; every ``full_refresh_every``
  sends a complete snapshot goes out anyway, so a dropped delta can
  desynchronise the GRM for at most K intervals.
* **Adaptive throttling** — while nothing changes (within ``epsilon``
  on float fields) the send interval stretches geometrically up to
  ``max_interval`` and snaps back to the base interval on the first
  change.  Unchanged intervals still produce a :data:`HEARTBEAT` (the
  LRM delivers it as the protocol's ``heartbeat(node)``) so GRM
  staleness detection keeps working.

The machine is deliberately free of any ORB or event-loop coupling:
:class:`~repro.core.lrm.Lrm` drives one instance per node, and the S3
benchmark drives tens of thousands without building full node stacks.
The payloads it produces travel as oneway requests: deltas shrink each
message and throttling sheds messages.  Inside one process they are
dispatched directly; between processes each is one TCP frame.

The ``"time"`` field is special: it changes every interval by
definition, so it never *triggers* an update, but every payload carries
it (the GRM uses it for freshness bookkeeping).
"""

from typing import Optional

#: Send an unconditional full snapshot every this-many sends (resync
#: bound after a lost delta).
DEFAULT_FULL_REFRESH_EVERY = 10

#: Geometric stretch factor applied to the interval while idle.
DEFAULT_THROTTLE_BACKOFF = 2.0

#: Payload kinds produced by :meth:`DeltaSender.encode`.
FULL = "full"
DELTA = "delta"
HEARTBEAT = "heartbeat"

#: Fields excluded from change detection (always sent, never a trigger).
_ALWAYS_VOLATILE = ("time",)


def apply_delta(state: dict, delta: dict) -> dict:
    """Receiver side: the new status after applying ``delta`` to ``state``.

    Returns a fresh dict; the input state is not mutated (the GRM's
    trader adopts status dicts without copying, so in-place mutation
    would corrupt the indexed offer).
    """
    merged = dict(state)
    merged.update(delta)
    return merged


class DeltaSender:
    """Per-node sender state for delta-compressed, throttled updates.

    The baseline mirrors exactly what the receiver last stored — it is
    advanced only by fields that were actually *sent*, so sub-epsilon
    drift accumulates against the baseline and is flushed once the
    cumulative change crosses ``epsilon`` (bounded staleness, not
    unbounded drift).
    """

    __slots__ = (
        "full_refresh_every", "epsilon", "base_interval", "max_interval",
        "backoff", "current_interval", "_baseline", "_sends_since_full",
    )

    def __init__(
        self,
        base_interval: float,
        full_refresh_every: int = DEFAULT_FULL_REFRESH_EVERY,
        epsilon: float = 0.0,
        max_interval: Optional[float] = None,
        backoff: float = DEFAULT_THROTTLE_BACKOFF,
    ):
        if base_interval <= 0:
            raise ValueError(f"base_interval must be positive, got {base_interval}")
        if full_refresh_every < 1:
            raise ValueError(
                f"full_refresh_every must be >= 1, got {full_refresh_every}"
            )
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if max_interval is not None and max_interval < base_interval:
            raise ValueError(
                f"max_interval {max_interval} is below base_interval "
                f"{base_interval}"
            )
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {backoff}")
        self.full_refresh_every = int(full_refresh_every)
        self.epsilon = float(epsilon)
        self.base_interval = float(base_interval)
        self.max_interval = (
            float(max_interval) if max_interval is not None else float(base_interval)
        )
        self.backoff = float(backoff)
        self.current_interval = float(base_interval)
        self._baseline: Optional[dict] = None
        self._sends_since_full = 0

    # -- sender-side protocol --------------------------------------------------

    def register(self, status: dict) -> None:
        """Seed the baseline with the full snapshot sent at registration."""
        self._baseline = dict(status)
        self._sends_since_full = 0
        self.current_interval = self.base_interval

    @property
    def baseline(self) -> Optional[dict]:
        """What the receiver currently stores (read-only copy)."""
        return dict(self._baseline) if self._baseline is not None else None

    def encode(self, status: dict):
        """One send: returns ``(kind, payload)`` and updates throttle state.

        ``kind`` is :data:`FULL` (complete snapshot), :data:`DELTA`
        (changed fields plus ``time``), or :data:`HEARTBEAT` (``time``
        only).  The throttle interval for the *next* send is left in
        :attr:`current_interval`: stretched while idle, snapped back to
        the base interval the moment anything changed.
        """
        baseline = self._baseline
        if baseline is None:
            raise RuntimeError("register() must seed the baseline before encode()")
        changed = self._changed_fields(status, baseline)
        if changed:
            self.current_interval = self.base_interval
        else:
            self.current_interval = min(
                self.current_interval * self.backoff, self.max_interval
            )
        self._sends_since_full += 1
        # A key vanishing from the status cannot be expressed as a delta
        # (deltas only set fields); fall back to a resynchronising full.
        removed = any(key not in status for key in baseline)
        if removed or self._sends_since_full >= self.full_refresh_every:
            self._baseline = dict(status)
            self._sends_since_full = 0
            return FULL, status
        for key in _ALWAYS_VOLATILE:
            if key in status:
                baseline[key] = status[key]
        if not changed:
            payload = {
                key: status[key] for key in _ALWAYS_VOLATILE if key in status
            }
            return HEARTBEAT, payload
        baseline.update(changed)
        delta = dict(changed)
        for key in _ALWAYS_VOLATILE:
            if key in status:
                delta[key] = status[key]
        return DELTA, delta

    def _changed_fields(self, status: dict, baseline: dict) -> dict:
        """Fields whose value moved past epsilon since the last send."""
        epsilon = self.epsilon
        changed = {}
        for key, value in status.items():
            if key in _ALWAYS_VOLATILE:
                continue
            old = baseline.get(key, _MISSING)
            if old is _MISSING:
                changed[key] = value
            elif epsilon > 0.0 and type(value) is float and type(old) is float:
                if abs(value - old) > epsilon:
                    changed[key] = value
            elif value != old:
                changed[key] = value
        return changed


class _Missing:
    __slots__ = ()

    def __repr__(self):
        return "<missing>"


_MISSING = _Missing()
