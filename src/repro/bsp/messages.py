"""BSMP — bulk synchronous message passing.

Messages sent during superstep *s* become visible to their destination
at superstep *s + 1*, after the global synchronisation.  Delivery order
is deterministic: sorted by sender pid, then send order.

With ``combining=True`` (opt-in) the buffers model InteGrade's batched
comm plane: instead of one ORB call per message, every message queued
for the same (sender, destination) pair during a superstep coalesces
into a single CDR-encoded payload flushed at the barrier — ORB calls
per superstep drop from O(messages) to O(communicating peer pairs).
Delivery contents and order are identical in both modes; only the
call/wire accounting changes.
"""

from typing import Any

#: Modelled fixed cost of one ORB invocation (request header, GIOP-style
#: framing, dispatch) — what message combining amortises away.
CALL_OVERHEAD_BYTES = 64


class MessageBuffers:
    """Per-run double-buffered mailboxes for ``nprocs`` processes."""

    def __init__(self, nprocs: int, combining: bool = False):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        self.combining = combining
        # outgoing[sender][dest] = [payload, ...]
        self._outgoing = [
            [[] for _ in range(nprocs)] for _ in range(nprocs)
        ]
        self._inbox: list[list] = [[] for _ in range(nprocs)]
        self.messages_sent = 0
        self.bytes_estimate = 0
        #: ORB invocations the comm plane would issue: one per message
        #: without combining, one per communicating pair per superstep
        #: with it.
        self.orb_calls = 0
        #: Modelled bytes on the wire including per-call overhead.  In
        #: combining mode this is the exact CDR size of each coalesced
        #: batch; without it, one framed call per message.
        self.wire_bytes = 0
        #: Per-pair batches flushed at barriers (combining only).
        self.flushes = 0

    def send(self, sender: int, dest: int, payload: Any) -> None:
        """Queue a message for delivery at the next superstep."""
        if not 0 <= dest < self.nprocs:
            raise ValueError(f"destination pid {dest} out of range")
        self._outgoing[sender][dest].append(payload)
        self.messages_sent += 1
        self.bytes_estimate += _payload_size(payload)
        if not self.combining:
            self.orb_calls += 1
            self.wire_bytes += CALL_OVERHEAD_BYTES + _payload_size(payload)

    def inbox(self, pid: int) -> list:
        """Messages delivered to ``pid`` at the last synchronisation."""
        return self._inbox[pid]

    def exchange(self) -> None:
        """Deliver all queued messages (called at the barrier)."""
        new_inbox: list[list] = [[] for _ in range(self.nprocs)]
        for sender in range(self.nprocs):
            for dest in range(self.nprocs):
                queued = self._outgoing[sender][dest]
                if queued:
                    new_inbox[dest].extend(queued)
                    if self.combining:
                        self.orb_calls += 1
                        self.flushes += 1
                        self.wire_bytes += \
                            CALL_OVERHEAD_BYTES + _batch_size(queued)
                    self._outgoing[sender][dest] = []
        self._inbox = new_inbox


def _batch_size(payloads: list) -> int:
    """Exact CDR size of one combined batch, when encodable.

    The coalesced flush ships the whole per-pair message list as a
    single VARIANT payload; payload types outside the VARIANT repertoire
    fall back to the heuristic estimate.
    """
    from repro.orb.cdr import CdrEncoder, VARIANT
    from repro.orb.exceptions import MarshalError
    enc = CdrEncoder()
    try:
        VARIANT.encode(enc, list(payloads))
    except MarshalError:
        return 4 + sum(_payload_size(p) for p in payloads)
    return len(enc.getvalue())


def _payload_size(payload: Any) -> int:
    """Rough wire size of a payload, for communication-cost accounting."""
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (list, tuple)):
        return 4 + sum(_payload_size(p) for p in payload)
    if isinstance(payload, dict):
        return 4 + sum(
            _payload_size(k) + _payload_size(v) for k, v in payload.items()
        )
    return 16
