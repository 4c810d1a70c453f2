"""BSMP — bulk synchronous message passing.

Messages sent during superstep *s* become visible to their destination
at superstep *s + 1*, after the global synchronisation.  Delivery order
is deterministic: sorted by sender pid, then send order.

One message is one ORB call, always: ``orb_calls`` and ``wire_bytes``
model what the comm plane would put on the wire, one framed call per
``send``.
"""

from typing import Any

#: Modelled fixed cost of one ORB invocation (request header, GIOP-style
#: framing, dispatch).
CALL_OVERHEAD_BYTES = 64


class MessageBuffers:
    """Per-run double-buffered mailboxes for ``nprocs`` processes."""

    def __init__(self, nprocs: int):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        # outgoing[sender][dest] = [payload, ...]
        self._outgoing = [
            [[] for _ in range(nprocs)] for _ in range(nprocs)
        ]
        self._inbox: list[list] = [[] for _ in range(nprocs)]
        self.messages_sent = 0
        self.bytes_estimate = 0
        #: ORB invocations the comm plane would issue: one per message.
        self.orb_calls = 0
        #: Modelled bytes on the wire including per-call overhead.
        self.wire_bytes = 0

    def send(self, sender: int, dest: int, payload: Any) -> None:
        """Queue a message for delivery at the next superstep."""
        if not 0 <= dest < self.nprocs:
            raise ValueError(f"destination pid {dest} out of range")
        self._outgoing[sender][dest].append(payload)
        size = _payload_size(payload)
        self.messages_sent += 1
        self.bytes_estimate += size
        self.orb_calls += 1
        self.wire_bytes += CALL_OVERHEAD_BYTES + size

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
                    self._outgoing[sender][dest] = []
        self._inbox = new_inbox


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
