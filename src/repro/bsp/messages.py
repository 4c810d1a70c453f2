"""BSMP — bulk synchronous message passing.

Messages sent during superstep *s* become visible to their destination
at superstep *s + 1*, after the global synchronisation.  Delivery order
is deterministic: sorted by sender pid, then send order.

One message is one ORB call, always: ``orb_calls`` and ``wire_bytes``
model what the comm plane would put on the wire, one framed call per
``send``; both are derived from the two counters ``send`` bumps.
"""

from collections import defaultdict
from typing import Any

#: Modelled fixed cost of one ORB invocation (request header, GIOP-style
#: framing, dispatch).
CALL_OVERHEAD_BYTES = 64

#: Sizes of the exact scalar types; subclasses take the ``isinstance`` path.
_SCALAR_SIZE = {bool: 1, int: 8, float: 8}


class MessageBuffers:
    """Per-run double-buffered mailboxes for ``nprocs`` processes."""

    def __init__(self, nprocs: int):
        if nprocs <= 0:
            raise ValueError("nprocs must be positive")
        self.nprocs = nprocs
        # outgoing[sender][dest] = [payload, ...], only for dests sent to
        self._outgoing = [defaultdict(list) for _ in range(nprocs)]
        self._inbox: list[list] = [[] for _ in range(nprocs)]
        self.messages_sent = 0
        self.bytes_estimate = 0

    @property
    def orb_calls(self) -> int:
        """ORB invocations the comm plane would issue: one per message."""
        return self.messages_sent

    @property
    def wire_bytes(self) -> int:
        """Modelled bytes on the wire including per-call overhead."""
        return self.bytes_estimate + CALL_OVERHEAD_BYTES * self.messages_sent

    def send(self, sender: int, dest: int, payload: Any) -> None:
        """Queue a message for delivery at the next superstep."""
        if not 0 <= sender < self.nprocs:
            raise ValueError(f"sender pid {sender} out of range")
        if not 0 <= dest < self.nprocs:
            raise ValueError(f"destination pid {dest} out of range")
        self._outgoing[sender][dest].append(payload)
        # Never read and write a counter across a call: threads switch there.
        size = _payload_size(payload)
        self.messages_sent += 1
        self.bytes_estimate += size

    def inbox(self, pid: int) -> list:
        """Messages delivered to ``pid`` at the last synchronisation."""
        return self._inbox[pid]

    def exchange(self) -> None:
        """Deliver all queued messages (called at the barrier)."""
        new_inbox: list[list] = [[] for _ in range(self.nprocs)]
        for outgoing in self._outgoing:
            for dest, queued in outgoing.items():
                new_inbox[dest].extend(queued)
            outgoing.clear()
        self._inbox = new_inbox


def _payload_size(payload: Any) -> int:
    """Rough wire size of a payload, for communication-cost accounting."""
    size = _SCALAR_SIZE.get(type(payload))
    if size is not None:
        return size
    if isinstance(payload, (list, tuple)):
        size = 4
        for item in payload:
            item_size = _SCALAR_SIZE.get(type(item))
            size += _payload_size(item) if item_size is None else item_size
        return size
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, dict):
        return 4 + sum(
            _payload_size(k) + _payload_size(v) for k, v in payload.items()
        )
    return 16
