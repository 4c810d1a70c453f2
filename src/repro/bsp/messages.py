"""BSMP — bulk synchronous message passing.

Messages sent during superstep *s* become visible to their destination
at superstep *s + 1*, after the global synchronisation.  Delivery order
is deterministic: sorted by sender pid, then send order.

One message is one ORB call, always: ``orb_calls`` and ``wire_bytes``
model it, one framed call per ``send``.  A ``send`` only queues: as in
BSP's cost model, messages are counted and sized at the barrier.
"""

from collections import defaultdict
from itertools import chain
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
        self._delivered = self._delivered_bytes = 0

    @property
    def messages_sent(self) -> int:
        """Messages sent so far, delivered or still queued."""
        return self._delivered + len(self._queued())

    @property
    def bytes_estimate(self) -> int:
        """Modelled payload bytes of every message sent so far."""
        return self._delivered_bytes + _bulk_size(self._queued())

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

    def inbox(self, pid: int) -> list:
        """Messages delivered to ``pid`` at the last synchronisation."""
        return self._inbox[pid]

    def exchange(self) -> None:
        """Deliver all queued messages (called at the barrier)."""
        pending = self._queued()
        # Sized first: a payload the sizer rejects leaves every one queued.
        self._delivered_bytes += _bulk_size(pending)
        self._delivered += len(pending)
        new_inbox: list[list] = [[] for _ in range(self.nprocs)]
        for outgoing in self._outgoing:
            for dest, queued in outgoing.items():
                new_inbox[dest].extend(queued)
            outgoing.clear()
        self._inbox = new_inbox

    def _queued(self) -> list:
        """Payloads sent and not yet delivered."""
        return [p for out in self._outgoing for q in out.values() for p in q]


def _bulk_size(payloads: list) -> int:
    """Summed ``_payload_size``; one pass when all are flat int/float lists."""
    items = chain.from_iterable(payloads)       # each test stops at a miss
    if ({list, tuple}.issuperset(map(type, payloads))
            and {int, float}.issuperset(map(type, items))):
        return 4 * len(payloads) + 8 * sum(map(len, payloads))
    return sum(map(_payload_size, payloads))


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
