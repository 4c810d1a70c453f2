"""The seed BSMP plane: a recursive payload sizer and dense mailboxes.

``repro.bsp.messages`` sizes exact scalar types from a table and keeps
only the (sender, destination) mailboxes that received mail;
``tests/test_bsp_equivalence.py`` holds it to this module's sizes,
inboxes and counters.  Here every ``send`` bumps four counters and every
``exchange`` scans all ``nprocs * nprocs`` mailboxes.
"""

from typing import Any

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
        self.orb_calls = 0
        self.wire_bytes = 0

    def send(self, sender: int, dest: int, payload: Any) -> None:
        """Queue a message for delivery at the next superstep."""
        if not 0 <= dest < self.nprocs:
            raise ValueError(f"destination pid {dest} out of range")
        self._outgoing[sender][dest].append(payload)
        size = payload_size(payload)
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


def payload_size(payload: Any) -> int:
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
        return 4 + sum(payload_size(p) for p in payload)
    if isinstance(payload, dict):
        return 4 + sum(
            payload_size(k) + payload_size(v) for k, v in payload.items()
        )
    return 16
