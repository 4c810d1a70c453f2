"""The one-entry-per-task event loop: every occurrence is its own heap entry.

``repro.sim.events`` coalesces same-instant periodic occurrences into
one heap entry (a *run*); ``tests/test_event_core_equivalence.py`` holds
it to this loop's firing trace and counters.  The one change from the
loop the product used to ship: a task that stops itself from its own
callback has no queued occurrence, so ``stop()`` cancels nothing
(before, it tombstoned the already-popped sequence number, counted a
cancel that removed nothing, and left ``pending`` one low until the
next compaction).
"""

import heapq
from typing import Callable, Optional


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("when", "seq", "cancelled", "_loop")

    def __init__(self, loop: "EventLoop", when: float, seq: int):
        self.when = when
        self.seq = seq
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.cancelled:
            self.cancelled = True
            self._loop._cancel(self.seq)


class EventLoop:
    """A heap-based discrete-event scheduler that owns simulated time."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple] = []       # (when, seq, callback)
        self._cancelled: set[int] = set()  # seqs of tombstoned heap entries
        self._seq = 0
        self._events_fired = 0
        self._events_cancelled = 0

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        return self._events_cancelled

    @property
    def pending(self) -> int:
        return len(self._heap) - len(self._cancelled)

    def _push(self, when: float, callback: Callable[[], None]) -> int:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback))
        return seq

    def _cancel(self, seq: int) -> None:
        self._cancelled.add(seq)
        self._events_cancelled += 1
        if len(self._cancelled) * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        cancelled = self._cancelled
        self._heap[:] = [e for e in self._heap if e[1] not in cancelled]
        cancelled.clear()
        heapq.heapify(self._heap)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        when = float(when)
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        return EventHandle(self, when, self._push(when, callback))

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        when = self.now + delay
        return EventHandle(self, when, self._push(when, callback))

    def run_until(self, when: float) -> None:
        when = float(when)
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            if entry[0] > when:
                break
            pop(heap)
            seq = entry[1]
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.now = entry[0]
            self._events_fired += 1
            entry[2]()
        if when > self.now:
            self.now = when

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        start_after: Optional[float] = None,
    ) -> "PeriodicTask":
        return PeriodicTask(self, interval, callback, start_after)


class PeriodicTask:
    """A repeating event; one heap entry per occurrence."""

    __slots__ = ("_loop", "interval", "_callback", "_stopped", "_pending_seq")

    def __init__(
        self,
        loop: EventLoop,
        interval: float,
        callback: Callable[[], None],
        start_after: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        first = interval if start_after is None else start_after
        if first < 0:
            raise ValueError(f"delay must be non-negative, got {first}")
        self._loop = loop
        self.interval = interval
        self._callback = callback
        self._stopped = False
        self._pending_seq = loop._push(loop.now + first, self._fire)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self._pending_seq = None   # popped: nothing of ours is queued
        self._callback()
        if not self._stopped:
            loop = self._loop
            self._pending_seq = loop._push(
                loop.now + self.interval, self._fire
            )

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            if self._pending_seq is not None:
                self._loop._cancel(self._pending_seq)
