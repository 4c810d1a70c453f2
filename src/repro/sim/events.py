"""Deterministic discrete-event loop.

Events are ordered by (time, sequence number), so two events scheduled for
the same instant fire in scheduling order.  This guarantees bit-identical
experiment runs for a given seed.

Hot-path layout: the heap holds bare ``(when, seq, callback)`` tuples
rather than per-event objects, cancellation is a tombstone set keyed by
sequence number, and tombstones are compacted away whenever they would
outnumber half of the live heap.  :class:`EventHandle` is a thin
cancellable reference that is only materialized for callers that asked
for one; the periodic-task fast path never allocates handles at all.
"""

import heapq
from time import perf_counter
from typing import Callable, Optional

from repro.sim.clock import SimClock


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

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(when={self.when:.3f}, seq={self.seq}, {state})"


class EventLoop:
    """A heap-based discrete-event scheduler driving a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[tuple] = []       # (when, seq, callback)
        self._cancelled: set[int] = set()  # seqs of tombstoned heap entries
        self._seq = 0
        self._events_fired = 0
        self._events_cancelled = 0
        self._handler_hist = None   # opt-in wall-time histogram

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Total number of events tombstoned so far."""
        return self._events_cancelled

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - len(self._cancelled)

    @property
    def raw_heap_size(self) -> int:
        """Heap entries including cancelled tombstones (diagnostics)."""
        return len(self._heap)

    # -- scheduling -----------------------------------------------------------

    def _push(self, when: float, callback: Callable[[], None]) -> int:
        """Enqueue without allocating a handle; returns the sequence number."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback))
        return seq

    def _cancel(self, seq: int) -> None:
        """Tombstone an entry; compact once tombstones dominate the heap."""
        self._cancelled.add(seq)
        self._events_cancelled += 1
        if len(self._cancelled) * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries and restore the heap invariant in place."""
        cancelled = self._cancelled
        # In-place so aliases held by running fast paths stay valid.
        self._heap[:] = [e for e in self._heap if e[1] not in cancelled]
        cancelled.clear()
        heapq.heapify(self._heap)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire at absolute time ``when``."""
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: {when} < {self.clock.now}"
            )
        return EventHandle(self, when, self._push(when, callback))

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        when = self.clock.now + delay
        return EventHandle(self, when, self._push(when, callback))

    # -- observability ---------------------------------------------------------

    def to_metrics(self, registry, prefix: str = "eventloop") -> None:
        """Publish the loop's counters as registry views (pull-only).

        Views are evaluated at snapshot time, so the hot path keeps its
        plain integer bumps and pays nothing for being observable.
        """
        registry.view(f"{prefix}.events_fired", lambda: self._events_fired)
        registry.view(f"{prefix}.events_cancelled",
                      lambda: self._events_cancelled)
        registry.view(f"{prefix}.pending",
                      lambda: len(self._heap) - len(self._cancelled))
        registry.view(f"{prefix}.raw_heap_size", lambda: len(self._heap))
        registry.view(f"{prefix}.sim_time", lambda: self.clock.now)

    def time_handlers(self, histogram) -> None:
        """Opt-in: record each handler's wall time into ``histogram``.

        Switches :meth:`run_until` onto a timed twin of the fast path
        (two ``perf_counter`` calls per event); pass None to switch back.
        Timing never touches simulated time, so determinism holds.
        """
        self._handler_hist = histogram

    # -- running --------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            when, seq, callback = heapq.heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.clock.advance_to(when)
            self._events_fired += 1
            hist = self._handler_hist
            if hist is not None:
                started = perf_counter()
                callback()
                hist.observe(perf_counter() - started)
            else:
                callback()
            return True
        return False

    def run_until(self, when: float) -> None:
        """Run all events with time <= ``when``, then advance the clock.

        This is the batched fast path every experiment drives: the heap,
        tombstone set, and clock method are bound once, and each iteration
        pops exactly one tuple without re-entering :meth:`step`.
        """
        if self._handler_hist is not None:
            return self._run_until_timed(when)
        heap = self._heap
        cancelled = self._cancelled
        advance = self.clock.advance_to
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
            advance(entry[0])
            self._events_fired += 1
            entry[2]()
        if when > self.clock.now:
            advance(when)

    def _run_until_timed(self, when: float) -> None:
        """The :meth:`run_until` loop with per-handler wall timing."""
        heap = self._heap
        cancelled = self._cancelled
        advance = self.clock.advance_to
        pop = heapq.heappop
        observe = self._handler_hist.observe
        while heap:
            entry = heap[0]
            if entry[0] > when:
                break
            pop(heap)
            seq = entry[1]
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            advance(entry[0])
            self._events_fired += 1
            started = perf_counter()
            entry[2]()
            observe(perf_counter() - started)
        if when > self.clock.now:
            advance(when)

    def run_for(self, duration: float) -> None:
        """Run the simulation for ``duration`` seconds of simulated time."""
        self.run_until(self.clock.now + duration)

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the event queue, with a runaway guard."""
        fired = 0
        while self.step():
            fired += 1
            if fired >= max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events; "
                    "likely an unbounded periodic task"
                )

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        start_after: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until stopped."""
        return PeriodicTask(self, interval, callback, start_after)


class PeriodicTask:
    """A repeating event; reschedules itself after every firing.

    Rescheduling pushes a bare heap tuple for the precomputed next firing
    time — no per-fire :class:`EventHandle` or closure allocation.
    """

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
        self._pending_seq = loop._push(loop.clock.now + first, self._fire)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            loop = self._loop
            self._pending_seq = loop._push(
                loop.clock.now + self.interval, self._fire
            )

    def stop(self) -> None:
        """Stop the task.  The callback will not fire again."""
        if not self._stopped:
            self._stopped = True
            self._loop._cancel(self._pending_seq)
