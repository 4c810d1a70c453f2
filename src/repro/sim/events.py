"""Deterministic discrete-event loop.

Events are ordered by (time, sequence number), so two events scheduled for
the same instant fire in scheduling order.  This guarantees bit-identical
experiment runs for a given seed.

Hot-path layout: the heap holds bare ``(when, seq, item)`` tuples rather
than per-event objects.  ``item`` is a one-shot callback or a *run*: a
list of :class:`PeriodicTask` occurrences due at the same instant.  A
periodic occurrence pushed for the same instant as the push just before
it, with no other push in between, joins that push's run instead of
taking a heap entry of its own.  Run members are therefore adjacent in
scheduling order — nothing else can sort between them — so firing them
in list order is exactly the order separate entries would give, and a
grid of N nodes ticking together costs one heap push and pop per
instant, not N.

One-shot cancellation is a tombstone set keyed by sequence number,
compacted away whenever tombstones would outnumber half of the heap; a
stopped periodic task is flagged and skipped when its run fires.
:class:`EventHandle` is a thin cancellable reference that is only
materialized for callers that asked for one.
"""

import heapq
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
        self._heap: list[tuple] = []       # (when, seq, callback or run)
        self._cancelled: set[int] = set()  # seqs of tombstoned heap entries
        self._seq = 0
        self._events_fired = 0
        self._events_cancelled = 0
        # The run the last push created or joined, and its instant; None
        # once anything else is pushed or that run leaves the heap.
        self._tail_when: Optional[float] = None
        self._tail: list = []

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    @property
    def events_cancelled(self) -> int:
        """Total number of queued events cancelled so far."""
        return self._events_cancelled

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) occurrences still queued."""
        live = len(self._heap) - len(self._cancelled)
        for entry in self._heap:
            run = entry[2]
            if run.__class__ is list:
                live += sum(not task._stopped for task in run) - 1
        return live

    @property
    def raw_heap_size(self) -> int:
        """Heap entries including cancelled tombstones; a run is one
        entry (diagnostics)."""
        return len(self._heap)

    # -- scheduling -----------------------------------------------------------

    def _push(self, when: float, callback: Callable[[], None]) -> int:
        """Enqueue without allocating a handle; returns the sequence number."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, callback))
        self._tail_when = None
        return seq

    def _push_task(self, when: float, task: "PeriodicTask") -> None:
        """Enqueue a periodic occurrence, joining the last push's run if
        that push was for the same instant."""
        task._queued = True
        if when == self._tail_when:
            self._tail.append(task)
            return
        seq = self._seq
        self._seq = seq + 1
        run = [task]
        heapq.heappush(self._heap, (when, seq, run))
        self._tail_when = when
        self._tail = run

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
        registry.view(f"{prefix}.pending", lambda: self.pending)
        registry.view(f"{prefix}.raw_heap_size", lambda: len(self._heap))
        registry.view(f"{prefix}.sim_time", lambda: self.clock.now)

    # -- running --------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending callback.  Returns False if none remain.

        A run fires one member per step and keeps its heap position
        until its last member has fired.
        """
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            when, seq, item = heap[0]
            if item.__class__ is list:
                task = item.pop(0)
                if not item:
                    heapq.heappop(heap)
                    if item is self._tail:
                        self._tail_when = None
                if task._stopped:
                    continue
                self.clock.advance_to(when)
                self._events_fired += 1
                task._queued = False
                task._callback()
                if not task._stopped:
                    self._push_task(when + task.interval, task)
                return True
            heapq.heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.clock.advance_to(when)
            self._events_fired += 1
            item()
            return True
        return False

    def run_until(self, when: float) -> None:
        """Run all events with time <= ``when``, then advance the clock.

        This is the batched fast path every experiment drives: the heap,
        tombstone set, and clock method are bound once, and each iteration
        pops one heap entry — a one-shot callback or a whole run — without
        re-entering :meth:`step`.  The clock advances once per entry.
        """
        heap = self._heap
        cancelled = self._cancelled
        advance = self.clock.advance_to
        pop = heapq.heappop
        push_task = self._push_task
        while heap:
            entry = heap[0]
            at = entry[0]
            if at > when:
                break
            pop(heap)
            item = entry[2]
            if item.__class__ is list:
                if item is self._tail:
                    self._tail_when = None   # nothing may join a popped run
                idle = True
                try:
                    for task in item:
                        if task._stopped:
                            continue
                        if idle:
                            advance(at)
                            idle = False
                        self._events_fired += 1
                        task._queued = False
                        task._callback()
                        if not task._stopped:
                            push_task(at + task.interval, task)
                except BaseException:
                    # A raising callback loses its own next occurrence,
                    # as it would alone; the members after it stay
                    # queued at the run's position.
                    rest = item[item.index(task) + 1:]
                    if rest:
                        heapq.heappush(heap, (at, entry[1], rest))
                    raise
                continue
            seq = entry[1]
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            advance(at)
            self._events_fired += 1
            item()
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
    """A repeating event; the loop requeues it after every firing.

    The task itself is the queued occurrence — a member of a run — so
    rescheduling allocates no handle or closure per fire.
    """

    __slots__ = ("_loop", "interval", "_callback", "_stopped", "_queued")

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
        loop._push_task(loop.clock.now + first, self)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Stop the task.  The callback will not fire again.

        Cancels the queued occurrence; a task stopping itself from its
        own callback has none queued, so that cancels nothing.
        """
        if not self._stopped:
            self._stopped = True
            if self._queued:
                self._loop._events_cancelled += 1
