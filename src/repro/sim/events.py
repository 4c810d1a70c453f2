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

The loop owns simulated time: ``now`` is a plain float attribute that
only the firing loop writes — once per fired one-shot, once per run
with a live member, and at the end of :meth:`EventLoop.run_until`.

One-shot cancellation is a tombstone set keyed by sequence number,
compacted away whenever tombstones would outnumber half of the heap; a
stopped periodic task is flagged and skipped when its run fires.
:class:`EventHandle` is a thin cancellable reference that is only
materialized for callers that asked for one.
"""

import heapq
import math
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

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(when={self.when:.3f}, seq={self.seq}, {state})"


class EventLoop:
    """A heap-based discrete-event scheduler that owns simulated time.

    ``now`` is the current simulated time in seconds since the epoch
    (midnight on a Monday; see :mod:`repro.sim.clock`).  It is always a
    float and never moves backwards.
    """

    def __init__(self):
        self.now = 0.0
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
    def clock(self) -> "EventLoop":
        return self   # benchmarks/s0/workloads/tcp_rpc.py reads loop.clock

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
        when = float(when)
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        return EventHandle(self, when, self._push(when, callback))

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        when = self.now + delay
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
        registry.view(f"{prefix}.sim_time", lambda: self.now)

    # -- running --------------------------------------------------------------

    def _fire(self, when: float, limit: float) -> None:
        """Fire every entry due at or before ``when``, in order.

        The one firing loop: each iteration pops one heap entry — a
        one-shot callback or a whole run — and writes ``now`` once for
        it.  Raises RuntimeError if an entry is due once ``limit``
        callbacks have fired in total.
        """
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            at = entry[0]
            if at > when:
                break
            if self._events_fired >= limit:
                raise RuntimeError(
                    f"event loop still busy after {self._events_fired} "
                    "events; likely an unbounded periodic task"
                )
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
                            self.now = at
                            idle = False
                        self._events_fired += 1
                        task._queued = False
                        task._callback()
                        if not task._stopped:
                            follows = at + task.interval
                            if follows == self._tail_when:   # join, inline
                                task._queued = True
                                self._tail.append(task)
                            else:
                                self._push_task(follows, task)
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
            self.now = at
            self._events_fired += 1
            item()

    def run_until(self, when: float) -> None:
        """Run all events with time <= ``when``, then move the clock to
        ``when``.  This is what every experiment drives."""
        when = float(when)
        self._fire(when, math.inf)
        if when > self.now:
            self.now = when

    def run_for(self, duration: float) -> None:
        """Run the simulation for ``duration`` seconds of simulated time."""
        self.run_until(self.now + duration)

    def run(self, max_events: int = 1_000_000) -> None:
        """Drain the event queue, with a runaway guard: raises
        RuntimeError if events are still due after ``max_events`` have
        fired.  The clock stays at the last instant an event fired."""
        self._fire(math.inf, self._events_fired + max_events)

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
        loop._push_task(loop.now + first, self)

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
