"""Equivalence suite: the run-coalescing event core vs the one-entry loop.

``repro.sim.events`` gives same-instant periodic occurrences one heap
entry between them (a *run*); ``tests/oracles/events.py`` gives every
occurrence its own.  The product claims the same callbacks at the same
instants in the same order, and the same ``events_fired``,
``events_cancelled`` and ``pending``.  These tests drive random programs
of ``every`` / ``stop`` / ``schedule`` / ``schedule_at`` / ``cancel`` /
``run_until`` through both loops, with callbacks that stop themselves,
stop other tasks (often a later member of their own run), start new
tasks, schedule one-shots that split a run, and raise — and assert
equality after every operation.  Both loops own their ``now``; every
write of it is recorded, and the recorded instants must never decrease.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import events as product

from tests.oracles import events as oracle

#: Few distinct intervals and phases, so periods line up and ties are
#: the rule rather than the exception.
INTERVALS = (1.0, 2.0, 3.0, 6.0)
STARTS = (None, 0.0, 1.0, 2.0)
DELAYS = (0.0, 1.0, 2.0, 3.0)

BEHAVIOURS = st.one_of(
    st.just(("plain",)),
    st.tuples(st.just("stop_self"), st.integers(1, 3)),
    st.tuples(st.just("stop_task"), st.integers(0, 15)),
    st.tuples(st.just("spawn"), st.sampled_from(INTERVALS),
              st.sampled_from((None, 0.0))),
    st.tuples(st.just("oneshot"), st.sampled_from(DELAYS)),
    st.tuples(st.just("raise"), st.integers(1, 3)),
)

OPS = st.one_of(
    st.tuples(st.just("every"), st.sampled_from(INTERVALS),
              st.sampled_from(STARTS), BEHAVIOURS),
    st.tuples(st.just("stop"), st.integers(0, 15)),
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("run_until"), st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0))),
)


class Boom(Exception):
    """What a ``raise`` callback throws; ``World.apply`` catches it."""


def record_now(loop, write) -> None:
    """Swap ``loop`` onto a subclass whose ``now`` passes every value
    written to it to ``write`` before storing it as usual."""

    class Recording(type(loop)):
        @property
        def now(self):
            return self.__dict__["now"]

        @now.setter
        def now(self, when):
            write(when)
            self.__dict__["now"] = when

    loop.__class__ = Recording


class World:
    """One event core plus the bookkeeping a program's operations need."""

    def __init__(self, module):
        self.loop = module.EventLoop()
        self.instants: list = []   # distinct instants written to loop.now

        def write(when):
            if not self.instants or self.instants[-1] != when:
                self.instants.append(when)

        record_now(self.loop, write)
        self.trace: list = []
        self.tasks: list = []
        self.handles: list = []
        self.fired_handles: set = set()

    # -- callbacks ---------------------------------------------------------

    def periodic(self, label: str, behaviour: tuple):
        fires = [0]

        def callback():
            fires[0] += 1
            self.trace.append((self.loop.now, label))
            kind = behaviour[0]
            if kind == "stop_self" and fires[0] == behaviour[1]:
                self.tasks[int(label[1:])].stop()
            elif kind == "stop_task" and behaviour[1] < len(self.tasks):
                self.tasks[behaviour[1]].stop()
            elif kind == "spawn" and fires[0] == 1:
                self.every(behaviour[1], behaviour[2], ("plain",))
            elif kind == "oneshot":
                self.schedule(behaviour[1])
            elif kind == "raise" and fires[0] == behaviour[1]:
                raise Boom(label)
        return callback

    def oneshot(self, index: int):
        def callback():
            self.fired_handles.add(index)
            self.trace.append((self.loop.now, f"o{index}"))
        return callback

    # -- operations --------------------------------------------------------

    def every(self, interval, start_after, behaviour) -> None:
        label = f"p{len(self.tasks)}"
        self.tasks.append(self.loop.every(
            interval, self.periodic(label, behaviour), start_after=start_after
        ))

    def schedule(self, delay: float) -> None:
        index = len(self.handles)
        self.handles.append(self.loop.schedule(delay, self.oneshot(index)))

    def apply(self, op: tuple) -> None:
        kind = op[0]
        try:
            if kind == "every":
                self.every(*op[1:])
            elif kind == "stop":
                if op[1] < len(self.tasks):
                    self.tasks[op[1]].stop()
            elif kind == "schedule":
                self.schedule(op[1])
            elif kind == "schedule_at":
                index = len(self.handles)
                self.handles.append(self.loop.schedule_at(
                    self.loop.now + op[1], self.oneshot(index)
                ))
            elif kind == "cancel":
                # Cancelling a handle that already fired leaves a stale
                # tombstone in both cores; ``pending`` reads it until a
                # compaction, and the two cores compact at different
                # heap sizes.  Only queued handles are cancelled here.
                if op[1] < len(self.handles) \
                        and op[1] not in self.fired_handles:
                    self.handles[op[1]].cancel()
            elif kind == "run_until":
                self.loop.run_until(self.loop.now + op[1])
        except Boom as exc:
            self.trace.append(("raised", str(exc)))

    def observe(self) -> tuple:
        loop = self.loop
        return (
            loop.now, loop.events_fired, loop.events_cancelled, loop.pending,
            [task.stopped for task in self.tasks], list(self.trace),
            list(self.instants),
        )


def run_both(program):
    ours, theirs = World(product), World(oracle)
    for op in program:
        ours.apply(op)
        theirs.apply(op)
        for world in (ours, theirs):
            assert world.instants == sorted(world.instants), op
        assert ours.observe() == theirs.observe(), op
    return ours, theirs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(OPS, max_size=40))
def test_random_programs_match_the_one_entry_loop(program):
    run_both(program)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(INTERVALS), st.sampled_from(STARTS),
                          BEHAVIOURS), min_size=1, max_size=16),
       st.lists(st.sampled_from((("run_until", 1.0), ("run_until", 2.0))),
                min_size=1, max_size=12))
def test_many_tasks_then_drive(tasks, drive):
    """Many tasks registered back to back (the grid's shape), then run."""
    run_both([("every",) + task for task in tasks] + drive)


def test_same_period_tasks_share_one_heap_entry():
    world = World(product)
    for _ in range(50):
        world.every(60.0, None, ("plain",))
    world.loop.run_until(600.0)
    assert world.loop.raw_heap_size == 1
    assert world.loop.pending == 50
    assert world.loop.events_fired == 500


def test_interleaved_registrations_coalesce_once_due_together():
    # A LUPA sample (first at 300 s) and an owner tick (first at 0 s)
    # per node, registered node by node: no two pushes are adjacent at
    # first, but every requeue at the 300 s mark is.
    world = World(product)
    for _ in range(4):
        world.every(300.0, None, ("plain",))
        world.every(300.0, 0.0, ("plain",))
    assert world.loop.raw_heap_size == 8
    world.loop.run_until(300.0)
    assert world.loop.raw_heap_size == 1


def test_a_one_shot_between_two_pushes_splits_the_run():
    world = World(product)
    world.every(10.0, None, ("plain",))
    world.schedule(10.0)
    world.every(10.0, None, ("plain",))
    assert world.loop.raw_heap_size == 3
    world.loop.run_until(10.0)
    assert world.trace == [(10.0, "p0"), (10.0, "o0"), (10.0, "p1")]


@pytest.mark.parametrize("behaviour", [("stop_self", 1), ("raise", 1)])
def test_nothing_joins_a_run_that_already_fired(behaviour):
    # The run at t=1 was the last push and leaves the heap with no
    # member requeued; a task started at t=1 must get an entry of its
    # own, not join the run that is gone.
    ours, theirs = run_both([
        ("every", 1.0, None, behaviour), ("run_until", 1.0),
        ("every", 1.0, 0.0, ("plain",)), ("run_until", 2.0),
    ])
    assert (1.0, "p1") in ours.trace


def test_stop_from_own_callback_cancels_nothing():
    for module in (product, oracle):
        world = World(module)
        world.every(1.0, None, ("stop_self", 1))
        world.loop.run_until(5.0)
        assert world.loop.events_cancelled == 0
        assert world.loop.pending == 0
        assert world.trace == [(1.0, "p0")]


def test_a_raise_keeps_the_rest_of_the_run_queued():
    world = World(product)
    world.every(1.0, None, ("plain",))
    world.every(1.0, None, ("raise", 1))
    world.every(1.0, None, ("plain",))
    with pytest.raises(Boom):
        world.loop.run_until(1.0)
    world.loop.run_until(1.0)
    assert world.trace == [(1.0, "p0"), (1.0, "p1"), (1.0, "p2")]
    assert world.loop.pending == 2   # p1 died with its exception
