"""Unit tests for the BSP grid coordinator, against a scripted GRM."""

import pytest

from repro.apps.job import Job, TaskState
from repro.apps.spec import ApplicationSpec
from repro.bsp.gridexec import BspGridCoordinator
from repro.checkpoint.store import MemoryCheckpointStore
from repro.sim.events import EventLoop
from repro.sim.network import flat_lan, two_groups


class FakePacedLrm:
    """Tracks pacing calls for one node."""

    def __init__(self):
        self.limits: dict[str, float] = {}
        self.progress: dict[str, float] = {}
        self.rollbacks: list = []

    def set_work_limit(self, task_id, limit):
        self.limits[task_id] = limit

    def get_progress(self, task_id):
        return self.progress.get(task_id, 0.0)

    def rollback_task(self, task_id, to_progress):
        self.rollbacks.append((task_id, to_progress))
        self.progress[task_id] = min(
            self.progress.get(task_id, 0.0), to_progress
        )


class FakeGrm:
    journal = None

    def __init__(self, network=None):
        self.network = network
        self.lrms: dict[str, FakePacedLrm] = {}

    def lrm_stub(self, node):
        return self.lrms.setdefault(node, FakePacedLrm())


def make_coordinator(tasks=3, supersteps=4, checkpoint_every=0,
                     work=1200.0, network=None, comm_bytes=0):
    loop = EventLoop()
    grm = FakeGrm(network)
    spec = ApplicationSpec(
        name="bsp", kind="bsp", tasks=tasks, program="p", work_mips=work,
        checkpoint_every_supersteps=checkpoint_every,
        metadata={"supersteps": supersteps,
                  "superstep_comm_bytes": comm_bytes},
    )
    job = Job("j0", spec, submitted_at=0.0)
    store = MemoryCheckpointStore()
    coordinator = BspGridCoordinator(loop, grm, job, checkpoint_store=store)
    return loop, grm, job, coordinator, store


def start_all(job, coordinator, grm):
    assignments = {}
    for i, task in enumerate(job.tasks):
        node = f"node{i}"
        task.node = node
        task.transition(TaskState.RESERVED, 0.0)
        task.transition(TaskState.RUNNING, 0.0)
        assignments[task.task_id] = node
    coordinator.members_started(assignments)
    return assignments


def reach_barrier(loop, coordinator, assignments, grm):
    """All members hit their limit; run the comm delay event."""
    for task_id, node in assignments.items():
        grm.lrms[node].progress[task_id] = grm.lrms[node].limits[task_id]
        coordinator.member_reached_limit(task_id, node)
    loop.run()


class TestPacing:
    def test_initial_limits_set_on_start(self):
        loop, grm, job, coordinator, _ = make_coordinator(
            tasks=2, supersteps=4, work=1200.0
        )
        assignments = start_all(job, coordinator, grm)
        for task_id, node in assignments.items():
            assert grm.lrms[node].limits[task_id] == pytest.approx(300.0)

    def test_barrier_advances_all_limits(self):
        loop, grm, job, coordinator, _ = make_coordinator(
            tasks=2, supersteps=4, work=1200.0
        )
        assignments = start_all(job, coordinator, grm)
        reach_barrier(loop, coordinator, assignments, grm)
        assert coordinator.current_superstep == 1
        for task_id, node in assignments.items():
            assert grm.lrms[node].limits[task_id] == pytest.approx(600.0)

    def test_partial_barrier_does_not_advance(self):
        loop, grm, job, coordinator, _ = make_coordinator(tasks=3)
        assignments = start_all(job, coordinator, grm)
        first = next(iter(assignments))
        coordinator.member_reached_limit(first, assignments[first])
        loop.run()
        assert coordinator.current_superstep == 0

    def test_final_barrier_lifts_limits(self):
        loop, grm, job, coordinator, _ = make_coordinator(
            tasks=2, supersteps=2, work=1000.0
        )
        assignments = start_all(job, coordinator, grm)
        reach_barrier(loop, coordinator, assignments, grm)
        # Past the last barrier the limit is infinite: run to completion.
        for task_id, node in assignments.items():
            assert grm.lrms[node].limits[task_id] == float("inf")

    def test_stale_limit_notification_ignored(self):
        loop, grm, job, coordinator, _ = make_coordinator(tasks=2)
        assignments = start_all(job, coordinator, grm)
        coordinator.member_reached_limit(job.tasks[0].task_id, "wrong-node")
        assert not coordinator._reached


class TestCheckpointing:
    def test_cadence(self):
        loop, grm, job, coordinator, store = make_coordinator(
            tasks=2, supersteps=6, checkpoint_every=2, work=600.0
        )
        assignments = start_all(job, coordinator, grm)
        for _ in range(4):
            reach_barrier(loop, coordinator, assignments, grm)
        # Barriers after supersteps 2 and 4 checkpointed.
        assert coordinator.checkpoints_saved == 2
        record = store.load_latest(job.tasks[0].task_id)
        assert record.state()["superstep"] == 4

    def test_checkpointed_is_the_last_superstep_saved(self):
        loop, grm, job, coordinator, store = make_coordinator(
            tasks=2, supersteps=8, checkpoint_every=2, work=800.0
        )
        assignments = start_all(job, coordinator, grm)
        assert coordinator.checkpointed == 0
        for _ in range(5):
            reach_barrier(loop, coordinator, assignments, grm)
        assert coordinator.checkpointed == 4
        victim = job.tasks[0]
        victim.transition(TaskState.EVICTED, loop.now)
        victim.rollback()
        victim.node = None
        coordinator.member_evicted(victim.task_id, assignments[victim.task_id])
        # The rollback lands on the cut and leaves it where it was: it
        # is the superstep every member's stored checkpoint holds.
        assert coordinator.current_superstep == coordinator.checkpointed == 4
        for task in job.tasks:
            record = store.load_latest(task.task_id)
            assert record.state()["superstep"] == coordinator.checkpointed


class TestRollback:
    def run_to_superstep(self, n, **kwargs):
        loop, grm, job, coordinator, store = make_coordinator(**kwargs)
        assignments = start_all(job, coordinator, grm)
        for _ in range(n):
            reach_barrier(loop, coordinator, assignments, grm)
        return loop, grm, job, coordinator, assignments

    def evict(self, loop, grm, job, coordinator, assignments, victim_index=0):
        victim = job.tasks[victim_index]
        node = assignments[victim.task_id]
        victim.transition(TaskState.EVICTED, loop.now)
        victim.rollback()
        victim.node = None
        coordinator.member_evicted(victim.task_id, node)
        victim.transition(TaskState.PENDING, loop.now)
        return victim

    def test_rollback_to_consistent_checkpoint(self):
        loop, grm, job, coordinator, assignments = self.run_to_superstep(
            3, tasks=3, supersteps=8, checkpoint_every=2, work=800.0
        )
        victim = self.evict(loop, grm, job, coordinator, assignments)
        assert coordinator.current_superstep == 2   # last checkpointed
        # Survivors rolled back to 2 supersteps' progress.
        for task in job.tasks[1:]:
            node = assignments[task.task_id]
            assert (task.task_id, 200.0) in grm.lrms[node].rollbacks
        # The victim resumes from the checkpoint, not from scratch.
        assert victim.progress_mips == pytest.approx(200.0)

    def test_rollback_without_checkpoints_goes_to_zero(self):
        loop, grm, job, coordinator, assignments = self.run_to_superstep(
            3, tasks=2, supersteps=8, checkpoint_every=0, work=800.0
        )
        victim = self.evict(loop, grm, job, coordinator, assignments)
        assert coordinator.current_superstep == 0
        assert victim.progress_mips == 0.0

    def test_survivor_wasted_work_accounted(self):
        loop, grm, job, coordinator, assignments = self.run_to_superstep(
            3, tasks=2, supersteps=8, checkpoint_every=2, work=800.0
        )
        survivor = job.tasks[1]
        node = assignments[survivor.task_id]
        grm.lrms[node].progress[survivor.task_id] = 300.0   # mid-superstep 3
        self.evict(loop, grm, job, coordinator, assignments, victim_index=0)
        # Superstep work is 100; rollback to 200 loses 100 of progress.
        assert survivor.wasted_mips == pytest.approx(100.0)

    def test_lost_member_is_charged_only_what_it_lost_past_the_checkpoint(
            self):
        loop, grm, job, coordinator, assignments = self.run_to_superstep(
            3, tasks=2, supersteps=8, checkpoint_every=2, work=800.0
        )
        # A crash: the GRM resumes the member from its stored checkpoint
        # (superstep 2, 200 MI) and charges only what lies past it.
        victim = job.tasks[0]
        victim.advance(300.0)
        victim.transition(TaskState.EVICTED, loop.now)
        victim.rollback(to_progress_mips=200.0)
        victim.node = None
        coordinator.member_evicted(victim.task_id,
                                   assignments[victim.task_id])
        assert victim.progress_mips == pytest.approx(200.0)
        assert victim.wasted_mips == pytest.approx(100.0)

    def test_eviction_during_comm_delay_cancels_the_barrier(self):
        # All members reach the barrier; while the communication delay
        # is in flight, one is evicted.  The pending advance must be
        # cancelled — the superstep is re-run from the rollback point,
        # not silently merged with the next one.
        loop, grm, job, coordinator, store = make_coordinator(
            tasks=2, supersteps=8, checkpoint_every=2, work=800.0,
            network=flat_lan(["node0", "node1"]), comm_bytes=10_000_000,
        )
        assignments = start_all(job, coordinator, grm)
        reach_barrier(loop, coordinator, assignments, grm)   # superstep 0 done
        reach_barrier(loop, coordinator, assignments, grm)   # superstep 1 done
        # Reach the next barrier but do NOT run the delayed advance.
        for task_id, node in assignments.items():
            grm.lrms[node].progress[task_id] = grm.lrms[node].limits[task_id]
            coordinator.member_reached_limit(task_id, node)
        assert coordinator._advance_event is not None
        self.evict(loop, grm, job, coordinator, assignments)
        assert coordinator._advance_event is None
        before = coordinator.current_superstep
        loop.run()   # the (cancelled) comm event must not fire
        assert coordinator.current_superstep == before

    def test_replacement_member_gets_current_limit(self):
        loop, grm, job, coordinator, assignments = self.run_to_superstep(
            2, tasks=2, supersteps=8, checkpoint_every=2, work=800.0
        )
        victim = self.evict(loop, grm, job, coordinator, assignments)
        coordinator.members_started({victim.task_id: "fresh-node"})
        limit = grm.lrms["fresh-node"].limits[victim.task_id]
        assert limit == pytest.approx(
            (coordinator.current_superstep + 1)
            * coordinator.work_per_superstep
        )


class TestCommunicationModel:
    def test_no_network_flat_barrier_cost(self):
        loop, grm, job, coordinator, _ = make_coordinator(
            tasks=2, comm_bytes=1_000_000, network=None
        )
        start_all(job, coordinator, grm)
        assert coordinator._communication_seconds() == pytest.approx(0.05)

    def test_scales_with_member_count(self):
        def comm_for(tasks):
            nodes = [f"node{i}" for i in range(tasks)]
            network = flat_lan(nodes, bandwidth_mbps=100.0)
            loop, grm, job, coordinator, _ = make_coordinator(
                tasks=tasks, comm_bytes=1_000_000, network=network
            )
            start_all(job, coordinator, grm)
            return coordinator._communication_seconds()

        assert comm_for(8) > comm_for(2)

    def test_slow_uplink_dominates_when_groups_are_split(self):
        nodes = [f"node{i}" for i in range(4)]
        fast = flat_lan(nodes, bandwidth_mbps=100.0)
        split = two_groups(nodes[:2], nodes[2:], intra_mbps=100.0,
                           inter_mbps=1.0)
        results = {}
        for label, network in (("fast", fast), ("split", split)):
            loop, grm, job, coordinator, _ = make_coordinator(
                tasks=4, comm_bytes=500_000, network=network
            )
            start_all(job, coordinator, grm)
            results[label] = coordinator._communication_seconds()
        assert results["split"] > 10 * results["fast"]

    def test_status_reporting(self):
        loop, grm, job, coordinator, _ = make_coordinator(tasks=3)
        start_all(job, coordinator, grm)
        status = coordinator.status()
        assert status["members_running"] == 3
        assert status["superstep"] == 0
        assert status["rollbacks"] == 0


class TestValidation:
    def test_zero_supersteps_rejected(self):
        loop = EventLoop()
        spec = ApplicationSpec(
            name="bsp", kind="bsp", tasks=1, program="p",
            metadata={"supersteps": 0},
        )
        job = Job("j0", spec, 0.0)
        with pytest.raises(ValueError):
            BspGridCoordinator(loop, FakeGrm(), job)

