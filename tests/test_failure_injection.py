"""Failure-injection tests: the middleware under broken components."""

import pytest

from repro import ApplicationSpec, Grid, JobState, TaskState
from repro.apps.spec import ResourceRequirements
from repro.core.protocols import GRM_INTERFACE, LRM_INTERFACE
from repro.orb.core import Orb
from repro.orb.exceptions import CommunicationError, RemoteInvocationError
from repro.orb.transport import InProcDomain
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR


def dedicated_grid(nodes=3, seed=1, **kwargs):
    kwargs.setdefault("policy", "first_fit")
    kwargs.setdefault("lupa_enabled", False)
    grid = Grid(seed=seed, **kwargs)
    grid.add_cluster("c0")
    for i in range(nodes):
        grid.add_node("c0", f"d{i}", dedicated=True)
    grid.run_for(120)
    return grid


def crash_node(grid, name):
    """The node neither computes nor reports from now on."""
    return grid.crash_node("c0", name)


class TestNodeCrashes:
    def test_sequential_task_migrates_after_crash(self):
        grid = dedicated_grid(nodes=2)
        job_id = grid.submit(ApplicationSpec(
            name="t", work_mips=5e7,
            metadata={"checkpoint_interval_s": 300.0},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        job = grid.job(job_id)
        first_node = job.tasks[0].node
        progress_before = job.tasks[0].progress_mips
        crash_node(grid, first_node)
        assert grid.wait_for_job(job_id, max_seconds=3 * SECONDS_PER_DAY)
        task = job.tasks[0]
        assert job.state is JobState.COMPLETED
        assert task.node != first_node

    def test_crash_without_checkpoint_restarts_from_zero(self):
        grid = dedicated_grid(nodes=2)
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=5e7))
        grid.run_for(SECONDS_PER_HOUR)
        job = grid.job(job_id)
        crash_node(grid, job.tasks[0].node)
        grid.run_for(6 * SECONDS_PER_HOUR)
        task = job.tasks[0]
        # No checkpoint repository entry exists, so the replacement
        # attempt starts over from zero progress.
        assert task.attempts >= 2
        first_run_progress = next(
            e for e in task.history if e.state == "running"
        )
        assert task.state is TaskState.RUNNING or job.done

    def test_whole_cluster_crash_leaves_jobs_pending(self):
        grid = dedicated_grid(nodes=2)
        for name in list(grid.clusters["c0"].nodes):
            crash_node(grid, name)
        grid.run_for(30 * 60)
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=1e6))
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(job_id).state in (JobState.PENDING, JobState.SCHEDULING)

    def test_bsp_member_crash_triggers_gang_rollback(self):
        grid = dedicated_grid(nodes=5, seed=3)
        job_id = grid.submit(ApplicationSpec(
            name="bsp", kind="bsp", tasks=4, program="kernel",
            work_mips=4e7, checkpoint_every_supersteps=2,
            metadata={"supersteps": 16, "superstep_comm_bytes": 10_000},
        ))
        grid.run_for(2 * SECONDS_PER_HOUR)
        job = grid.job(job_id)
        victim_node = job.tasks[0].node
        assert victim_node is not None
        crash_node(grid, victim_node)
        assert grid.wait_for_job(job_id, max_seconds=3 * SECONDS_PER_DAY)
        coordinator = grid.coordinator(job_id)
        assert job.state is JobState.COMPLETED
        assert coordinator.rollbacks >= 1
        assert job.tasks[0].node != victim_node


class TestOrbFailures:
    def test_call_to_shutdown_orb_raises_communication_error(self):
        domain = InProcDomain()
        server = Orb("server", domain=domain)
        client = Orb("client", domain=domain)
        ref = server.activate(
            _NullGrm(), GRM_INTERFACE
        )
        stub = client.stub(ref, GRM_INTERFACE)
        server.shutdown()
        with pytest.raises(CommunicationError):
            stub.job_status("x")
        client.shutdown()

    def test_servant_exception_crosses_the_wire(self):
        domain = InProcDomain()
        server = Orb("server", domain=domain)
        client = Orb("client", domain=domain)
        try:
            ref = server.activate(_NullGrm(), GRM_INTERFACE)
            stub = client.stub(ref, GRM_INTERFACE)
            with pytest.raises(RemoteInvocationError) as excinfo:
                stub.cancel_job("boom")
            assert excinfo.value.remote_type == "RuntimeError"
        finally:
            server.shutdown()
            client.shutdown()

    def test_tcp_server_death_mid_session(self):
        server = Orb("tcp-s", domain=InProcDomain(), tcp=True)
        client = Orb("tcp-c", domain=InProcDomain(), tcp=True)
        try:
            ref = server.activate(_NullLrm(), LRM_INTERFACE)
            stub = client.stub(ref, LRM_INTERFACE)
            assert stub.ping() is True
            server.shutdown()
            with pytest.raises(CommunicationError):
                stub.ping()
        finally:
            client.shutdown()


class _NullGrm:
    """GRM servant whose cancel_job always raises (failure injection)."""

    def register_node(self, status, ior):
        pass

    def unregister_node(self, node):
        pass

    def send_update(self, status):
        pass

    def heartbeat(self, node):
        pass

    def submit(self, spec):
        return "job0"

    def register_asct(self, job_id, ior):
        pass

    def job_status(self, job_id):
        return {}

    def cancel_job(self, job_id):
        raise RuntimeError("injected failure")

    def task_completed(self, node, task_id, result):
        pass

    def task_evicted(self, node, task_id, progress, resume):
        pass

    def task_reached_limit(self, node, task_id):
        pass


class _NullLrm:
    def ping(self):
        return True

    def get_status(self):
        raise RuntimeError("not needed")

    def request_reservation(self, request):
        return {"accepted": False, "reason": "null"}

    def cancel_reservation(self, task_id):
        pass

    def start_task(self, launch):
        return False

    def stop_task(self, task_id):
        return 0.0

    def set_work_limit(self, task_id, limit):
        pass

    def get_progress(self, task_id):
        return 0.0

    def rollback_task(self, task_id, progress):
        pass


class TestCheckpointCorruption:
    def test_corrupt_cluster_checkpoint_fails_loud_not_silent(self):
        from repro.checkpoint.serializer import CheckpointCorrupted
        from repro.checkpoint.store import CheckpointRecord, MemoryCheckpointStore

        store = MemoryCheckpointStore()
        store.save("t1", {"progress_mips": 100.0}, 1.0)
        record = store.load_latest("t1")
        corrupt = CheckpointRecord(
            record.task_id, record.sequence, record.time,
            record.data[:-4] + b"\x00\x00\x00\x00",
        )
        with pytest.raises(CheckpointCorrupted):
            corrupt.state()


class TestImpossibleWorkloads:
    def test_oversized_memory_requirement_never_places(self):
        grid = dedicated_grid()
        job_id = grid.submit(ApplicationSpec(
            name="hog",
            requirements=ResourceRequirements(mem_mb=10_000.0),
        ))
        grid.run_for(4 * SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.PENDING

    def test_mixed_feasible_and_infeasible_jobs(self):
        grid = dedicated_grid()
        good = grid.submit(ApplicationSpec(name="ok", work_mips=1e6))
        bad = grid.submit(ApplicationSpec(
            name="impossible",
            requirements=ResourceRequirements(min_mips=1e9),
        ))
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(good).state is JobState.COMPLETED
        assert grid.job(bad).state is JobState.PENDING
