"""Direct unit tests of the GRM against scripted fake LRMs.

The integration suite drives the GRM through real LRMs; these tests pin
down GRM-internal behaviour — candidate filtering, negotiation fallback
order, gang atomicity, liveness handling — with LRM stubs whose answers
are scripted, including failure injection.
"""

import pytest

from repro.apps.job import JobState, TaskState
from repro.apps.spec import ApplicationSpec, ResourceRequirements
from repro.checkpoint.store import MemoryCheckpointStore
from repro.core.grm import DEFAULT_MAX_NEGOTIATIONS, Grm
from repro.core.protocols import LRM_INTERFACE
from repro.orb.core import Orb
from repro.orb.exceptions import CommunicationError
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop


class ScriptedLrm:
    """A servant whose reservation answers follow a script."""

    def __init__(self, node, accept=True, fail_start=False, crash=False):
        self.node = node
        self.accept = accept
        self.fail_start = fail_start
        self.crash = crash           # raise instead of answering
        self.reservation_requests = []
        self.started = []
        self.cancelled = []
        self.stopped = []
        self.progress = {}           # task_id -> MI get_progress reports

    def ping(self):
        return True

    def get_status(self):
        return self.status()

    def status(self, **overrides):
        base = {
            "node": self.node, "time": 0.0, "mips": 1000.0,
            "ram_mb": 256.0, "disk_mb": 10_000.0, "os": "linux",
            "arch": "x86", "cpu_free": 1.0, "mem_free_mb": 200.0,
            "disk_free_mb": 10_000.0, "net_mbps": 100.0,
            "net_free_mbps": 100.0, "owner_active": False,
            "sharing": True, "grid_tasks": 0,
        }
        base.update(overrides)
        return base

    def request_reservation(self, request):
        if self.crash:
            raise CommunicationError("node unreachable")
        self.reservation_requests.append(request["task_id"])
        if self.accept:
            return {"accepted": True, "reason": "ok"}
        # Refused for a reason other than capacity: the node says it
        # still has what its status offers.
        status = self.status()
        return {"accepted": False, "reason": "scripted refusal",
                "cpu_free": status["cpu_free"],
                "mem_free_mb": status["mem_free_mb"]}

    def cancel_reservation(self, task_id):
        self.cancelled.append(task_id)

    def start_task(self, launch):
        if self.fail_start:
            return False
        self.started.append(launch["task_id"])
        return True

    def stop_task(self, task_id):
        self.stopped.append(task_id)
        return 100.0

    def set_work_limit(self, task_id, limit):
        pass

    def get_progress(self, task_id):
        if self.crash:
            raise CommunicationError("node unreachable")
        return self.progress.get(task_id, 0.0)

    def rollback_task(self, task_id, progress):
        pass


@pytest.fixture
def env():
    loop = EventLoop()
    domain = InProcDomain()
    orb = Orb("grm-orb", domain=domain)
    grm = Grm(loop, orb, cluster="test",
              checkpoint_store=MemoryCheckpointStore(),
              schedule_interval=30.0, update_interval_hint=60.0)
    lrms = {}

    def add_lrm(node, **kwargs):
        servant = ScriptedLrm(node, **kwargs)
        node_orb = Orb(f"{node}-orb", domain=domain)
        ref = node_orb.activate(servant, LRM_INTERFACE, key=f"{node}/lrm")
        grm.register_node(servant.status(), ref.to_string())
        lrms[node] = servant
        return servant

    yield loop, grm, add_lrm, lrms
    grm.stop()


def submit_and_run(loop, grm, spec=None):
    if spec is None:
        spec = ApplicationSpec(name="t", work_mips=1e6)
    job_id = grm.submit(spec)
    loop.run_for(60.0)
    return grm.job(job_id)


class TestRegistration:
    def test_register_exports_offer(self, env):
        loop, grm, add_lrm, _ = env
        add_lrm("n0")
        assert grm.trader.offer_count == 1

    def test_reregistration_replaces_offer(self, env):
        loop, grm, add_lrm, _ = env
        servant = add_lrm("n0")
        grm.register_node(servant.status(), grm._nodes["n0"].lrm_ior)
        assert grm.trader.offer_count == 1

    def test_unregister_withdraws(self, env):
        loop, grm, add_lrm, _ = env
        add_lrm("n0")
        grm.unregister_node("n0")
        assert grm.trader.offer_count == 0
        grm.unregister_node("n0")   # idempotent

    def test_update_from_unknown_node_dropped(self, env):
        loop, grm, add_lrm, _ = env
        grm.send_update(ScriptedLrm("ghost").status())
        assert grm.trader.offer_count == 0
        assert grm.stats.updates_received == 0


class TestNegotiationFallback:
    def test_falls_through_refusals(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("a", accept=False)
        add_lrm("b", accept=False)
        add_lrm("c", accept=True)
        job = submit_and_run(loop, grm)
        assert job.tasks[0].state is TaskState.RUNNING
        assert job.tasks[0].node == "c"
        assert grm.stats.reservations_refused == 2
        assert grm.stats.negotiation_rounds == 3

    def test_crashing_node_skipped(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("dead", crash=True)
        add_lrm("ok")
        job = submit_and_run(loop, grm)
        assert job.tasks[0].node == "ok"

    def test_failed_start_releases_reservation(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("flaky", fail_start=True)
        add_lrm("ok")
        job = submit_and_run(loop, grm)
        assert job.tasks[0].node == "ok"
        assert lrms["flaky"].cancelled == [job.tasks[0].task_id]

    def test_all_refuse_leaves_pending_and_retries(self, env):
        loop, grm, add_lrm, lrms = env
        servant = add_lrm("busy", accept=False)
        job = submit_and_run(loop, grm)
        assert job.tasks[0].state is TaskState.PENDING
        first_round = len(servant.reservation_requests)
        assert first_round >= 1
        loop.run_for(120.0)
        assert len(servant.reservation_requests) > first_round

    def test_max_negotiations_bounds_attempts(self, env):
        loop, grm, add_lrm, lrms = env
        for i in range(12):
            add_lrm(f"n{i:02}", accept=False)
        grm.submit(ApplicationSpec(name="t", work_mips=1e6))
        loop.run_for(1.0)   # exactly one scheduling pass
        total = sum(len(s.reservation_requests) for s in lrms.values())
        assert total == DEFAULT_MAX_NEGOTIATIONS


class TestOfferFiltering:
    def test_requirements_filter(self, env):
        loop, grm, add_lrm, lrms = env
        slow = add_lrm("slow")
        grm.send_update(slow.status(mips=100.0))
        fast = add_lrm("fast")
        spec = ApplicationSpec(
            name="t", work_mips=1e6,
            requirements=ResourceRequirements(min_mips=500.0),
        )
        job = submit_and_run(loop, grm, spec)
        assert job.tasks[0].node == "fast"
        assert slow.reservation_requests == []

    def test_extra_is_part_of_the_one_trader_query(self, env, monkeypatch):
        loop, grm, add_lrm, lrms = env
        for name in ("a", "b", "c", "d"):
            add_lrm(name)
        grm.send_update(lrms["c"].status(net_free_mbps=900.0))
        queries = []
        query = grm.trader.query

        def recording_query(service_type, constraint="", **kwargs):
            queries.append(constraint)
            return query(service_type, constraint=constraint, **kwargs)

        monkeypatch.setattr(grm.trader, "query", recording_query)
        extra = "net_free_mbps > 500"
        spec = ApplicationSpec(
            name="t", work_mips=1e6,
            requirements=ResourceRequirements(extra=extra),
        )
        job = submit_and_run(loop, grm, spec)
        assert len(queries) == 1
        assert f"({extra})" in queries[0]
        assert job.tasks[0].node == "c"
        assert [n for n, s in lrms.items() if s.reservation_requests] == ["c"]

    def test_non_sharing_nodes_excluded(self, env):
        loop, grm, add_lrm, lrms = env
        dark = add_lrm("dark")
        grm.send_update(dark.status(sharing=False, cpu_free=0.0))
        job = submit_and_run(loop, grm)
        assert job.tasks[0].state is TaskState.PENDING

    def test_busy_nodes_excluded(self, env):
        loop, grm, add_lrm, lrms = env
        busy = add_lrm("busy")
        grm.send_update(busy.status(cpu_free=0.05))
        job = submit_and_run(loop, grm)
        assert job.tasks[0].state is TaskState.PENDING


class TestGangAtomicity:
    def gang_spec(self, tasks=3):
        return ApplicationSpec(
            name="gang", kind="bsp", tasks=tasks, program="p",
            work_mips=1e6, metadata={"supersteps": 2},
        )

    def test_all_or_nothing_on_refusal(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("a", accept=True)
        add_lrm("b", accept=True)
        add_lrm("c", accept=False)   # the third member has nowhere to go
        job = submit_and_run(loop, grm, self.gang_spec(3))
        assert all(t.state is TaskState.PENDING for t in job.tasks)
        # Reservations taken along the way were handed back.
        assert lrms["a"].cancelled or lrms["b"].cancelled
        assert grm.stats.gang_failures >= 1
        assert not lrms["a"].started and not lrms["b"].started

    def test_distinct_nodes_per_member(self, env):
        loop, grm, add_lrm, lrms = env
        for name in ("a", "b", "c"):
            add_lrm(name)
        job = submit_and_run(loop, grm, self.gang_spec(3))
        nodes = {t.node for t in job.tasks}
        assert len(nodes) == 3

    def test_too_few_nodes_fails_fast(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("only")
        job = submit_and_run(loop, grm, self.gang_spec(3))
        assert all(t.state is TaskState.PENDING for t in job.tasks)
        assert lrms["only"].reservation_requests == []


class TestMigration:
    def test_migrate_moves_task_without_losing_work(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("origin")
        add_lrm("target")
        job = submit_and_run(loop, grm)
        task = job.tasks[0]
        first_node = task.node
        other = "target" if first_node == "origin" else "origin"
        assert grm.migrate_task(task.task_id) is True
        assert task.state is TaskState.RUNNING
        assert task.node == other
        assert task.wasted_mips == 0.0          # stop_task is lossless
        assert lrms[first_node].stopped == [task.task_id]
        assert lrms[other].started[-1] == task.task_id

    def test_migrate_with_nowhere_to_go_leaves_pending(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("only")
        job = submit_and_run(loop, grm)
        task = job.tasks[0]
        assert grm.migrate_task(task.task_id) is False
        assert task.state is TaskState.PENDING
        # The normal scheduling pass may then re-place it anywhere,
        # including the original node.
        loop.run_for(120.0)
        assert task.state is TaskState.RUNNING

    def test_migrate_non_running_task(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("busy", accept=False)
        job = submit_and_run(loop, grm)
        assert grm.migrate_task(job.tasks[0].task_id) is False

    def test_migrate_unknown_task(self, env):
        loop, grm, _, _ = env
        with pytest.raises(KeyError):
            grm.migrate_task("ghost")


class TestJobStatusProgress:
    def test_a_running_task_reports_what_its_lrm_reports(self, env):
        loop, grm, add_lrm, lrms = env
        servant = add_lrm("n0")
        job = submit_and_run(loop, grm)
        task = job.tasks[0]
        servant.progress[task.task_id] = 2.5e5
        status = grm.job_status(job.job_id)
        assert status["progress"] == 0.25
        assert status["tasks"][0]["progress_mips"] == 2.5e5
        assert task.progress_mips == 0.0        # the GRM stores nothing

    def test_an_unreachable_lrm_leaves_the_grms_own_figure(self, env):
        loop, grm, add_lrm, lrms = env
        servant = add_lrm("n0")
        job = submit_and_run(loop, grm)
        servant.progress[job.tasks[0].task_id] = 2.5e5
        servant.crash = True
        status = grm.job_status(job.job_id)
        assert status["progress"] == 0.0
        assert status["tasks"][0]["progress_mips"] == 0.0


class TestEvictionRequeueExclusion:
    def test_evicted_task_avoids_its_old_node(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("flaky")
        add_lrm("stable")
        job = submit_and_run(loop, grm)
        task = job.tasks[0]
        first = task.node
        other = "stable" if first == "flaky" else "flaky"
        grm.task_evicted(first, task.task_id, 100.0, 0.0)
        loop.run_for(120.0)
        assert task.state is TaskState.RUNNING
        assert task.node == other

    def test_single_node_cluster_falls_back_to_old_node(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("only")
        job = submit_and_run(loop, grm)
        task = job.tasks[0]
        grm.task_evicted("only", task.task_id, 100.0, 0.0)
        loop.run_for(120.0)
        assert task.state is TaskState.RUNNING
        assert task.node == "only"


class TestLiveness:
    def test_silent_node_declared_dead(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("quiet")
        job = submit_and_run(loop, grm)
        assert job.tasks[0].node == "quiet"
        # No send_update ever arrives; after the stale window the node is
        # buried and its task requeued.
        loop.run_for(60.0 * 3.5 * 3)
        assert grm.stats.nodes_declared_dead == 1
        assert "quiet" not in grm._nodes
        assert job.tasks[0].state in (TaskState.PENDING, TaskState.EVICTED)

    def test_dead_node_task_resumes_from_cluster_checkpoint(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("quiet")
        job = submit_and_run(loop, grm)
        task = job.tasks[0]
        grm.store.save(task.task_id, {"progress_mips": 4e5}, loop.now)
        loop.run_for(60.0 * 3.5 * 3)
        assert task.progress_mips == pytest.approx(4e5)

    def test_updates_keep_node_alive(self, env):
        loop, grm, add_lrm, lrms = env
        servant = add_lrm("chatty")
        for _ in range(20):
            loop.run_for(60.0)
            grm.send_update(servant.status(time=loop.now))
        assert grm.stats.nodes_declared_dead == 0

    def test_heartbeats_keep_node_alive_and_write_nothing(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("steady")
        record = grm._nodes["steady"]
        status = record.last_status
        modifies = []
        grm.trader.modify = lambda *a, **k: modifies.append(a)
        for _ in range(20):
            loop.run_for(60.0)
            grm.heartbeat("steady")
        assert grm.stats.nodes_declared_dead == 0
        assert record.last_seen == loop.now and grm._nodes["steady"] is record
        assert record.last_status is status and status["time"] == 0.0
        assert modifies == []
        assert grm.stats.updates_received == 20
        assert grm.stats.heartbeats_received == 20

    def test_heartbeat_from_unregistered_node_is_dropped(self, env):
        from repro.obs.journal import EventJournal

        loop, grm, add_lrm, lrms = env
        journal = EventJournal(clock=loop)
        grm.journal = journal
        grm.heartbeat("ghost")
        drops = journal.select(type="update_dropped", node="ghost")
        assert [e.attrs["reason"] for e in drops] == ["unregistered"]
        assert grm.stats.updates_received == 0
        assert grm.stats.heartbeats_received == 0


class TestJobManagement:
    def test_cancel_stops_remote_tasks(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("n0")
        job = submit_and_run(loop, grm)
        grm.cancel_job(job.job_id)
        assert job.state is JobState.CANCELLED
        assert lrms["n0"].stopped == [job.tasks[0].task_id]

    def test_cancel_terminal_job_is_noop(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("n0")
        job = submit_and_run(loop, grm)
        grm.cancel_job(job.job_id)
        grm.cancel_job(job.job_id)

    def test_unknown_job_raises(self, env):
        loop, grm, _, _ = env
        with pytest.raises(KeyError):
            grm.job_status("ghost")
        with pytest.raises(KeyError):
            grm.cancel_job("ghost")

    def test_stale_completion_ignored(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("n0")
        job = submit_and_run(loop, grm)
        grm.cancel_job(job.job_id)
        # A late completion notice from the node must not resurrect it.
        grm.task_completed("n0", job.tasks[0].task_id, None)
        assert job.state is JobState.CANCELLED

    def test_stale_eviction_ignored(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("n0")
        job = submit_and_run(loop, grm)
        grm.cancel_job(job.job_id)
        grm.task_evicted("n0", job.tasks[0].task_id, 100.0, 0.0)
        assert job.state is JobState.CANCELLED

    def test_cluster_summary_shape(self, env):
        loop, grm, add_lrm, lrms = env
        add_lrm("n0")
        add_lrm("n1")
        summary = grm.cluster_summary()
        assert summary["cluster"] == "test"
        assert summary["nodes"] == 2
        assert summary["sharing_nodes"] == 2
        assert summary["max_node_mips"] == 1000.0
