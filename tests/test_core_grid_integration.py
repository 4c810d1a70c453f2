"""Integration tests: full clusters assembled by the Grid facade.

These exercise the two intra-cluster protocols end to end over the ORB,
with every component on its own ORB endpoint, exactly as Figure 1 wires
them.
"""

import pytest

from repro import ApplicationSpec, Grid, JobState, MachineSpec, TaskState
from repro.apps.spec import (
    NodeGroupRequest,
    ResourceRequirements,
    VirtualTopologyRequest,
)
from repro.core.ncc import SharingPolicy, VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.network import two_groups
from repro.sim.usage import OFFICE_WORKER


def dedicated_grid(nodes=4, seed=1, **kwargs):
    kwargs.setdefault("policy", "first_fit")
    kwargs.setdefault("lupa_enabled", False)
    grid = Grid(seed=seed, **kwargs)
    grid.add_cluster("c0")
    for i in range(nodes):
        grid.add_node("c0", f"d{i}", dedicated=True)
    grid.run_for(120)
    return grid


class TestSequentialExecution:
    def test_single_job_completes(self):
        grid = dedicated_grid()
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=3.6e6))
        assert grid.wait_for_job(job_id, max_seconds=3 * SECONDS_PER_HOUR)
        job = grid.job(job_id)
        assert job.state is JobState.COMPLETED
        # 3.6e6 MI at 1000 MIPS is one hour; allow tick quantisation.
        assert job.makespan == pytest.approx(3600.0, abs=120.0)

    def test_multi_task_job_runs_in_parallel(self):
        grid = dedicated_grid(nodes=4)
        job_id = grid.submit(
            ApplicationSpec(name="t", tasks=4, work_mips=3.6e6)
        )
        assert grid.wait_for_job(job_id, max_seconds=3 * SECONDS_PER_HOUR)
        job = grid.job(job_id)
        nodes = {t.node for t in job.tasks}
        assert len(nodes) == 4, "tasks should spread over distinct nodes"
        assert job.makespan < 2 * 3600.0

    def test_more_tasks_than_nodes_queue(self):
        grid = dedicated_grid(nodes=2)
        job_id = grid.submit(
            ApplicationSpec(name="t", tasks=4, work_mips=3.6e6,
                            requirements=ResourceRequirements(cpu_fraction=1.0))
        )
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        job = grid.job(job_id)
        assert job.state is JobState.COMPLETED
        # Two waves of two tasks: at least ~2 hours.
        assert job.makespan > 1.9 * 3600.0

    def test_requirements_unmet_keeps_job_pending(self):
        grid = dedicated_grid()
        spec = ApplicationSpec(
            name="huge",
            requirements=ResourceRequirements(min_mips=10_000.0),
        )
        job_id = grid.submit(spec)
        grid.run_for(2 * SECONDS_PER_HOUR)
        job = grid.job(job_id)
        assert job.state is JobState.PENDING
        assert all(t.state is TaskState.PENDING for t in job.tasks)

    def test_preference_prefers_faster_cpu(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "slow", spec=MachineSpec(mips=500), dedicated=True)
        grid.add_node("c0", "fast", spec=MachineSpec(mips=2000), dedicated=True)
        grid.run_for(120)
        # fastest_first policy at grid level would also work; here we use
        # the per-application preference path through the policy context.
        grid2 = Grid(seed=1, policy="fastest_first", lupa_enabled=False)
        grid2.add_cluster("c0")
        grid2.add_node("c0", "slow", spec=MachineSpec(mips=500), dedicated=True)
        grid2.add_node("c0", "fast", spec=MachineSpec(mips=2000), dedicated=True)
        grid2.run_for(120)
        job_id = grid2.submit(ApplicationSpec(name="t", work_mips=1e6))
        grid2.run_for(600)
        assert grid2.job(job_id).tasks[0].node == "fast"

    def test_network_capacity_requirement(self):
        # The paper's information service covers "network usage" too:
        # a node behind a thin link must not get bandwidth-hungry work.
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "dialup",
                      spec=MachineSpec(net_mbps=1.0), dedicated=True)
        grid.add_node("c0", "wired",
                      spec=MachineSpec(net_mbps=100.0), dedicated=True)
        grid.run_for(120)
        spec = ApplicationSpec(
            name="bulkdata",
            requirements=ResourceRequirements(min_net_mbps=10.0),
        )
        job_id = grid.submit(spec)
        grid.run_for(600)
        assert grid.job(job_id).tasks[0].node == "wired"

    def test_mixed_os_requirements(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "linuxbox",
                      spec=MachineSpec(os="linux"), dedicated=True)
        grid.add_node("c0", "winbox",
                      spec=MachineSpec(os="windows"), dedicated=True)
        grid.run_for(120)
        spec = ApplicationSpec(
            name="winonly",
            requirements=ResourceRequirements(os="windows"),
        )
        job_id = grid.submit(spec)
        grid.run_for(600)
        assert grid.job(job_id).tasks[0].node == "winbox"


class TestAsct:
    def test_submission_and_monitoring(self):
        grid = dedicated_grid()
        asct = grid.make_asct("c0")
        job_id = asct.submit(ApplicationSpec(name="t", work_mips=1e6))
        grid.run_for(30 * 60)
        assert asct.is_done(job_id)
        assert asct.progress(job_id) == pytest.approx(1.0)
        events = [e.event for e in asct.events_for(job_id)]
        assert "completed" in events

    def test_cancellation(self):
        grid = dedicated_grid()
        asct = grid.make_asct("c0")
        job_id = asct.submit(ApplicationSpec(name="t", work_mips=1e12))
        grid.run_for(300)
        asct.cancel(job_id)
        status = asct.status(job_id)
        assert status["state"] == "cancelled"
        # Node resources must have been freed.
        grid.run_for(300)
        node = grid.clusters["c0"].nodes["d0"]
        assert node.workstation.machine.grid_cpu == 0.0

    def test_status_shape(self):
        grid = dedicated_grid()
        asct = grid.make_asct("c0")
        job_id = asct.submit(ApplicationSpec(name="t", tasks=2, work_mips=1e6))
        grid.run_for(120)
        status = asct.status(job_id)
        assert status["job_id"] == job_id
        assert len(status["tasks"]) == 2
        for task in status["tasks"]:
            assert {"task_id", "state", "node", "progress_mips"} <= set(task)


class TestEvictionAndRecovery:
    def test_checkpointed_job_survives_owner_interruptions(self):
        grid = Grid(seed=5, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(2):
            grid.add_node("c0", f"ws{i}", profile=OFFICE_WORKER,
                          sharing=VACATE_POLICY)
        grid.run_for(8 * SECONDS_PER_HOUR)   # Monday 08:00: owners arriving
        job_id = grid.submit(ApplicationSpec(
            name="long", work_mips=2e7,
            metadata={"checkpoint_interval_s": 1800.0},
        ))
        assert grid.wait_for_job(job_id, max_seconds=7 * SECONDS_PER_DAY)
        job = grid.job(job_id)
        task = job.tasks[0]
        assert job.state is JobState.COMPLETED
        assert task.evictions > 0, "owners must have interrupted the task"
        assert task.attempts == task.evictions + 1

    def test_checkpointing_reduces_wasted_work(self):
        def run(checkpoint_interval):
            grid = Grid(seed=5, policy="first_fit", lupa_enabled=False)
            grid.add_cluster("c0")
            for i in range(2):
                grid.add_node("c0", f"ws{i}", profile=OFFICE_WORKER,
                              sharing=VACATE_POLICY)
            grid.run_for(8 * SECONDS_PER_HOUR)
            job_id = grid.submit(ApplicationSpec(
                name="long", work_mips=2e7,
                metadata={"checkpoint_interval_s": checkpoint_interval},
            ))
            grid.wait_for_job(job_id, max_seconds=7 * SECONDS_PER_DAY)
            return grid.job(job_id).tasks[0].wasted_mips

        wasted_with = run(900.0)
        wasted_without = run(0.0)
        assert wasted_with < wasted_without

    def test_node_crash_detected_and_task_requeued(self):
        grid = dedicated_grid(nodes=2)
        job_id = grid.submit(ApplicationSpec(
            name="t", work_mips=1e8,
            metadata={"checkpoint_interval_s": 300.0},
        ))
        grid.run_for(1200)
        job = grid.job(job_id)
        crashed_node = job.tasks[0].node
        assert crashed_node is not None
        # Crash: the node's LRM stops reporting (and computing) entirely.
        grid.crash_node("c0", crashed_node)
        grid.run_for(2 * SECONDS_PER_HOUR)
        job = grid.job(job_id)
        grm = grid.clusters["c0"].grm
        assert grm.stats.nodes_declared_dead == 1
        task = job.tasks[0]
        assert task.node != crashed_node, "task must have moved off the dead node"

    def test_blackout_window_policy(self):
        policy = SharingPolicy(
            blackouts=(  # no sharing during business hours Mon-Fri
                __import__("repro.core.ncc", fromlist=["BlackoutWindow"])
                .BlackoutWindow(9.0, 17.0, days=(0, 1, 2, 3, 4)),
            )
        )
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "ws0", sharing=policy)
        grid.run_for(10 * SECONDS_PER_HOUR)   # Monday 10:00, inside blackout
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=1e6))
        grid.run_for(SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.PENDING
        # After 17:00 the node opens up and the job completes.
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)


class TestBspOnGrid:
    def bsp_spec(self, tasks=4, supersteps=8, checkpoint_every=2, work=1e6):
        return ApplicationSpec(
            name="bsp", kind="bsp", tasks=tasks, program="psum",
            work_mips=work, checkpoint_every_supersteps=checkpoint_every,
            metadata={"supersteps": supersteps, "superstep_comm_bytes": 50_000},
        )

    def test_bsp_job_completes_with_pacing(self):
        grid = dedicated_grid(nodes=4, seed=2)
        job_id = grid.submit(self.bsp_spec())
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        coordinator = grid.coordinator(job_id)
        status = coordinator.status()
        assert status["members_completed"] == 4
        assert coordinator.checkpoints_saved == 3   # after supersteps 2, 4, 6
        assert coordinator.comm_seconds_total > 0

    def test_bsp_gang_requires_enough_nodes(self):
        grid = dedicated_grid(nodes=2, seed=2)
        job_id = grid.submit(self.bsp_spec(tasks=4))
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.PENDING
        assert grid.clusters["c0"].grm.stats.gang_failures > 0

    def test_bsp_paced_slower_than_unpaced_sequential(self):
        # Same per-task work, separate grids: superstep barriers and
        # communication make the BSP version strictly slower.
        bsp_grid = dedicated_grid(nodes=4, seed=2)
        bsp_id = bsp_grid.submit(self.bsp_spec())
        bsp_grid.wait_for_job(bsp_id, max_seconds=SECONDS_PER_DAY)
        seq_grid = dedicated_grid(nodes=4, seed=2)
        seq_id = seq_grid.submit(ApplicationSpec(name="seq", work_mips=1e6))
        seq_grid.wait_for_job(seq_id, max_seconds=SECONDS_PER_DAY)
        assert bsp_grid.job(bsp_id).makespan >= seq_grid.job(seq_id).makespan

    def test_bsp_survives_member_eviction(self):
        grid = Grid(seed=11, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(4):
            grid.add_node("c0", f"d{i}", dedicated=True)
        # One volatile member host joins too.
        grid.add_node("c0", "ws0", profile=OFFICE_WORKER, sharing=VACATE_POLICY)
        grid.run_for(6 * SECONDS_PER_HOUR)
        job_id = grid.submit(self.bsp_spec(tasks=5, supersteps=16, work=2e7))
        assert grid.wait_for_job(job_id, max_seconds=14 * SECONDS_PER_DAY)
        coordinator = grid.coordinator(job_id)
        job = grid.job(job_id)
        assert job.state is JobState.COMPLETED
        total_evictions = sum(t.evictions for t in job.tasks)
        assert total_evictions > 0, "the office machine must have evicted"
        assert coordinator.rollbacks == total_evictions


class TestVirtualTopology:
    def test_paper_topology_request_placed(self):
        group_a = [f"a{i}" for i in range(4)]
        group_b = [f"b{i}" for i in range(4)]
        network = two_groups(group_a, group_b, intra_mbps=100.0, inter_mbps=10.0)
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0", network=network)
        for node in group_a:
            grid.add_node("c0", node, dedicated=True, segment="group_a")
        for node in group_b:
            grid.add_node("c0", node, dedicated=True, segment="group_b")
        grid.run_for(120)
        reqs = ResourceRequirements(min_mips=500, min_ram_mb=16)
        spec = ApplicationSpec(
            name="topo", kind="bsp", tasks=6, program="p", work_mips=1e6,
            requirements=reqs,
            topology=VirtualTopologyRequest(
                groups=(NodeGroupRequest(3, 100.0, reqs),
                        NodeGroupRequest(3, 100.0, reqs)),
                inter_bandwidth_mbps=10.0,
            ),
            metadata={"supersteps": 4},
        )
        job_id = grid.submit(spec)
        assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
        job = grid.job(job_id)
        segments = {network.segment_of(t.node) for t in job.tasks}
        assert segments == {"group_a", "group_b"}


class TestProtocolAccounting:
    def test_orb_traffic_is_counted(self):
        grid = dedicated_grid(nodes=3)
        grid.run_for(SECONDS_PER_HOUR)
        stats = grid.protocol_stats()
        # 3 LRMs sending updates every 60 s for ~1 h, plus registrations.
        assert stats["requests_handled"] > 150
        assert stats["requests_sent"] == stats["requests_received"] > 150
        # Collocated ORBs marshal nothing ...
        assert stats["bytes_sent"] == 0

    def test_wire_meter_and_auth_envelope_price_the_same_traffic(self):
        metered = dedicated_grid(nodes=3)
        meter = metered.enable_wire_meter()
        assert metered.enable_wire_meter() is meter    # idempotent
        enveloped = dedicated_grid(nodes=3, auth_secret=b"s3cret")
        for grid in (metered, enveloped):
            grid.add_node("c0", "late", dedicated=True)   # a late ORB
            grid.run_for(SECONDS_PER_HOUR)
        # ... so sizes come from the meter (modelled CDR requests) or
        # from a grid whose auth envelope forces real marshalling.
        assert metered.protocol_stats()["bytes_sent"] == 0
        assert meter.bytes > 10_000
        # Nothing changes on four idle dedicated nodes, so of each node's
        # 60 sends in the hour every 10th is a full status and the rest
        # are heartbeats: 4 x 6 x 144 B and 4 x 54 x ~35 B.
        assert meter.bytes_by_operation["send_update"] == 24 * 144
        assert 216 * 32 < meter.bytes_by_operation["heartbeat"] < 216 * 40
        assert "register_node" in meter.bytes_by_operation
        wire = enveloped.protocol_stats()
        requests = wire["requests_sent"]
        assert requests == metered.protocol_stats()["requests_sent"]
        # Enveloped requests + replies outweigh the bare requests by the
        # envelope: ~50 bytes a request, whatever the request carries.
        assert 40 * requests < wire["bytes_sent"] - meter.bytes < 60 * requests

    def test_update_interval_scales_traffic(self):
        def traffic(interval):
            grid = dedicated_grid(nodes=3, update_interval=interval)
            before = grid.protocol_stats()["requests_handled"]
            grid.run_for(SECONDS_PER_HOUR)
            return grid.protocol_stats()["requests_handled"] - before

        assert traffic(30.0) > 1.5 * traffic(120.0)

    def test_information_plane_counters_exposed(self):
        grid = dedicated_grid(nodes=3)
        registry = grid.enable_metrics()
        grid.run_for(SECONDS_PER_HOUR)
        metrics = registry.snapshot()["metrics"]
        # Idle dedicated nodes, 62 sends each: every tenth is a status.
        assert metrics["lrm.total.updates_sent"] == 3 * 62
        assert metrics["lrm.total.updates_full"] == 3 * 6
        assert metrics["lrm.total.heartbeats_sent"] == 3 * 56
        assert metrics["grm.c0.updates_received"] == 3 * 62
        assert metrics["grm.c0.heartbeats_received"] == 3 * 56
        # Only a status is ingested; a heartbeat writes nothing.
        assert metrics["grm.c0.ingest_latency_s"]["count"] == 3 * 6
