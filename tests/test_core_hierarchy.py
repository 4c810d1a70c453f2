"""Tests for the inter-cluster hierarchy (wide-area protocols)."""

import pytest

from repro import ApplicationSpec, Grid, JobState
from repro.apps.spec import ResourceRequirements
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.machine import MachineSpec


def two_cluster_grid(seed=1, nodes_a=2, nodes_b=4, mips_b=1000.0):
    grid = Grid(seed=seed, policy="first_fit", lupa_enabled=False)
    grid.add_cluster("alpha")
    grid.add_cluster("beta")
    for i in range(nodes_a):
        grid.add_node("alpha", f"a{i}", dedicated=True)
    for i in range(nodes_b):
        grid.add_node("beta", f"b{i}",
                      spec=MachineSpec(mips=mips_b), dedicated=True)
    parent, uplinks = grid.connect_clusters_to_parent()
    grid.run_for(120)
    return grid, parent, uplinks


class TestRegistrationAndSummaries:
    def test_clusters_register(self):
        grid, parent, _ = two_cluster_grid()
        assert parent.clusters == ["alpha", "beta"]

    def test_summaries_flow_periodically(self):
        grid, parent, uplinks = two_cluster_grid()
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert parent.summaries_received >= 2 * len(uplinks)
        summary = parent.summary_of("beta")
        assert summary["nodes"] == 4
        assert summary["sharing_nodes"] == 4
        assert summary["max_node_mips"] == 1000.0

    def test_summary_aggregates_not_per_node(self):
        # The hierarchy's point: the parent sees O(clusters) data.
        grid, parent, _ = two_cluster_grid(nodes_b=8)
        grid.run_for(SECONDS_PER_HOUR)
        summary = parent.summary_of("beta")
        assert set(summary) == {
            "cluster", "time", "nodes", "sharing_nodes", "free_cpu_total",
            "free_mem_total_mb", "max_node_mips", "pending_tasks",
        }


class TestWideAreaPlacement:
    def test_overflow_job_forwarded(self):
        # alpha has 2 nodes; an 4-task gang cannot fit there.
        grid, parent, _ = two_cluster_grid(nodes_a=2, nodes_b=6)
        spec = ApplicationSpec(
            name="wide", kind="bsp", tasks=4, program="p", work_mips=1e6,
            metadata={"supersteps": 2},
        )
        job_id = grid.submit(spec, cluster="alpha")
        grid.run_for(2 * SECONDS_PER_HOUR)
        local_job = grid.job(job_id)
        assert local_job.forwarded_to, "job should have been forwarded"
        assert local_job.state is JobState.CANCELLED
        remote_job = grid.clusters["beta"].grm.job(local_job.forwarded_to)
        assert remote_job.state is JobState.COMPLETED
        assert parent.remote_submissions == 1

    def test_placeable_jobs_stay_local(self):
        grid, parent, _ = two_cluster_grid()
        job_id = grid.submit(
            ApplicationSpec(name="local", work_mips=1e6), cluster="alpha"
        )
        grid.run_for(SECONDS_PER_HOUR)
        job = grid.job(job_id)
        assert job.state is JobState.COMPLETED
        assert job.forwarded_to is None
        assert parent.remote_submissions == 0

    def test_unplaceable_everywhere_stays_pending(self):
        grid, parent, _ = two_cluster_grid()
        spec = ApplicationSpec(
            name="impossible",
            requirements=ResourceRequirements(min_mips=100_000.0),
        )
        job_id = grid.submit(spec, cluster="alpha")
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.PENDING
        assert parent.remote_rejections > 0

    def test_forwarded_job_not_bounced_back(self):
        # beta is also full: the job is rejected, not ping-ponged.
        grid, parent, _ = two_cluster_grid(nodes_a=1, nodes_b=1)
        spec = ApplicationSpec(
            name="big", kind="bsp", tasks=3, program="p", work_mips=1e6,
            metadata={"supersteps": 2},
        )
        job_id = grid.submit(spec, cluster="alpha")
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.PENDING
        assert parent.remote_submissions == 0

    def test_requirements_respected_in_cluster_choice(self):
        # Only beta (fast nodes) can satisfy min_mips=2000.
        grid, parent, _ = two_cluster_grid(nodes_a=2, nodes_b=2, mips_b=2500.0)
        spec = ApplicationSpec(
            name="fast", kind="bsp", tasks=2, program="p", work_mips=1e6,
            requirements=ResourceRequirements(min_mips=2000.0),
            metadata={"supersteps": 2},
        )
        # Submitted at alpha whose nodes are too slow AND too few... use
        # 2 tasks so count fits but speed does not.
        job_id = grid.submit(spec, cluster="alpha")
        grid.run_for(2 * SECONDS_PER_HOUR)
        local_job = grid.job(job_id)
        assert local_job.forwarded_to
        remote_job = grid.clusters["beta"].grm.job(local_job.forwarded_to)
        assert remote_job.state is JobState.COMPLETED

    def test_facade_placed_job_is_never_forwarded_again(self):
        # The parent's GRM facade tags the spec the way submit_remote
        # does, so a full child keeps the job instead of forwarding it
        # out of the parent's sight.
        grid, parent, _ = two_cluster_grid(nodes_a=4, nodes_b=1)
        for i in range(4):
            grid.submit(ApplicationSpec(name=f"local{i}", work_mips=1e7),
                        cluster="alpha")
        grid.run_for(120)
        job_id = parent.submit(ApplicationSpec(name="wide", work_mips=1e5))
        assert job_id.startswith("alpha-")
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(job_id).forwarded_to is None
        assert parent.job_status(job_id)["state"] == "pending"
        grid.run_for(8 * SECONDS_PER_HOUR)
        assert parent.job_status(job_id)["state"] == "completed"
        assert parent.remote_submissions == 0


class TestSummaryContents:
    def test_pending_tasks_reported(self):
        grid, parent, uplinks = two_cluster_grid()
        spec = ApplicationSpec(
            name="stuck",
            requirements=ResourceRequirements(min_mips=100_000.0),
        )
        grid.submit(spec, cluster="beta")
        grid.run_for(SECONDS_PER_HOUR)
        summary = parent.summary_of("beta")
        assert summary["pending_tasks"] >= 1
