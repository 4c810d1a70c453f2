"""Tests for multi-level (3-tier) GRM hierarchies."""

import pytest

from repro import ApplicationSpec, Grid, JobState
from repro.core.hierarchy import ClusterUplink, NoCapacity, ParentGrm
from repro.core.protocols import GRM_INTERFACE, PARENT_GRM_INTERFACE
from repro.orb.core import Orb
from repro.sim.clock import SECONDS_PER_HOUR


def build_campus(grid, campus, clusters, nodes_each):
    """One mid-level ParentGrm over ``clusters`` leaf clusters."""
    orb = Orb(f"{campus}-orb", domain=grid.domain)
    parent = ParentGrm(grid.loop, orb, name=campus)
    parent_ior = orb.activate(
        parent, PARENT_GRM_INTERFACE, key=f"{campus}/parent"
    ).to_string()
    facade_ior = orb.activate(
        parent, GRM_INTERFACE, key=f"{campus}/grm-facade"
    ).to_string()
    for cluster in clusters:
        handle = grid.add_cluster(cluster)
        for i in range(nodes_each):
            grid.add_node(cluster, f"{cluster}-n{i}", dedicated=True)
        stub = handle.orb.stub(parent_ior, PARENT_GRM_INTERFACE)
        ClusterUplink(grid.loop, handle.grm, stub, handle.grm_ior,
                      interval=120.0)
    return parent, parent_ior, facade_ior, orb


@pytest.fixture
def three_tier():
    """root -> {campus_a: 2x2 nodes, campus_b: 2x4 nodes}."""
    grid = Grid(seed=7, policy="first_fit", lupa_enabled=False,
                update_interval=60.0)
    campus_a, a_ior, a_facade, a_orb = build_campus(
        grid, "campus_a", ["a1", "a2"], nodes_each=2
    )
    campus_b, b_ior, b_facade, b_orb = build_campus(
        grid, "campus_b", ["b1", "b2"], nodes_each=4
    )
    root_orb = Orb("root-orb", domain=grid.domain)
    root = ParentGrm(grid.loop, root_orb, name="root")
    root_ior = root_orb.activate(
        root, PARENT_GRM_INTERFACE, key="root/parent"
    ).to_string()
    for campus, orb, facade in ((campus_a, a_orb, a_facade),
                                (campus_b, b_orb, b_facade)):
        stub = orb.stub(root_ior, PARENT_GRM_INTERFACE)
        ClusterUplink(grid.loop, campus, stub, facade, interval=120.0)
    grid.run_for(300)
    return grid, root, campus_a, campus_b


class TestAggregation:
    def test_root_sees_campuses_as_clusters(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        assert root.clusters == ["campus_a", "campus_b"]
        summary = root.summary_of("campus_b")
        assert summary["nodes"] == 8   # 2 clusters x 4 nodes

    def test_aggregate_summary_sums_children(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        summary = campus_a.cluster_summary()
        assert summary["cluster"] == "campus_a"
        assert summary["nodes"] == 4
        assert summary["sharing_nodes"] == 4

    def test_summaries_flow_upward_periodically(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        before = root.summaries_received
        grid.run_for(SECONDS_PER_HOUR)
        assert root.summaries_received > before


class TestEscalation:
    def gang(self, tasks):
        return ApplicationSpec(
            name="gang", kind="bsp", tasks=tasks, program="p",
            work_mips=2e5, metadata={"supersteps": 2},
        )

    def test_sibling_cluster_placement_stays_in_campus(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        # a1 has 2 nodes; a 2-task gang overflowing... it fits: use a
        # 2-task gang on a cluster with capacity so it stays local.
        job_id = grid.submit(self.gang(2), cluster="a1")
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.COMPLETED
        assert root.remote_submissions == 0

    def test_escalates_to_root_when_campus_is_too_small(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        # 3 tasks: neither a1 nor a2 (2 nodes each) can gang it; campus_b
        # clusters have 4 nodes each.
        job_id = grid.submit(self.gang(3), cluster="a1")
        grid.run_for(3 * SECONDS_PER_HOUR)
        local = grid.job(job_id)
        assert local.forwarded_to
        assert campus_a.upward_forwards == 1
        assert root.remote_submissions == 1
        # The job really ran somewhere under campus_b.
        found = None
        for cluster in ("b1", "b2"):
            try:
                found = grid.clusters[cluster].grm.job(local.forwarded_to)
                break
            except KeyError:
                continue
        assert found is not None
        assert found.state is JobState.COMPLETED

    def test_impossible_everywhere_is_rejected_not_looped(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        job_id = grid.submit(self.gang(50), cluster="a1")
        grid.run_for(2 * SECONDS_PER_HOUR)
        assert grid.job(job_id).state is JobState.PENDING
        assert root.remote_submissions == 0
        assert root.remote_rejections >= 1


class TestGrmFacade:
    def test_submit_delegates_and_status_follows(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        job_id = campus_b.submit(
            ApplicationSpec(name="direct", work_mips=2e5).to_dict()
        )
        grid.run_for(SECONDS_PER_HOUR)
        status = campus_b.job_status(job_id)
        assert status["state"] == "completed"

    def test_no_capacity_raises(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        with pytest.raises(NoCapacity):
            campus_a.submit(
                ApplicationSpec(
                    name="huge", tasks=100, work_mips=1e5
                ).to_dict()
            )

    def test_cancel_delegates(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        job_id = campus_b.submit(
            ApplicationSpec(name="slow", work_mips=1e12).to_dict()
        )
        grid.run_for(600)
        campus_b.cancel_job(job_id)
        assert campus_b.job_status(job_id)["state"] == "cancelled"

    def test_unknown_job(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        with pytest.raises(KeyError):
            campus_a.job_status("ghost")

    def test_node_registration_refused_at_parents(self, three_tier):
        grid, root, campus_a, campus_b = three_tier
        with pytest.raises(TypeError):
            campus_a.register_node({}, "IOR:x")
