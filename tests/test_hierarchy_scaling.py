"""Tests for the wide-area plane at scale.

A parent does two things with its children's summaries — aggregates
them for its own parent, and ranks them for placement from an index it
maintains as they arrive — and drops a silent child from both.
Hypothesis drives arbitrary interleavings of register / summary /
unregister / demote / revive over arbitrary floats against a model kept
here (the aggregate) and against the original scan-and-sort ranking in
``tests/oracles/hierarchy.py`` (the index).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ApplicationSpec, Grid, JobState
from repro.apps.spec import ResourceRequirements
from repro.core.hierarchy import (
    ClusterUplink,
    HierarchyError,
    NoCapacity,
    ParentGrm,
)
from repro.core.protocols import GRM_INTERFACE, PARENT_GRM_INTERFACE
from repro.orb.core import Orb
from repro.orb.exceptions import OrbError
from repro.orb.transport import InProcDomain
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.events import EventLoop
from tests.oracles.hierarchy import rank_candidates


class FakeChildGrm:
    """A GRM-shaped servant: just enough to register under GRM_INTERFACE."""

    def __init__(self, name="fake"):
        self.name = name
        self.submitted = []

    def register_node(self, status, lrm_ior):
        pass

    def unregister_node(self, node):
        pass

    def send_update(self, status):
        pass

    def heartbeat(self, node):
        pass

    def submit(self, spec):
        self.submitted.append(spec)
        return f"{self.name}-job-{len(self.submitted)}"

    def register_asct(self, job_id, asct_ior):
        pass

    def job_status(self, job_id):
        return {"state": "running"}

    def cancel_job(self, job_id):
        pass

    def task_completed(self, node, task_id, result):
        pass

    def task_evicted(self, node, task_id, progress, resume):
        pass

    def task_reached_limit(self, node, task_id):
        pass


def make_parent(**kwargs):
    loop = EventLoop()
    orb = Orb("parent-test-orb", domain=InProcDomain())
    child_ior = orb.activate(
        FakeChildGrm(), GRM_INTERFACE, key="fake/grm"
    ).to_string()
    parent = ParentGrm(loop, orb, name="parent", **kwargs)
    return loop, orb, parent, child_ior


# Any finite non-negative double, with a few repeated levels mixed in so
# free-CPU ties (the registration-order tie-break) actually occur.
any_floats = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
cpu_floats = st.sampled_from([0.0, 2.0, 4.0, 4.0, 8.0]) | any_floats
small_ints = st.integers(min_value=0, max_value=200)


def summary_strategy(cluster):
    return st.fixed_dictionaries({
        "cluster": st.just(cluster),
        "time": any_floats,
        "nodes": small_ints,
        "sharing_nodes": small_ints,
        "free_cpu_total": cpu_floats,
        "free_mem_total_mb": any_floats,
        "max_node_mips": any_floats,
        "pending_tasks": small_ints,
    })


_CLUSTERS = [f"c{i}" for i in range(6)]

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["register", "summary"]),
            st.sampled_from(_CLUSTERS),
        ).flatmap(lambda t: st.tuples(
            st.just(t[0]), st.just(t[1]), summary_strategy(t[1])
        )),
        st.tuples(
            st.just("unregister"), st.sampled_from(_CLUSTERS), st.none(),
        ),
        # Nobody reports for long enough that every child is demoted.
        st.tuples(st.just("silence"), st.none(), st.none()),
    ),
    max_size=40,
)


def spec_dict(tasks=1, cpu_fraction=1.0, min_mips=0.0):
    return ApplicationSpec(
        name="probe", tasks=tasks,
        requirements=ResourceRequirements(
            cpu_fraction=cpu_fraction, min_mips=min_mips
        ),
    ).to_dict()


def ranked(parent, spec, origin):
    """``(index walk, oracle scan-and-sort)`` as cluster names."""
    return (
        [r.cluster for r in parent._candidates(spec, origin)],
        [r.cluster for r in rank_candidates(
            parent, ApplicationSpec.from_dict(spec), origin)],
    )


class TestAggregation:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=ops_strategy,
        tasks=st.integers(min_value=1, max_value=8),
        cpu_fraction=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_equals_sum_over_live_children_under_arbitrary_interleavings(
            self, ops, tasks, cpu_fraction):
        stale_after = 1050.0
        loop, orb, parent, child_ior = make_parent(stale_after=stale_after)
        spec = spec_dict(tasks=tasks, cpu_fraction=cpu_fraction)
        # The model: last summary per registered child, in the order the
        # parent keeps them (a re-registration keeps its place), and
        # which of them have been heard from since the last silence.
        held, alive = {}, set()
        for op, cluster, summary in ops:
            if op == "register":
                parent.register_cluster(summary, child_ior)
                held[cluster] = summary
                alive.add(cluster)
            elif op == "summary":
                parent.send_summary(summary)
                if cluster in held:
                    held[cluster] = summary
                    alive.add(cluster)
            elif op == "unregister":
                parent.unregister_cluster(cluster)
                held.pop(cluster, None)
                alive.discard(cluster)
            else:
                loop.run_for(2 * stale_after + 1.0)
                alive.clear()
            live = [held[c] for c in held if c in alive]
            assert parent.cluster_summary() == {
                "cluster": "parent",
                "time": loop.now,
                "nodes": sum(s["nodes"] for s in live),
                "sharing_nodes": sum(s["sharing_nodes"] for s in live),
                "free_cpu_total": sum(s["free_cpu_total"] for s in live),
                "free_mem_total_mb": sum(
                    s["free_mem_total_mb"] for s in live),
                "max_node_mips": max(
                    (s["max_node_mips"] for s in live), default=0.0),
                "pending_tasks": sum(s["pending_tasks"] for s in live),
            }
            # The index went through the same transitions.
            indexed, oracle = ranked(parent, spec, origin="c0")
            assert indexed == oracle
            assert set(indexed) <= alive

    def test_empty_parent_aggregates_to_zero(self):
        _, _, parent, _ = make_parent()
        summary = parent.cluster_summary()
        assert summary["nodes"] == 0
        assert summary["free_cpu_total"] == 0
        assert summary["max_node_mips"] == 0.0


class TestIndexedPlacement:
    @settings(max_examples=60, deadline=None)
    @given(
        free_cpus=st.lists(cpu_floats, min_size=1, max_size=12),
        sharing=st.lists(small_ints, min_size=12, max_size=12),
        mips=st.lists(any_floats, min_size=12, max_size=12),
        tasks=st.integers(min_value=1, max_value=8),
        cpu_fraction=st.floats(min_value=0.01, max_value=1.0),
        min_mips=st.sampled_from([0.0, 100.0, 600.0]),
        origin_idx=st.integers(min_value=0, max_value=12),
    )
    def test_order_matches_seed_rank(self, free_cpus, sharing, mips, tasks,
                                     cpu_fraction, min_mips, origin_idx):
        loop, orb, parent, child_ior = make_parent()
        for i, free_cpu in enumerate(free_cpus):
            parent.register_cluster({
                "cluster": f"c{i}", "time": 0.0,
                "nodes": sharing[i] + 1, "sharing_nodes": sharing[i],
                "free_cpu_total": free_cpu,
                "free_mem_total_mb": 1024.0,
                "max_node_mips": mips[i],
                "pending_tasks": 0,
            }, child_ior)
        spec = spec_dict(
            tasks=tasks, cpu_fraction=cpu_fraction, min_mips=min_mips)
        indexed, oracle = ranked(parent, spec, origin=f"c{origin_idx}")
        assert indexed == oracle

    def test_reregistration_keeps_tie_rank(self):
        loop, orb, parent, child_ior = make_parent()

        def summary(cluster, free_cpu):
            return {
                "cluster": cluster, "time": 0.0, "nodes": 4,
                "sharing_nodes": 4, "free_cpu_total": free_cpu,
                "free_mem_total_mb": 512.0, "max_node_mips": 1000.0,
                "pending_tasks": 0,
            }

        for name in ("a", "b", "c"):
            parent.register_cluster(summary(name, 4.0), child_ior)
        # Re-register "a": it keeps its place, so the tie order stays
        # a, b, c.
        parent.register_cluster(summary("a", 4.0), child_ior)
        indexed, oracle = ranked(parent, spec_dict(tasks=1), origin="")
        assert indexed == oracle == ["a", "b", "c"]

    def test_index_prunes_before_any_remote_call(self):
        loop, orb, parent, child_ior = make_parent()
        for i in range(8):
            parent.register_cluster({
                "cluster": f"c{i}", "time": 0.0, "nodes": 8,
                "sharing_nodes": 8, "free_cpu_total": float(i),
                "free_mem_total_mb": 512.0, "max_node_mips": 1000.0,
                "pending_tasks": 0,
            }, child_ior)
        # Six tasks need 6.0 CPUs: only c6 and c7 qualify; the walk stops
        # at the first under-provisioned entry instead of scanning all 8.
        eligible = parent._candidates(spec_dict(tasks=6), origin="")
        assert [r.cluster for r in eligible] == ["c7", "c6"]
        assert parent.placements_admitted == 2
        assert parent.placements_skipped_by_index == 6


class TestSatelliteFixes:
    def test_delegated_jobs_is_plain_attribute(self):
        _, _, parent, _ = make_parent()
        assert parent._delegated_jobs == {}
        assert "_delegated_jobs" in vars(parent)

    def test_unregistered_summary_counted_and_journalled(self):
        from repro.obs.journal import EventJournal
        _, _, parent, _ = make_parent()
        journal = EventJournal()
        parent.journal = journal
        parent.send_summary({"cluster": "ghost", "time": 0.0, "nodes": 1,
                             "sharing_nodes": 1, "free_cpu_total": 1.0,
                             "free_mem_total_mb": 1.0,
                             "max_node_mips": 1.0, "pending_tasks": 0})
        assert parent.summaries_dropped == 1
        dropped = journal.select(type="update_dropped")
        assert len(dropped) == 1
        assert dropped[0].attrs["cluster"] == "ghost"
        assert parent.summaries_received == 0

    def test_dead_child_wrapped_in_hierarchy_error(self):
        grid = Grid(seed=3, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("alpha")
        for i in range(2):
            grid.add_node("alpha", f"a{i}", dedicated=True)
        parent, _ = grid.connect_clusters_to_parent()
        grid.run_for(120)
        job_id = parent.submit(
            ApplicationSpec(name="slow", work_mips=1e12).to_dict()
        )
        grid.run_for(600)
        # The cluster manager dies mid-flight.
        grid.clusters["alpha"].orb.shutdown()
        with pytest.raises(HierarchyError) as excinfo:
            parent.job_status(job_id)
        assert excinfo.value.cluster == "alpha"
        assert isinstance(excinfo.value.cause, OrbError)
        with pytest.raises(HierarchyError):
            parent.cancel_job(job_id)

    def test_unknown_job_still_raises_key_error(self):
        _, _, parent, _ = make_parent()
        with pytest.raises(KeyError):
            parent.job_status("ghost")


class TestCycleRejection:
    def test_visited_cycle_rejected(self):
        _, _, parent, child_ior = make_parent()
        spec = spec_dict()
        spec["metadata"] = {"visited": ["parent"]}
        assert parent.submit_remote(spec, "elsewhere") == ""
        assert parent.remote_rejections == 1


def build_scaled_three_tier():
    grid = Grid(seed=7, policy="first_fit", lupa_enabled=False,
                update_interval=60.0, summary_interval=120.0)
    for cluster, n in (("a1", 2), ("a2", 2), ("b1", 4), ("b2", 4)):
        grid.add_cluster(cluster)
        for i in range(n):
            grid.add_node(cluster, f"{cluster}-n{i}", dedicated=True)
    parents, uplinks = grid.build_hierarchy({
        "root": [{"campus_a": ["a1", "a2"]}, {"campus_b": ["b1", "b2"]}],
    })
    grid.run_for(300)
    return grid, parents, uplinks


GANG_OF_THREE = ApplicationSpec(
    name="gang", kind="bsp", tasks=3, program="p",
    work_mips=2e5, metadata={"supersteps": 2},
)


class TestScaledHierarchy:
    def test_build_hierarchy_shape(self):
        grid, parents, uplinks = build_scaled_three_tier()
        assert sorted(parents) == ["campus_a", "campus_b", "root"]
        assert len(uplinks) == 6          # one per edge, sub-parents too
        assert parents["root"].clusters == ["campus_a", "campus_b"]
        assert parents["campus_a"].clusters == ["a1", "a2"]
        summary = parents["root"].summary_of("campus_b")
        assert summary["nodes"] == 8

    def test_three_level_escalation(self):
        grid, parents, uplinks = build_scaled_three_tier()
        job_id = grid.submit(GANG_OF_THREE, cluster="a1")
        grid.run_for(3 * SECONDS_PER_HOUR)
        local = grid.job(job_id)
        assert local.forwarded_to
        assert parents["campus_a"].upward_forwards == 1
        assert parents["root"].remote_submissions == 1
        found = None
        for cluster in ("b1", "b2"):
            try:
                found = grid.clusters[cluster].grm.job(local.forwarded_to)
                break
            except KeyError:
                continue
        assert found is not None
        assert found.state is JobState.COMPLETED

    def test_run_is_deterministic(self):
        def digest():
            import hashlib
            grid, parents, _ = build_scaled_three_tier()
            grid.submit(GANG_OF_THREE, cluster="a1")
            h = hashlib.sha256()
            for _ in range(24):
                grid.run_for(1800.0)
                h.update(repr(grid.loop.now).encode())
                h.update(repr(grid.loop.events_fired).encode())
            h.update(repr(grid.protocol_stats()).encode())
            return h.hexdigest()

        assert digest() == digest()

    def test_stopped_sub_parent_goes_silent_and_is_demoted(self):
        grid, parents, uplinks = build_scaled_three_tier()
        root, campus_a = parents["root"], parents["campus_a"]
        grid.run_until(600.0)
        # A sub-parent's edge is an uplink like any cluster's.
        next(u for u in uplinks if u._grm is campus_a).stop()
        heard = root.summaries_received
        grid.run_until(1200.0)
        # Five intervals of 120 s: campus_b alone reported.
        assert root.summaries_received == heard + 5
        assert root._children["campus_a"].last_seen == 600.0
        # Silent since 600 s and stale 3.5 x 120 = 420 s later; the sweep
        # runs every 420 s, so the one at 1260 s is the first past 1020 s.
        assert root._children["campus_a"].alive
        grid.run_until(1260.0)
        assert not root._children["campus_a"].alive
        assert root.clusters_declared_stale == 1
        assert root.cluster_summary()["nodes"] == 8     # campus_b's


    def test_every_placement_lands_in_one_table(self):
        """The facade's ``submit``, ``submit_remote`` and an escalation
        each record where the job went, and the job answers from there."""
        grid, parents, _ = build_scaled_three_tier()
        root, campus_a, campus_b = (
            parents["root"], parents["campus_a"], parents["campus_b"])
        direct = campus_b.submit(
            ApplicationSpec(name="direct", work_mips=2e5).to_dict())
        remote = campus_a.submit_remote(
            ApplicationSpec(name="remote", tasks=2, work_mips=2e5).to_dict(),
            "a1")
        escalated = grid.job(grid.submit(GANG_OF_THREE, cluster="a1"))
        grid.run_for(60)
        assert campus_b._delegated_jobs[direct][0] == direct.split("-")[0]
        assert campus_a._delegated_jobs[remote][0] == "a2"
        forwarded = escalated.forwarded_to
        assert campus_a._delegated_jobs[forwarded][0] == "parent"
        assert root._delegated_jobs[forwarded][0] == "campus_b"
        assert forwarded in campus_b._delegated_jobs
        grid.run_for(3 * SECONDS_PER_HOUR)
        for parent, job_id in ((campus_b, direct), (campus_a, remote),
                               (campus_a, forwarded), (root, forwarded)):
            status = parent.job_status(job_id)
            assert status["job_id"] == job_id
            assert status["state"] == "completed"
        assert grid.clusters["a1"].grm.job_status(escalated.job_id) == \
            root.job_status(forwarded)

    def test_a_sub_parent_uplink_stops_like_a_cluster_uplink(self):
        grid, parents, uplinks = build_scaled_three_tier()
        root, campus_a, campus_b = (
            parents["root"], parents["campus_a"], parents["campus_b"])
        grid.run_until(600.0)
        # A parent's stop() ends its own sweep, not its edge upward.
        campus_a.stop()
        grid.run_until(1200.0)
        assert root._children["campus_a"].last_seen == 1200.0
        b1 = grid.clusters["b1"].grm
        for uplink in uplinks:
            if uplink._grm in (campus_a, b1):
                uplink.stop()
        # Both children fell silent at 1200 s; root and campus_b sweep
        # every 420 s, and the sweep at 1680 s is the first past 1620 s.
        grid.run_until(1679.0)
        assert root._children["campus_a"].alive
        assert campus_b._children["b1"].alive
        grid.run_until(1680.0)
        assert not root._children["campus_a"].alive
        assert not campus_b._children["b1"].alive
        assert root.clusters_declared_stale == 1
        assert campus_b.clusters_declared_stale == 1


class TestStaleClusters:
    """A parent demotes a child silent for 3.5 summary intervals — on
    every grid, whatever its keywords — and revives it on its next
    summary."""

    def build(self):
        grid = Grid(seed=5, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("alpha")
        grid.add_cluster("beta")
        for i in range(2):
            grid.add_node("alpha", f"a{i}", dedicated=True)
            grid.add_node("beta", f"b{i}", dedicated=True)
        grid.enable_journal()
        parent, uplinks = grid.connect_clusters_to_parent()
        grid.run_for(600)
        # alpha's uplink dies (its summaries stop); stale_after is
        # 3.5 * 300 = 1050 s.
        next(u for u in uplinks if u._grm.cluster == "alpha").stop()
        grid.run_for(2 * 1050 + 600)
        return grid, parent

    def test_stale_cluster_demoted_then_revived(self):
        grid, parent = self.build()
        assert not parent._children["alpha"].alive
        assert parent.clusters_declared_stale == 1
        downs = grid.journal.select(type="cluster_down")
        assert any(e.attrs["cluster"] == "alpha" for e in downs)
        # Neither placement nor the aggregate offers the dead cluster.
        candidates = parent._candidates(spec_dict(), origin="")
        assert [r.cluster for r in candidates] == ["beta"]
        assert parent.cluster_summary()["nodes"] == 2
        # The cluster comes back: one summary revives it.
        parent.send_summary(
            grid.clusters["alpha"].grm.cluster_summary()
        )
        assert parent._children["alpha"].alive
        ups = grid.journal.select(type="cluster_up")
        assert any(
            e.attrs.get("reason") == "summaries resumed" for e in ups
        )
        candidates = parent._candidates(spec_dict(), origin="")
        assert sorted(r.cluster for r in candidates) == ["alpha", "beta"]
        assert parent.cluster_summary()["nodes"] == 4

    def test_doctor_names_the_dead_cluster(self):
        grid, parent = self.build()
        report = grid.health_report()
        assert [d["cluster"] for d in report["dead_clusters"]] == ["alpha"]
        dead = report["dead_clusters"][0]
        assert dead["parent"] == "parent"
        assert dead["reason"] == "summaries stale"
        from repro.obs.health import render_health_report
        assert "cluster alpha DOWN" in render_health_report(report)


class TestMetricsWiring:
    def test_parent_views_and_submit_histogram(self):
        grid = Grid(seed=2, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("alpha")
        for i in range(2):
            grid.add_node("alpha", f"a{i}", dedicated=True)
        registry = grid.enable_metrics()
        parent, _ = grid.connect_clusters_to_parent()
        grid.run_for(120)
        parent.submit(ApplicationSpec(name="m", work_mips=2e5).to_dict())
        snapshot = registry.snapshot()["metrics"]
        assert snapshot["parent.parent.registered_clusters"] == 1
        assert snapshot["parent.parent.summaries.received"] >= 0
        assert snapshot["parent.parent.submit_latency_s"]["count"] == 1
        assert "parent.parent.placement.admitted" in snapshot


class TestGrmClusterSummary:
    def test_stale_pending_job_id_does_not_crash(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("alpha")
        grid.add_node("alpha", "a0", dedicated=True)
        grm = grid.clusters["alpha"].grm
        grm._pending.append("ghost-job")
        summary = grm.cluster_summary()   # seed raised KeyError here
        assert summary["pending_tasks"] == 0

    def test_sums_track_updates(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False,
                    update_interval=60.0)
        grid.add_cluster("alpha")
        for i in range(3):
            grid.add_node("alpha", f"a{i}", dedicated=True)
        grm = grid.clusters["alpha"].grm
        first = grm.cluster_summary()
        again = grm.cluster_summary()
        assert {k: v for k, v in first.items() if k != "time"} == \
            {k: v for k, v in again.items() if k != "time"}
        grid.run_for(SECONDS_PER_HOUR)
        fresh = grm.cluster_summary()
        assert fresh["nodes"] == 3
        # A roster change shows in the next summary.
        grm.unregister_node("a0")
        assert grm.cluster_summary()["nodes"] == 2
