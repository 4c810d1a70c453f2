"""Tests for the scaled wide-area plane (PR 9).

Equivalence discipline, same as the information/execution planes: every
optimisation keeps the seed implementation alive as an oracle —
``aggregate_oracle()`` for incremental aggregation, ``_rank_candidates``
for indexed placement — and hypothesis drives arbitrary interleavings
against both.  Float fields use an exact binary grid (multiples of 0.25)
so incremental add/subtract running sums are bit-equal to fresh sums.
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

    def send_delta(self, node, delta):
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


# Exact binary grid: all values are multiples of 0.25, so incremental
# running sums are bit-identical to recomputed sums.
grid_floats = st.integers(min_value=0, max_value=4000).map(
    lambda n: n * 0.25
)
small_ints = st.integers(min_value=0, max_value=200)


def summary_strategy(cluster):
    return st.fixed_dictionaries({
        "cluster": st.just(cluster),
        "time": grid_floats,
        "nodes": small_ints,
        "sharing_nodes": small_ints,
        "free_cpu_total": grid_floats,
        "free_mem_total_mb": grid_floats,
        "max_node_mips": grid_floats,
        "pending_tasks": small_ints,
    })


_CLUSTERS = [f"c{i}" for i in range(6)]

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("register"),
            st.sampled_from(_CLUSTERS),
        ).flatmap(lambda t: st.tuples(
            st.just(t[0]), st.just(t[1]), summary_strategy(t[1])
        )),
        st.tuples(
            st.just("summary"),
            st.sampled_from(_CLUSTERS),
        ).flatmap(lambda t: st.tuples(
            st.just(t[0]), st.just(t[1]), summary_strategy(t[1])
        )),
        st.tuples(
            st.just("delta"),
            st.sampled_from(_CLUSTERS),
            st.dictionaries(
                st.sampled_from([
                    "nodes", "sharing_nodes", "free_cpu_total",
                    "free_mem_total_mb", "max_node_mips", "pending_tasks",
                ]),
                small_ints,
                max_size=4,
            ),
        ),
        st.tuples(
            st.just("unregister"),
            st.sampled_from(_CLUSTERS),
            st.just(None),
        ),
    ),
    max_size=40,
)


class TestIncrementalAggregation:
    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy)
    def test_matches_oracle_under_arbitrary_interleavings(self, ops):
        loop, orb, parent, child_ior = make_parent(
            incremental_aggregation=True, indexed_placement=True
        )
        registered = set()
        for op, cluster, payload in ops:
            if op == "register":
                parent.register_cluster(payload, child_ior)
                registered.add(cluster)
            elif op == "summary" and cluster in registered:
                parent.send_summary(payload)
            elif op == "delta" and cluster in registered:
                # Integer-valued deltas stay on the exact grid.
                delta = dict(payload)
                for key in ("free_cpu_total", "free_mem_total_mb",
                            "max_node_mips"):
                    if key in delta:
                        delta[key] = float(delta[key])
                parent.send_summary_delta(cluster, delta)
            elif op == "unregister":
                parent.unregister_cluster(cluster)
                registered.discard(cluster)
            incremental = parent.aggregate_summary()
            oracle = parent.aggregate_oracle()
            assert incremental == oracle

    def test_empty_parent_aggregates_to_zero(self):
        _, _, parent, _ = make_parent(incremental_aggregation=True)
        summary = parent.aggregate_summary()
        assert summary["nodes"] == 0
        assert summary["max_node_mips"] == 0.0
        assert summary == parent.aggregate_oracle()


def spec_dict(tasks=1, cpu_fraction=1.0, min_mips=0.0):
    return ApplicationSpec(
        name="probe", tasks=tasks,
        requirements=ResourceRequirements(
            cpu_fraction=cpu_fraction, min_mips=min_mips
        ),
    ).to_dict()


class TestIndexedPlacement:
    @settings(max_examples=60, deadline=None)
    @given(
        # Few distinct free-CPU levels force ties, exercising the
        # registration-order tie-break against the seed stable sort.
        free_cpus=st.lists(
            st.sampled_from([0.0, 2.0, 4.0, 4.0, 8.0]),
            min_size=1, max_size=12,
        ),
        sharing=st.lists(small_ints, min_size=12, max_size=12),
        mips=st.lists(grid_floats, min_size=12, max_size=12),
        tasks=st.integers(min_value=1, max_value=8),
        min_mips=st.sampled_from([0.0, 100.0, 600.0]),
        origin_idx=st.integers(min_value=0, max_value=12),
    )
    def test_order_matches_seed_rank(self, free_cpus, sharing, mips,
                                     tasks, min_mips, origin_idx):
        loop, orb, parent, child_ior = make_parent(indexed_placement=True)
        for i, free_cpu in enumerate(free_cpus):
            parent.register_cluster({
                "cluster": f"c{i}", "time": 0.0,
                "nodes": sharing[i] + 1, "sharing_nodes": sharing[i],
                "free_cpu_total": free_cpu,
                "free_mem_total_mb": 1024.0,
                "max_node_mips": mips[i],
                "pending_tasks": 0,
            }, child_ior)
        origin = f"c{origin_idx}"
        spec = ApplicationSpec.from_dict(spec_dict(
            tasks=tasks, min_mips=min_mips
        ))
        seed_order = [
            r.cluster for r in parent._rank_candidates(spec, origin)
        ]
        indexed_order = [
            r.cluster for r in parent._indexed_candidates(
                tasks * 1.0, tasks, min_mips, origin
            )
        ]
        assert indexed_order == seed_order

    def test_reregistration_keeps_tie_rank(self):
        loop, orb, parent, child_ior = make_parent(indexed_placement=True)

        def summary(cluster, free_cpu):
            return {
                "cluster": cluster, "time": 0.0, "nodes": 4,
                "sharing_nodes": 4, "free_cpu_total": free_cpu,
                "free_mem_total_mb": 512.0, "max_node_mips": 1000.0,
                "pending_tasks": 0,
            }

        for name in ("a", "b", "c"):
            parent.register_cluster(summary(name, 4.0), child_ior)
        # Re-register "a": the seed dict keeps its key position, so the
        # tie order must stay a, b, c.
        parent.register_cluster(summary("a", 4.0), child_ior)
        spec = ApplicationSpec.from_dict(spec_dict(tasks=1))
        assert [r.cluster for r in parent._rank_candidates(spec, "")] == \
            [r.cluster for r in parent._indexed_candidates(1.0, 1, 0.0, "")]

    def test_index_prunes_before_any_remote_call(self):
        loop, orb, parent, child_ior = make_parent(indexed_placement=True)
        for i in range(8):
            parent.register_cluster({
                "cluster": f"c{i}", "time": 0.0, "nodes": 2,
                "sharing_nodes": 2, "free_cpu_total": float(i),
                "free_mem_total_mb": 512.0, "max_node_mips": 1000.0,
                "pending_tasks": 0,
            }, child_ior)
        # needed_cpu = 6: only c6 and c7 qualify; the walk must stop at
        # the first under-provisioned entry instead of scanning all 8.
        eligible = parent._indexed_candidates(6.0, 2, 0.0, "")
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
        parent.set_journal(journal)
        parent.send_summary({"cluster": "ghost", "time": 0.0, "nodes": 1,
                             "sharing_nodes": 1, "free_cpu_total": 1.0,
                             "free_mem_total_mb": 1.0,
                             "max_node_mips": 1.0, "pending_tasks": 0})
        parent.send_summary_delta("ghost", {"time": 1.0})
        assert parent.summaries_dropped == 2
        dropped = journal.select(type="update_dropped")
        assert len(dropped) == 2
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


def build_scaled_three_tier(**flags):
    grid = Grid(seed=7, policy="first_fit", lupa_enabled=False,
                update_interval=60.0,
                summary_interval=120.0, **flags)
    for cluster, n in (("a1", 2), ("a2", 2), ("b1", 4), ("b2", 4)):
        grid.add_cluster(cluster)
        for i in range(n):
            grid.add_node(cluster, f"{cluster}-n{i}", dedicated=True)
    parents, uplinks = grid.build_hierarchy({
        "root": [{"campus_a": ["a1", "a2"]}, {"campus_b": ["b1", "b2"]}],
    })
    grid.run_for(300)
    return grid, parents, uplinks


ALL_FLAGS = dict(
    incremental_summaries=True, indexed_placement=True,
    delta_uplinks=True, max_summary_interval=960.0,
)


class TestScaledHierarchy:
    def test_build_hierarchy_shape(self):
        grid, parents, uplinks = build_scaled_three_tier(**ALL_FLAGS)
        assert sorted(parents) == ["campus_a", "campus_b", "root"]
        assert len(uplinks) == 4
        assert parents["root"].clusters == ["campus_a", "campus_b"]
        assert parents["campus_a"].clusters == ["a1", "a2"]
        summary = parents["root"].summary_of("campus_b")
        assert summary["nodes"] == 8

    def test_three_level_escalation_with_flags_on(self):
        grid, parents, uplinks = build_scaled_three_tier(**ALL_FLAGS)
        spec = ApplicationSpec(
            name="gang", kind="bsp", tasks=3, program="p",
            work_mips=2e5, metadata={"supersteps": 2},
        )
        job_id = grid.submit(spec, cluster="a1")
        grid.run_for(3 * SECONDS_PER_HOUR)
        local = grid.job(job_id)
        assert local.forwarded_to
        assert parents["campus_a"].upward_forwards == 1
        assert parents["campus_a"].placements_escalated == 1
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

    def test_same_workload_same_placement_as_seed_flags(self):
        results = {}
        for label, flags in (("seed", {}), ("scaled", ALL_FLAGS)):
            grid, parents, _ = build_scaled_three_tier(**flags)
            spec = ApplicationSpec(
                name="gang", kind="bsp", tasks=3, program="p",
                work_mips=2e5, metadata={"supersteps": 2},
            )
            job_id = grid.submit(spec, cluster="a1")
            grid.run_for(3 * SECONDS_PER_HOUR)
            results[label] = grid.job(job_id).forwarded_to
        assert results["seed"] == results["scaled"]

    def test_flags_on_run_is_deterministic(self):
        def digest():
            import hashlib
            grid, parents, _ = build_scaled_three_tier(**ALL_FLAGS)
            job_id = grid.submit(
                ApplicationSpec(
                    name="gang", kind="bsp", tasks=3, program="p",
                    work_mips=2e5, metadata={"supersteps": 2},
                ),
                cluster="a1",
            )
            h = hashlib.sha256()
            for _ in range(24):
                grid.run_for(1800.0)
                h.update(repr(grid.loop.now).encode())
                h.update(repr(grid.loop.events_fired).encode())
            h.update(repr(grid.protocol_stats()).encode())
            return h.hexdigest()

        assert digest() == digest()


class TestDeltaUplinks:
    def build(self, **extra):
        grid = Grid(seed=5, policy="first_fit", lupa_enabled=False,
                    update_interval=60.0,
                    summary_interval=120.0, delta_uplinks=True,
                    incremental_summaries=True, indexed_placement=True,
                    max_summary_interval=480.0, **extra)
        grid.add_cluster("alpha")
        grid.add_cluster("beta")
        for i in range(2):
            grid.add_node("alpha", f"a{i}", dedicated=True)
            grid.add_node("beta", f"b{i}", dedicated=True)
        return grid

    def test_parent_view_tracks_sender_baseline_exactly(self):
        grid = self.build()
        parent, uplinks = grid.connect_clusters_to_parent()
        grid.run_for(4 * SECONDS_PER_HOUR)
        for uplink in uplinks:
            cluster = uplink._grm.cluster
            # The delta protocol's invariant: the receiver's stored state
            # is exactly the sender's baseline.
            assert parent.summary_of(cluster) == uplink._delta.baseline
        assert parent.summaries_received == sum(
            u.summaries_sent for u in uplinks
        )

    def test_idle_clusters_suppress_summaries(self):
        grid = self.build()
        parent, uplinks = grid.connect_clusters_to_parent()
        grid.run_for(8 * SECONDS_PER_HOUR)
        # Dedicated idle clusters: after the first sends, almost all
        # traffic is heartbeats, at a throttled cadence.
        assert parent.summaries_suppressed > 0
        fixed_cadence = 8 * SECONDS_PER_HOUR / 120.0 * len(uplinks)
        assert parent.summaries_received < fixed_cadence / 2

    def test_stale_cluster_demoted_then_revived(self):
        grid = self.build()
        grid.enable_journal()
        parent, uplinks = grid.connect_clusters_to_parent()
        grid.run_for(600)
        # alpha's uplink dies (its summaries stop); stale_after is
        # 3.5 * 480 = 1680s.
        alpha_uplink = next(
            u for u in uplinks if u._grm.cluster == "alpha"
        )
        alpha_uplink.stop()
        grid.run_for(2 * 1680 + 600)
        record = parent._children["alpha"]
        assert not record.alive
        assert parent.clusters_declared_stale == 1
        downs = grid.journal.select(type="cluster_down")
        assert any(e.attrs["cluster"] == "alpha" for e in downs)
        # Placement no longer offers the dead cluster.
        candidates = parent._candidates(spec_dict(), origin="")
        assert all(r.cluster != "alpha" for r in candidates)
        assert parent.aggregate_summary() == parent.aggregate_oracle()
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
        assert any(r.cluster == "alpha" for r in candidates)
        assert parent.aggregate_summary() == parent.aggregate_oracle()

    def test_doctor_names_the_dead_cluster(self):
        grid = self.build()
        grid.enable_journal()
        parent, uplinks = grid.connect_clusters_to_parent()
        grid.run_for(600)
        next(u for u in uplinks if u._grm.cluster == "alpha").stop()
        grid.run_for(2 * 1680 + 600)
        report = grid.health_report()
        assert [d["cluster"] for d in report["dead_clusters"]] == ["alpha"]
        dead = report["dead_clusters"][0]
        assert dead["parent"] == "parent"
        assert dead["reason"] == "summaries stale"
        from repro.obs.health import render_health_report
        assert "cluster alpha DOWN" in render_health_report(report)


class TestMetricsWiring:
    def test_parent_views_and_submit_histogram(self):
        grid = Grid(seed=2, policy="first_fit", lupa_enabled=False,
                    indexed_placement=True, incremental_summaries=True)
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


class TestGrmSummaryCache:
    def test_stale_pending_job_id_does_not_crash(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("alpha")
        grid.add_node("alpha", "a0", dedicated=True)
        grm = grid.clusters["alpha"].grm
        grm._pending.append("ghost-job")
        summary = grm.cluster_summary()   # seed raised KeyError here
        assert summary["pending_tasks"] == 0

    def test_cached_sums_track_updates(self):
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
        # Cache invalidation on roster change.
        grm.unregister_node("a0")
        assert grm.cluster_summary()["nodes"] == 2
