"""Every instrument reaches every component, whenever it is switched on.

The grid attaches its three instruments (metrics registry, event
journal, wire meter) to each kind of component in one place, and both
the creation sites and the ``enable_*`` methods go through it.  A
grid instrumented before it is built must therefore end up wired —
and journal — exactly like one instrumented after.
"""

import pytest

from repro.apps.spec import BSP, ApplicationSpec
from repro.core.grid import Grid

CLUSTERS = ("a", "b")
NODES_PER_CLUSTER = 3


def enable_all(grid: Grid) -> None:
    grid.enable_metrics()
    grid.enable_journal()
    grid.enable_wire_meter()


def build(grid: Grid) -> str:
    """Two clusters under a parent, an ASCT on ``b`` with one job, and
    one BSP job on ``a``."""
    for cluster in CLUSTERS:
        grid.add_cluster(cluster)
        for i in range(NODES_PER_CLUSTER):
            grid.add_node(cluster, f"{cluster}{i}")
    grid.connect_clusters_to_parent()
    grid.make_asct("b").submit(ApplicationSpec(name="seq", work_mips=2e6))
    return grid.submit(ApplicationSpec(
        name="bsp", kind=BSP, tasks=2, program="kernel", work_mips=4e6,
        checkpoint_every_supersteps=2,
        metadata={"supersteps": 4, "superstep_comm_bytes": 1000},
    ), "a")


def instrumented_grid(before: bool):
    grid = Grid(seed=3)
    if before:
        enable_all(grid)
    job_id = build(grid)
    if not before:
        enable_all(grid)
    return grid, job_id


def journal_sequence(grid: Grid) -> list:
    return [
        (e.time, e.type, e.node, e.attrs.get("cluster"), e.job_id, e.task_id)
        for e in grid.journal.events
    ]


def test_cluster_added_after_the_journal_is_journalled():
    grid = Grid()
    grid.enable_journal()
    grid.add_cluster("late")
    grid.add_node("late", "n0")
    grid.run_for(600)
    assert grid.clusters["late"].grm.journal is grid.journal
    ups = grid.journal.select(type="node_up", node="n0")
    assert len(ups) == 1
    assert not ups[0].attrs.get("retroactive")


@pytest.mark.parametrize("before", [True, False],
                         ids=["enabled-before-build", "enabled-after-build"])
def test_every_component_carries_every_instrument(before):
    grid, job_id = instrumented_grid(before)
    registry, journal, meter = grid.metrics, grid.journal, grid.wire_meter
    names = set(registry.names())

    assert len(grid._orbs) == 1 + 2 + 2 * NODES_PER_CLUSTER + 1
    for orb in grid._orbs:
        assert orb._client_interceptors.count(meter) == 1
        assert f"orb.{orb.name}" in names
    for handle in grid.clusters.values():
        grm = handle.grm
        assert grm.journal is journal
        assert f"checkpoint.{handle.name}.saves" in names
        for node in handle.nodes.values():
            assert node.lrm.journal is journal
            assert node.lrm.ledger.journal is journal
            assert f"lrm.{node.name}.completed_count" in names
            assert node.lupa is not None
            assert f"lupa.{node.name}.samples_taken" in names
    (parent,) = grid._parents.values()
    assert parent.journal is journal
    assert grid.coordinator(job_id) is not None
    assert {"orb.totals", "lrm.total.completed_count",
            "eventloop.events_fired"} <= names

    # Every latency histogram times its path.  A submit that names the
    # parent as already visited is refused at once, touching nothing.
    parent.submit_remote({"metadata": {"visited": [parent.name]}}, "a")
    grid.run_for(3600)
    timed_paths = [f"parent.{parent.name}.submit_latency_s"]
    for cluster in CLUSTERS:
        timed_paths += [f"grm.{cluster}.ingest_latency_s",
                        f"grm.{cluster}.rank_latency_s",
                        f"trader.{cluster}.query_latency_s"]
    for name in timed_paths:
        assert registry.get(name).count > 0, name
    # The coordinator journals through its GRM.
    assert journal.select(type="bsp_superstep", job_id=job_id)


def test_enabling_is_idempotent():
    grid, _ = instrumented_grid(before=True)
    names = grid.metrics.names()
    recorded = grid.journal.recorded
    enable_all(grid)
    grid._attach_all()
    assert grid.metrics.names() == names
    assert grid.journal.recorded == recorded
    for orb in grid._orbs:
        assert orb._client_interceptors.count(grid.wire_meter) == 1


def test_before_and_after_build_wire_and_journal_the_same():
    early, early_job = instrumented_grid(before=True)
    late, late_job = instrumented_grid(before=False)
    assert early_job == late_job
    assert early.metrics.names() == late.metrics.names()
    early.run_for(6 * 3600)
    late.run_for(6 * 3600)
    assert early.job(early_job).done
    sequence = journal_sequence(early)
    assert {"node_up", "cluster_up", "bsp_superstep",
            "task_completed"} <= {event[1] for event in sequence}
    assert journal_sequence(late) == sequence


def test_instruments_stay_opt_in():
    grid = Grid()
    build(grid)
    assert (grid.metrics, grid.journal, grid.wire_meter) == (None, None, None)
    for orb in grid._orbs:
        assert not orb._client_interceptors
    for handle in grid.clusters.values():
        grm = handle.grm
        assert grm.journal is None
        # Untimed paths are the plain methods: no wrapper in the way.
        assert grm._timed_ingest == grm._ingest
        assert grm._timed_rank == grm._rank
        assert grm.trader._timed_query == grm.trader._query
