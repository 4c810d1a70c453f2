"""E9 — inter-cluster hierarchy scalability.

Section 4: "Clusters are then arranged in a hierarchy, allowing a
single InteGrade grid to encompass millions of machines."  The
scalability argument is message aggregation: a flat design would push
every node's periodic status to one manager, while the hierarchy's top
level sees one aggregated summary per cluster.  Sweep total node count;
measure messages and bytes per hour at the top-level manager under both
designs, plus wide-area placement success for overflow jobs.
"""

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table
from repro.orb import WireMeter
from repro.sim.clock import SECONDS_PER_HOUR

from conftest import run_once, save_result

NODES_PER_CLUSTER = 25
UPDATE_INTERVAL = 60.0
SUMMARY_INTERVAL = 300.0


def _metered_hour(grid, manager_orb):
    """Requests one manager receives in an hour, priced in CDR bytes."""
    meter = WireMeter()
    manager_orb.add_server_interceptor(meter)
    grid.run_for(SECONDS_PER_HOUR)
    return {
        "msgs_per_hour": meter.requests,
        "kb_per_hour": meter.bytes / 1024,
    }


def run_flat(total_nodes):
    """Every node reports to one GRM — the flat strawman."""
    grid = Grid(seed=4, policy="first_fit", lupa_enabled=False,
                update_interval=UPDATE_INTERVAL)
    grid.add_cluster("flat")
    for i in range(total_nodes):
        grid.add_node("flat", f"n{i:04}", dedicated=True)
    grid.run_for(300)
    return _metered_hour(grid, grid.clusters["flat"].orb)


def run_hierarchical(total_nodes):
    """Clusters of NODES_PER_CLUSTER, summaries to a parent GRM."""
    clusters = max(1, total_nodes // NODES_PER_CLUSTER)
    grid = Grid(seed=4, policy="first_fit", lupa_enabled=False,
                update_interval=UPDATE_INTERVAL)
    for c in range(clusters):
        grid.add_cluster(f"c{c:02}")
        for i in range(NODES_PER_CLUSTER):
            grid.add_node(f"c{c:02}", f"c{c:02}n{i:03}", dedicated=True)
    parent, uplinks = grid.connect_clusters_to_parent()
    # connect_clusters_to_parent builds its own orb; find it via domain.
    parent_orb = grid.domain.lookup("parent-orb")
    grid.run_for(300)
    return {"clusters": clusters, **_metered_hour(grid, parent_orb)}


def run_overflow_check():
    """Wide-area placement still works while summaries stay aggregated."""
    grid = Grid(seed=4, policy="first_fit", lupa_enabled=False,
                update_interval=UPDATE_INTERVAL)
    grid.add_cluster("small")
    for i in range(2):
        grid.add_node("small", f"s{i}", dedicated=True)
    grid.add_cluster("big")
    for i in range(8):
        grid.add_node("big", f"b{i}", dedicated=True)
    parent, _ = grid.connect_clusters_to_parent()
    grid.run_for(300)
    placed = 0
    for j in range(3):
        job_id = grid.submit(ApplicationSpec(
            name=f"gang{j}", kind="bsp", tasks=6, program="p",
            work_mips=2e5, metadata={"supersteps": 2},
        ), cluster="small")
        grid.run_for(2 * SECONDS_PER_HOUR)
        job = grid.job(job_id)
        if job.forwarded_to:
            remote = grid.clusters["big"].grm.job(job.forwarded_to)
            placed += remote.done
    return placed


def run_experiment():
    table = Table(
        ["total nodes", "design", "top-level msgs/h", "top-level KB/h"],
        title=(
            "E9: status traffic at the top-level manager, flat vs "
            f"hierarchical ({NODES_PER_CLUSTER}-node clusters, "
            f"{UPDATE_INTERVAL:.0f} s node updates, "
            f"{SUMMARY_INTERVAL:.0f} s cluster summaries)"
        ),
    )
    ratios = {}
    for total in (50, 100, 200):
        flat = run_flat(total)
        hier = run_hierarchical(total)
        table.add_row(total, "flat", flat["msgs_per_hour"],
                      flat["kb_per_hour"])
        table.add_row(total, f"hierarchy ({hier['clusters']} clusters)",
                      hier["msgs_per_hour"], hier["kb_per_hour"])
        ratios[total] = flat["msgs_per_hour"] / max(1, hier["msgs_per_hour"])
    overflow_placed = run_overflow_check()
    footer = (f"\nwide-area overflow: {overflow_placed}/3 gangs forwarded "
              "by the parent and completed remotely")
    return table, ratios, overflow_placed, footer


def test_e9_hierarchy(benchmark):
    table, ratios, overflow_placed, footer = run_once(benchmark, run_experiment)
    save_result("e9_hierarchy", table.render() + footer, table=table)
    # The hierarchy cuts top-level message load by an order of magnitude...
    assert all(ratio > 10 for ratio in ratios.values())
    # ...increasingly so at scale.
    assert ratios[200] >= ratios[50]
    # And overflow jobs still get placed across clusters.
    assert overflow_placed == 3
