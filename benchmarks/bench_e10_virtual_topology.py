"""E10 — virtual-topology-aware group placement.

The paper's worked request: "two groups of 50 nodes, each group
connected internally by a 100 Mbps network and the two groups connected
by a 10 Mbps network; each node should have at least 16 MB of RAM and a
CPU of at least 500 MIPS."  Three measurements:

1. the exact request is satisfiable and correctly placed on a matching
   physical network (one group per fast segment);
2. satisfiability degrades honestly when the physical network cannot
   honour the requested bandwidths;
3. topology-aware placement beats topology-blind placement on superstep
   communication time (blind placement splits groups across the slow
   uplink).
"""

from repro import (
    ApplicationSpec,
    Grid,
    NodeGroupRequest,
    ResourceRequirements,
    VirtualTopologyRequest,
)
from repro.analysis.metrics import Table
from repro.sim.clock import SECONDS_PER_DAY
from repro.sim.machine import MachineSpec
from repro.sim.network import NetworkTopology

from conftest import run_once, save_result

GROUP = 50
NODE_REQS = ResourceRequirements(min_mips=500.0, min_ram_mb=16.0)


def build_network(intra_mbps, inter_mbps):
    network = NetworkTopology()
    network.add_segment("west", bandwidth_mbps=intra_mbps)
    network.add_segment("east", bandwidth_mbps=intra_mbps)
    network.connect("west", "east", bandwidth_mbps=inter_mbps)
    return network


def build_grid(intra_mbps=100.0, inter_mbps=10.0, spare=5):
    network = build_network(intra_mbps, inter_mbps)
    grid = Grid(seed=5, policy="first_fit", lupa_enabled=False,
                update_interval=600.0)
    grid.add_cluster("campus", network=network)
    spec = MachineSpec(mips=800.0, ram_mb=64.0)
    for i in range(GROUP + spare):
        grid.add_node("campus", f"w{i:02}", spec=spec, dedicated=True,
                      segment="west")
        grid.add_node("campus", f"e{i:02}", spec=spec, dedicated=True,
                      segment="east")
    grid.run_for(1200)
    return grid, network


def paper_request(inter_required=10.0, intra_required=100.0):
    return VirtualTopologyRequest(
        groups=(NodeGroupRequest(GROUP, intra_required, NODE_REQS),
                NodeGroupRequest(GROUP, intra_required, NODE_REQS)),
        inter_bandwidth_mbps=inter_required,
    )


def submit_topology_job(grid, topology):
    spec = ApplicationSpec(
        name="application-X", kind="bsp", tasks=2 * GROUP,
        program="application_x", work_mips=4e5,
        topology=topology,
        metadata={"supersteps": 4, "superstep_comm_bytes": 50_000},
    )
    job_id = grid.submit(spec)
    grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    return grid.job(job_id), grid.coordinator(job_id)


def placement_quality(job, network):
    segments = {}
    for task in job.tasks:
        if task.node is None:
            return None
        segments.setdefault(network.segment_of(task.node), 0)
        segments[network.segment_of(task.node)] += 1
    return segments


def run_satisfiable():
    grid, network = build_grid()
    job, coordinator = submit_topology_job(grid, paper_request())
    segments = placement_quality(job, network)
    return {
        "done": job.done and job.makespan is not None,
        "segments": segments,
        "comm_total_s": coordinator.comm_seconds_total,
    }


def run_unsatisfiable(inter_required):
    grid, _ = build_grid(inter_mbps=1.0)   # physical uplink only 1 Mbps
    spec = ApplicationSpec(
        name="application-X", kind="bsp", tasks=2 * GROUP,
        program="application_x", work_mips=4e5,
        topology=paper_request(inter_required=inter_required),
        metadata={"supersteps": 4},
    )
    job_id = grid.submit(spec)
    grid.run_for(4 * 3600)
    job = grid.job(job_id)
    return {
        "placed": any(t.node is not None for t in job.tasks),
        "gang_failures": grid.clusters["campus"].grm.stats.gang_failures,
    }


def run_blind():
    """Same job, topology request stripped: the GRM places blindly."""
    grid, network = build_grid()
    spec = ApplicationSpec(
        name="application-X-blind", kind="bsp", tasks=2 * GROUP,
        program="application_x", work_mips=4e5,
        metadata={"supersteps": 4, "superstep_comm_bytes": 50_000},
    )
    job_id = grid.submit(spec)
    grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    job = grid.job(job_id)
    coordinator = grid.coordinator(job_id)
    segments = placement_quality(job, network)
    return {
        "done": job.done,
        "segments": segments,
        "comm_total_s": coordinator.comm_seconds_total,
    }


def run_experiment():
    aware = run_satisfiable()
    blind = run_blind()
    impossible = run_unsatisfiable(inter_required=10.0)

    table = Table(
        ["scenario", "placed", "group split (west/east)",
         "superstep comm total (s)"],
        title=(
            "E10: the paper's 2 x 50-node virtual topology request\n"
            "(physical: two 100 Mbps labs joined by 10 Mbps)"
        ),
    )
    table.add_row(
        "topology-aware (the paper's request)",
        aware["done"],
        f"{aware['segments'].get('west', 0)}/{aware['segments'].get('east', 0)}",
        aware["comm_total_s"],
    )
    table.add_row(
        "topology-blind (request stripped)",
        blind["done"],
        f"{blind['segments'].get('west', 0)}/{blind['segments'].get('east', 0)}",
        blind["comm_total_s"],
    )
    table.add_row(
        "physically unsatisfiable (1 Mbps uplink)",
        impossible["placed"],
        "-",
        "-",
    )
    return table, aware, blind, impossible


def test_e10_virtual_topology(benchmark):
    table, aware, blind, impossible = run_once(benchmark, run_experiment)
    save_result("e10_virtual_topology", table.render(), table=table)
    # The exact paper request is satisfied: 50/50 split, one group per lab.
    assert aware["done"]
    assert sorted(aware["segments"].values()) == [GROUP, GROUP]
    # Topology-aware placement keeps group traffic off the slow uplink.
    assert aware["comm_total_s"] < blind["comm_total_s"]
    # An unsatisfiable request is refused, not mis-placed.
    assert not impossible["placed"]
    assert impossible["gang_failures"] > 0
