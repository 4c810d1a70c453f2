#!/usr/bin/env python
"""The paper's virtual-topology request, verbatim.

Section 3: "a grid user may, for example, submit the following request
to InteGrade: execute application X in two groups of 50 nodes, each
group connected internally by a 100 Mbps network and the two groups
connected by a 10 Mbps network; each node should have at least 16 MB of
RAM and a CPU of at least 500 MIPS."

This example builds exactly that physical network, submits exactly that
request, and shows the GRM's topology-aware gang placement honouring it.

Run:  python examples/virtual_topology.py
"""

from repro import (
    ApplicationSpec,
    Grid,
    NodeGroupRequest,
    ResourceRequirements,
    VirtualTopologyRequest,
)
from repro.sim.clock import SECONDS_PER_DAY
from repro.sim.machine import MachineSpec
from repro.sim.network import NetworkTopology

GROUP_SIZE = 50


def main():
    # The physical network: two 100 Mbps segments, a 10 Mbps uplink.
    network = NetworkTopology()
    network.add_segment("west-lab", bandwidth_mbps=100.0)
    network.add_segment("east-lab", bandwidth_mbps=100.0)
    network.connect("west-lab", "east-lab", bandwidth_mbps=10.0)

    grid = Grid(seed=5, policy="first_fit", lupa_enabled=False,
                update_interval=300.0)
    grid.add_cluster("campus", network=network)
    # 55 nodes per lab (a little slack), meeting the hardware minima.
    spec = MachineSpec(mips=800.0, ram_mb=64.0)
    for i in range(GROUP_SIZE + 5):
        grid.add_node("campus", f"west{i:02}", spec=spec,
                      dedicated=True, segment="west-lab")
        grid.add_node("campus", f"east{i:02}", spec=spec,
                      dedicated=True, segment="east-lab")
    grid.run_for(600)

    # The request, exactly as Section 3 words it.
    node_reqs = ResourceRequirements(min_mips=500.0, min_ram_mb=16.0)
    request = VirtualTopologyRequest(
        groups=(
            NodeGroupRequest(GROUP_SIZE, 100.0, node_reqs),
            NodeGroupRequest(GROUP_SIZE, 100.0, node_reqs),
        ),
        inter_bandwidth_mbps=10.0,
    )
    spec = ApplicationSpec(
        name="application-X",
        kind="bsp",
        tasks=2 * GROUP_SIZE,
        program="application_x",
        work_mips=5e5,
        topology=request,
        metadata={"supersteps": 4, "superstep_comm_bytes": 200_000},
    )
    job_id = grid.submit(spec)
    done = grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    job = grid.job(job_id)

    print(f"Request: 2 groups x {GROUP_SIZE} nodes, 100 Mbps intra, "
          f"10 Mbps inter, >=16 MB RAM, >=500 MIPS")
    print(f"Job {job_id}: done={done}, state={job.state.value}\n")

    placement: dict = {}
    for task in job.tasks:
        placement.setdefault(network.segment_of(task.node), []).append(task)
    for segment, tasks in sorted(placement.items()):
        print(f"  {segment}: {len(tasks)} processes "
              f"(e.g. {sorted(t.node for t in tasks)[:4]} ...)")

    west = next(t.node for t in job.tasks
                if network.segment_of(t.node) == "west-lab")
    east = next(t.node for t in job.tasks
                if network.segment_of(t.node) == "east-lab")
    intra = network.link_between(west, sorted(
        t.node for t in job.tasks
        if network.segment_of(t.node) == "west-lab")[1])
    inter = network.link_between(west, east)
    print(f"\n  intra-group bandwidth: {intra.bandwidth_mbps:.0f} Mbps "
          f"(requested >= 100)")
    print(f"  inter-group bandwidth: {inter.bandwidth_mbps:.0f} Mbps "
          f"(requested >= 10)")
    coordinator = grid.coordinator(job_id)
    print(f"  superstep communication time, 100-node barrier: "
          f"{coordinator.comm_seconds_total:.2f} s total "
          f"(bottlenecked by the 10 Mbps uplink)")


if __name__ == "__main__":
    main()
