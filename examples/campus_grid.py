#!/usr/bin/env python
"""A multi-cluster campus grid with wide-area overflow.

Three departmental clusters — a small maths lab, a big CS instructional
lab, and a physics group with fast dedicated nodes — are joined under a
parent GRM ("clusters are then arranged in a hierarchy", Section 4).
Jobs the home cluster cannot place are forwarded: the parent sees only
aggregated per-cluster summaries, never per-node status.  A forwarded
BSP gang is paced, and checkpointed, by the GRM of the cluster it lands
in, and a user who submitted through an ASCT follows a forwarded job to
where it runs.

Run:  python examples/campus_grid.py
"""

from repro import ApplicationSpec, Grid, ResourceRequirements
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.machine import MachineSpec
from repro.sim.usage import OFFICE_WORKER, STUDENT_LAB


def main():
    grid = Grid(seed=17, policy="first_fit", lupa_enabled=False,
                update_interval=120.0)

    grid.add_cluster("maths")
    for i in range(3):
        grid.add_node("maths", f"maths{i}", profile=OFFICE_WORKER)

    grid.add_cluster("cs")
    for i in range(12):
        grid.add_node("cs", f"cs{i}", profile=STUDENT_LAB)

    grid.add_cluster("physics")
    for i in range(4):
        grid.add_node("physics", f"phys{i}",
                      spec=MachineSpec(mips=3000.0), dedicated=True)

    parent, uplinks = grid.connect_clusters_to_parent("campus")
    grid.run_for(600)

    print("Campus hierarchy: parent sees aggregated summaries only:\n")
    for cluster in parent.clusters:
        summary = parent.summary_of(cluster)
        print(f"  {cluster:<8} nodes={summary['nodes']:>2}  "
              f"sharing={summary['sharing_nodes']:>2}  "
              f"free_cpu={summary['free_cpu_total']:5.1f}  "
              f"max_mips={summary['max_node_mips']:.0f}")

    # 1. A job maths *can* run stays home.
    local_id = grid.submit(
        ApplicationSpec(name="small-solve", work_mips=1e6), cluster="maths"
    )

    # 2. An 8-process gang cannot fit in maths (3 nodes) -> forwarded.
    gang_id = grid.submit(
        ApplicationSpec(
            name="big-gang", kind="bsp", tasks=8, program="stencil",
            work_mips=2e6, checkpoint_every_supersteps=1,
            metadata={"supersteps": 4},
        ),
        cluster="maths",
    )

    # 3. A job needing >= 2000 MIPS nodes: only physics qualifies.  The
    #    user submits it through an ASCT at maths.
    asct = grid.make_asct("maths")
    fast_id = asct.submit(
        ApplicationSpec(
            name="needs-fast-cpu", work_mips=6e6,
            requirements=ResourceRequirements(min_mips=2000.0),
        )
    )

    grid.run_for(6 * SECONDS_PER_HOUR)

    print("\nOutcomes for three jobs submitted at the maths cluster:\n")
    for job_id, label in ((local_id, "small-solve"),
                          (gang_id, "big-gang x8"),
                          (fast_id, "needs-fast-cpu")):
        job = grid.job(job_id)
        where = "stayed home"
        if job.forwarded_to:
            job = grid.job(job.forwarded_to)
            where = f"forwarded -> {job.job_id.rsplit('-job', 1)[0]}"
        nodes = sorted({t.node for t in job.tasks if t.node})
        print(f"  {label:<15} {where:<22}"
              f"state={job.state.value:<10} nodes={nodes}")
        # A BSP job is paced by the GRM it ran under, home or not.
        coordinator = grid.coordinator(job.job_id)
        if coordinator is not None:
            status = coordinator.status()
            print(f"  {'':<15} paced as {job.job_id}: superstep "
                  f"{status['superstep'] + 1}/{status['supersteps']}, "
                  f"{status['checkpoints_saved']} checkpoint(s), "
                  f"{status['rollbacks']} rollback(s)")

    # The ASCT asks its home GRM, which answers from where the job runs.
    status = asct.status(fast_id)
    heard = ", ".join(f"{e.event} {e.job_id}" for e in asct.events)
    print(f"\nASCT view of {fast_id}: {status['job_id']} is "
          f"{status['state']} (progress {status['progress']:.0%}); "
          f"heard: {heard}")

    print(f"\nParent GRM: {parent.summaries_received} summaries received, "
          f"{parent.remote_submissions} wide-area placements.")


if __name__ == "__main__":
    main()
