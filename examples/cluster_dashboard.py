#!/usr/bin/env python
"""Cluster dashboard: a week of grid operation, monitored.

Attaches a :class:`~repro.core.monitor.ClusterMonitor` to a busy mixed
cluster and renders the week as ASCII sparklines: owner activity, grid
supply (free CPU under the owners' policies), and grid work actually
placed — the ebb and flow the paper's whole design is about (day-time
owners, night-time harvesting).

Run:  python examples/cluster_dashboard.py
"""

from repro import ApplicationSpec, Grid
from repro.core.monitor import ClusterMonitor
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.usage import NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB

NODES = 12
DAYS = 7


def main():
    grid = Grid(seed=23, policy="fastest_first", lupa_enabled=False,
                update_interval=300.0)
    grid.add_cluster("dept")
    profiles = [OFFICE_WORKER] * 7 + [STUDENT_LAB] * 3 + [NIGHT_OWL] * 2
    for i, profile in enumerate(profiles):
        grid.add_node("dept", f"ws{i:02}", profile=profile,
                      sharing=VACATE_POLICY)
    monitor = ClusterMonitor(grid.loop, grid.clusters["dept"].grm,
                             period=1800.0)

    # A steady stream of grid work: one two-task job every 3 hours.
    def submit_batch():
        grid.submit(ApplicationSpec(
            name="work", tasks=2, work_mips=1.2e7,
            metadata={"checkpoint_interval_s": 900.0},
        ))

    grid.loop.every(3 * SECONDS_PER_HOUR, submit_batch)
    print(f"Simulating {DAYS} days of a {NODES}-node department "
          "with a steady job stream...\n")
    grid.run_for(DAYS * SECONDS_PER_DAY)

    width = 70
    print(f"One character = {DAYS * 24 / width:.1f} h, "
          "Monday 00:00 -> Sunday 24:00  (darker = more)\n")
    rows = [
        ("owners at their machines", "owner_active_nodes"),
        ("CPU offered to the grid", "cpu_free_for_grid"),
        ("grid tasks running", "grid_tasks"),
        ("tasks waiting (pending)", "pending_tasks"),
    ]
    for label, field in rows:
        line = monitor.sparkline(field, width=width)
        print(f"  {label:<26} |{line}|")

    print()
    grm = grid.clusters["dept"].grm
    done = sum(1 for j in grm.jobs if j.makespan is not None)
    print(f"jobs completed: {done}/{len(grm.jobs)}   "
          f"evictions handled: {grm.stats.evictions_handled}   "
          f"mean grid tasks running: {monitor.mean('grid_tasks'):.1f}")
    print("\nThe anti-correlation is the paper's story: the grid rises "
          "when the owners leave\n(nights, weekend) and yields when "
          "they return.")


if __name__ == "__main__":
    main()
