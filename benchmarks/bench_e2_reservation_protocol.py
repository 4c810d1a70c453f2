"""E2 — Resource Reservation and Execution Protocol.

The paper: the GRM's trader contents are only "a hint for locating the
best nodes"; a direct negotiation confirms resources really exist, and
on refusal "the GRM selects another candidate node and repeats the
process".  Sweep the information-update interval (staler hints) on a
volatile desktop pool and measure negotiation rounds per placement,
refusal rate, and time-to-placement.  Expected shape: staler hints mean
more refusals and slower placement, but the protocol always recovers —
no placement ever lands on a node that cannot host it.
"""

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table, describe
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.usage import ERRATIC

from conftest import run_once, save_result

NODES = 8
JOBS = 30


def measure(update_interval, seed=3):
    grid = Grid(
        seed=seed, policy="first_fit", lupa_enabled=False,
        update_interval=update_interval,
        schedule_interval=60.0,
    )
    grid.add_cluster("c0")
    for i in range(NODES):
        # Erratic owners churn constantly: the worst case for stale hints.
        grid.add_node("c0", f"n{i:02}", profile=ERRATIC,
                      sharing=VACATE_POLICY)
    grid.run_for(SECONDS_PER_HOUR)
    grm = grid.clusters["c0"].grm

    placement_delays = []
    job_ids = []
    for j in range(JOBS):
        job_ids.append(grid.submit(
            ApplicationSpec(name=f"job{j}", work_mips=2e6)
        ))
        grid.run_for(10 * 60)   # one job every 10 minutes
    grid.run_for(4 * SECONDS_PER_HOUR)

    for job_id in job_ids:
        job = grid.job(job_id)
        for task in job.tasks:
            first_run = next(
                (e.time for e in task.history if e.state == "running"), None
            )
            if first_run is not None:
                placement_delays.append(first_run - job.submitted_at)

    placements = grm.stats.placements
    rounds = grm.stats.negotiation_rounds
    refused = grm.stats.reservations_refused
    delay = describe(placement_delays)
    return {
        "rounds_per_placement": rounds / placements if placements else 0.0,
        "refusal_rate": refused / rounds if rounds else 0.0,
        "p50_delay_s": delay["p50"],
        "p95_delay_s": delay["p95"],
        "placed": len(placement_delays),
    }


def run_experiment():
    table = Table(
        ["update interval (s)", "negotiation rounds/placement",
         "refusal rate", "p50 place (s)", "p95 place (s)", "tasks placed"],
        title=(
            "E2: Reservation & Execution Protocol vs hint staleness\n"
            f"({NODES} erratic desktops, {JOBS} jobs)"
        ),
    )
    for interval in (30.0, 120.0, 600.0):
        m = measure(interval)
        table.add_row(
            int(interval), m["rounds_per_placement"], m["refusal_rate"],
            m["p50_delay_s"], m["p95_delay_s"], m["placed"],
        )
    return table


def test_e2_reservation_protocol(benchmark):
    table = run_once(benchmark, run_experiment)
    save_result("e2_reservation_protocol", table.render(), table=table)
    fresh = table.rows[0]
    stale = table.rows[-1]
    # Staler hints must cost more negotiation (or at least not less).
    assert float(stale[2]) >= float(fresh[2])
    # The protocol still places everything eventually.
    assert all(int(r[5]) >= JOBS for r in table.rows)
