"""A1 — ablation: negotiate-then-reserve vs trusting the hint.

The paper is explicit that the GRM's trader contents are only "a hint";
the Reservation Protocol's direct negotiation with fallback candidates
is what makes placement robust to staleness.  This ablation swaps in a
GRM that asks only its single best-ranked candidate per pass
(:class:`repro.baselines.simple.OptimisticGrm`) and measures what the
negotiation machinery is worth under stale information.  Expected
shape: with fresh hints both behave alike; with stale hints the
optimistic GRM's time-to-placement degrades much faster.
"""

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table, describe
from repro.baselines.simple import OptimisticGrm
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.usage import ERRATIC

from conftest import run_once, save_result

NODES = 8
JOBS = 20


def run_variant(update_interval, optimistic, seed=3):
    grid = Grid(
        seed=seed, policy="first_fit", lupa_enabled=False,
        update_interval=update_interval,
        schedule_interval=60.0,
    )
    handle = grid.add_cluster("c0")
    if optimistic:
        handle.grm.__class__ = OptimisticGrm
    for i in range(NODES):
        grid.add_node("c0", f"n{i:02}", profile=ERRATIC,
                      sharing=VACATE_POLICY)
    grid.run_for(SECONDS_PER_HOUR)

    job_ids = []
    for j in range(JOBS):
        job_ids.append(grid.submit(
            ApplicationSpec(name=f"job{j}", work_mips=1.2e6)
        ))
        grid.run_for(15 * 60)
    grid.run_for(6 * SECONDS_PER_HOUR)

    delays = []
    for job_id in job_ids:
        job = grid.job(job_id)
        for task in job.tasks:
            first_run = next(
                (e.time for e in task.history if e.state == "running"), None
            )
            if first_run is not None:
                delays.append(first_run - job.submitted_at)
    grm = grid.clusters["c0"].grm
    return {
        "placed": len(delays),
        "p50_delay_min": describe(delays)["p50"] / 60 if delays else None,
        "p95_delay_min": describe(delays)["p95"] / 60 if delays else None,
        "refusal_rate": (
            grm.stats.reservations_refused / grm.stats.negotiation_rounds
            if grm.stats.negotiation_rounds else 0.0
        ),
    }


def run_experiment():
    table = Table(
        ["update interval (s)", "GRM variant", "tasks placed",
         "p50 place (min)", "p95 place (min)", "refusal rate"],
        title=(
            "A1: negotiation protocol vs trusting the hint\n"
            f"({NODES} erratic desktops, {JOBS} jobs)"
        ),
    )
    results = {}
    for interval in (60.0, 600.0):
        for optimistic in (False, True):
            outcome = run_variant(interval, optimistic)
            results[(interval, optimistic)] = outcome
            table.add_row(
                int(interval),
                "optimistic (1 candidate)" if optimistic
                else "negotiating (paper)",
                outcome["placed"],
                outcome["p50_delay_min"],
                outcome["p95_delay_min"],
                outcome["refusal_rate"],
            )
    return table, results


def test_a1_ablation_negotiation(benchmark):
    table, results = run_once(benchmark, run_experiment)
    save_result("a1_ablation_negotiation", table.render(), table=table)
    # Everything is eventually placed either way...
    assert all(r["placed"] == JOBS for r in results.values())
    # ...but under stale hints, skipping negotiation fallback costs
    # placement latency.
    stale_negotiating = results[(600.0, False)]
    stale_optimistic = results[(600.0, True)]
    assert stale_optimistic["p95_delay_min"] > \
        stale_negotiating["p95_delay_min"]
