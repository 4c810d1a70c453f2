"""E4 — Usage-pattern-aware scheduling vs availability-only policies.

The paper's central scheduling claim: predicting idle periods lets the
GRM "place [applications] on idle nodes with lower probability of
becoming busy before the computation is completed".  Identical machine
seeds and workload under four policies; two weeks of LUPA training
precede the measured batch.  Expected shape: pattern_aware has the
fewest evictions and least wasted CPU; random the most.
"""

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table, describe
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.usage import NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB

from conftest import run_once, save_result

NODES = 12
JOBS = 5
WORK_MIPS = 7.2e6          # ~2 idle hours at 1000 MIPS
TRAINING_DAYS = 9
SEEDS = (31, 32, 33)


def run_policy(policy, seed=31):
    grid = Grid(
        seed=seed, policy=policy, lupa_enabled=True,
        lupa_min_history_days=7, update_interval=120.0,
    )
    grid.add_cluster("c0")
    profiles = [OFFICE_WORKER] * 6 + [STUDENT_LAB] * 3 + [NIGHT_OWL] * 3
    for i, profile in enumerate(profiles):
        grid.add_node("c0", f"n{i:02}", profile=profile,
                      sharing=VACATE_POLICY)
    grid.run_for(TRAINING_DAYS * SECONDS_PER_DAY)
    grid.run_for(9 * SECONDS_PER_HOUR)   # Monday 09:00 of week 3

    job_ids = [
        grid.submit(ApplicationSpec(
            name=f"job{j}", work_mips=WORK_MIPS,
            metadata={"checkpoint_interval_s": 900.0},
        ))
        for j in range(JOBS)
    ]
    deadline = grid.loop.now + 3 * SECONDS_PER_DAY
    while grid.loop.now < deadline:
        grid.run_for(SECONDS_PER_HOUR)
        if all(grid.job(j).done for j in job_ids):
            break

    jobs = [grid.job(j) for j in job_ids]
    makespans = [j.makespan for j in jobs if j.makespan is not None]
    return {
        "completed": len(makespans),
        "p50_makespan_h": describe(makespans)["p50"] / 3600.0
        if makespans else float("nan"),
        "evictions": sum(t.evictions for j in jobs for t in j.tasks),
        "wasted_cpu_min": sum(
            t.wasted_mips for j in jobs for t in j.tasks
        ) / 1000.0 / 60.0,
    }


def run_experiment():
    table = Table(
        ["policy", "jobs completed", "p50 makespan (h)", "evictions",
         "wasted CPU (min)"],
        title=(
            "E4: scheduling policies on a mixed desktop pool\n"
            f"({NODES} nodes, {JOBS} x {WORK_MIPS:.0e} MI jobs, "
            f"submitted weekday 09:00 after {TRAINING_DAYS} days of LUPA "
            f"training; mean of {len(SEEDS)} seeds)"
        ),
    )
    results = {}
    for policy in ("random", "first_fit", "fastest_first", "pattern_aware"):
        runs = [run_policy(policy, seed=seed) for seed in SEEDS]
        outcome = {
            "completed": min(r["completed"] for r in runs),
            "p50_makespan_h": sum(r["p50_makespan_h"] for r in runs)
            / len(runs),
            "evictions": sum(r["evictions"] for r in runs) / len(runs),
            "wasted_cpu_min": sum(r["wasted_cpu_min"] for r in runs)
            / len(runs),
        }
        results[policy] = outcome
        table.add_row(
            policy, f"{outcome['completed']}/{JOBS}",
            outcome["p50_makespan_h"], outcome["evictions"],
            outcome["wasted_cpu_min"],
        )
    return table, results


def test_e4_scheduling_policies(benchmark):
    table, results = run_once(benchmark, run_experiment)
    save_result("e4_scheduling_policies", table.render(), table=table)
    # Everyone finishes the batch eventually...
    assert all(r["completed"] == JOBS for r in results.values())
    # ...but the pattern-aware policy wastes the least and evicts least
    # among the availability-only alternatives.
    baseline = min(
        results[p]["evictions"]
        for p in ("random", "first_fit", "fastest_first")
    )
    assert results["pattern_aware"]["evictions"] <= baseline
