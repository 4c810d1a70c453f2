"""E6 — checkpoint cadence vs failure recovery for BSP jobs.

Section 3: superstep synchronisations provide "milestones that can be
used to resume the application in case of crashes or when there is need
for migration".  A 5-process BSP job runs with one member on a machine
whose owner reliably shows up mid-run (a deterministic blackout window),
forcing evictions.  Sweep the checkpoint cadence.  Expected shape: with
no checkpoints every failure restarts the job from superstep 0 (maximum
lost work); frequent checkpoints bound lost work to under one cadence
interval at the cost of more checkpoint volume.
"""

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table
from repro.core.ncc import BlackoutWindow, SharingPolicy
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR

from conftest import run_once, save_result

PROCESSES = 5
SUPERSTEPS = 24
WORK_MIPS = 2.16e7      # 6 idle hours/process: crosses the blackout


def run_cadence(checkpoint_every, seed=8):
    grid = Grid(seed=seed, policy="first_fit", lupa_enabled=False,
                update_interval=300.0)
    grid.add_cluster("c0")
    for i in range(PROCESSES - 1):
        grid.add_node("c0", f"d{i}", dedicated=True)
    # The flaky member's owner takes the machine 03:00-03:30 every day.
    flaky_policy = SharingPolicy(
        blackouts=(BlackoutWindow(3.0, 3.5),),
    )
    grid.add_node("c0", "flaky", sharing=flaky_policy)
    grid.run_for(300)
    spec = ApplicationSpec(
        name="ckpt", kind="bsp", tasks=PROCESSES, program="kernel",
        work_mips=WORK_MIPS,
        checkpoint_every_supersteps=checkpoint_every,
        metadata={"supersteps": SUPERSTEPS, "superstep_comm_bytes": 100_000},
    )
    job_id = grid.submit(spec)
    done = grid.wait_for_job(job_id, max_seconds=7 * SECONDS_PER_DAY)
    job = grid.job(job_id)
    coordinator = grid.coordinator(job_id)
    wasted = sum(t.wasted_mips for t in job.tasks)
    store = grid.clusters["c0"].checkpoint_store
    return {
        "done": done,
        "makespan_h": (job.makespan or float("nan")) / 3600.0,
        "rollbacks": coordinator.rollbacks,
        "lost_work_cpu_min": wasted / 1000.0 / 60.0,
        "checkpoint_mb": store.bytes_written / 1e6,
        "checkpoints": coordinator.checkpoints_saved,
    }


def run_experiment():
    table = Table(
        ["checkpoint every k supersteps", "makespan (h)", "rollbacks",
         "lost work (CPU min)", "checkpoints saved"],
        title=(
            "E6: BSP checkpoint cadence under daily owner interruptions\n"
            f"({PROCESSES} processes, {SUPERSTEPS} supersteps, one member "
            "on a machine with a 03:00-03:30 blackout)"
        ),
    )
    results = {}
    for cadence in (1, 2, 4, 8, 0):
        outcome = run_cadence(cadence)
        results[cadence] = outcome
        label = str(cadence) if cadence else "none"
        table.add_row(
            label, outcome["makespan_h"], outcome["rollbacks"],
            outcome["lost_work_cpu_min"], outcome["checkpoints"],
        )
    return table, results


def test_e6_checkpointing(benchmark):
    table, results = run_once(benchmark, run_experiment)
    save_result("e6_checkpointing", table.render(), table=table)
    assert all(r["done"] for r in results.values())
    # Failures happened in every configuration.
    assert all(r["rollbacks"] >= 1 for r in results.values())
    # Checkpointing (k=1) loses far less work than none at all.
    assert results[1]["lost_work_cpu_min"] < results[0]["lost_work_cpu_min"]
    # And finishes sooner.
    assert results[1]["makespan_h"] <= results[0]["makespan_h"]
