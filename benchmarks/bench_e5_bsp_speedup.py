"""E5 — BSP application speedup on grid nodes.

The paper claims "support for a broad range of parallel applications"
on shared machines, using BSP.  Fix the total work, split it over 1-16
processes, and measure the speedup curve on dedicated nodes.  Expected
shape: near-linear at small scale, flattening as fixed superstep costs
(the barrier and communication over the LAN, which grows with the
gang) start to weigh on the shrinking per-process compute.
"""

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table
from repro.sim.clock import SECONDS_PER_DAY

from conftest import run_once, save_result

TOTAL_WORK_MIPS = 1.152e7      # 3.2 idle hours at 1000 MIPS, total
SUPERSTEPS = 16


def run_scale(nprocs, seed=2, straggler_mips=None):
    grid = Grid(seed=seed, policy="first_fit", lupa_enabled=False,
                update_interval=300.0)
    grid.add_cluster("c0")
    for i in range(nprocs):
        spec = None
        if straggler_mips is not None and i == 0:
            from repro.sim.machine import MachineSpec
            spec = MachineSpec(mips=straggler_mips)
        grid.add_node("c0", f"d{i:02}", spec=spec, dedicated=True)
    grid.run_for(300)
    spec = ApplicationSpec(
        name=f"bsp{nprocs}", kind="bsp", tasks=nprocs, program="kernel",
        work_mips=TOTAL_WORK_MIPS / nprocs,
        metadata={"supersteps": SUPERSTEPS, "superstep_comm_bytes": 2_000_000},
    )
    job_id = grid.submit(spec)
    assert grid.wait_for_job(job_id, max_seconds=3 * SECONDS_PER_DAY)
    return grid.job(job_id).makespan


def run_experiment():
    table = Table(
        ["processes", "makespan (h)", "speedup", "efficiency"],
        title=(
            "E5: BSP speedup, fixed total work "
            f"({TOTAL_WORK_MIPS:.2e} MI, {SUPERSTEPS} supersteps)"
        ),
    )
    baseline = None
    speedups = {}
    for nprocs in (1, 2, 4, 8, 16):
        makespan = run_scale(nprocs)
        if baseline is None:
            baseline = makespan
        speedup = baseline / makespan
        speedups[nprocs] = speedup
        table.add_row(
            nprocs, makespan / 3600.0, speedup, speedup / nprocs
        )
    # The classic BSP straggler effect: one half-speed member drags
    # every superstep barrier, halving the whole gang.
    straggler_makespan = run_scale(8, straggler_mips=500.0)
    straggler_speedup = baseline / straggler_makespan
    speedups["8+straggler"] = straggler_speedup
    table.add_row(
        "8 (one 500-MIPS member)", straggler_makespan / 3600.0,
        straggler_speedup, straggler_speedup / 8,
    )
    return table, speedups


def test_e5_bsp_speedup(benchmark):
    table, speedups = run_once(benchmark, run_experiment)
    save_result("e5_bsp_speedup", table.render(), table=table)
    # Monotone speedup, near-linear at small scale, sub-linear at 16.
    assert speedups[2] > 1.7
    assert speedups[4] > 3.0
    # Fixed superstep costs bite at scale.  At 16 processes each of the
    # 15 barriers costs 16 x 2 MB x 0.8 x 8 / 100 Mb/s + 0.05 s = 2.10 s
    # on 45 s of compute: efficiency 0.958, falling with every doubling.
    assert speedups[16] / 16 < 0.97
    assert speedups[16] / 16 < speedups[8] / 8 < speedups[4] / 4
    assert speedups[8] > speedups[4]
    assert speedups[16] > speedups[8]
    assert speedups[16] < 16.0
    # One half-speed member roughly halves the gang (barrier-bound).
    assert speedups["8+straggler"] < 0.6 * speedups[8]
