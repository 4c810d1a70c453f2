"""E8 — InteGrade vs Condor-style vs BOINC-style on a desktop pool.

The Related Work deltas, measured instead of asserted.  One pool shape
(14 office/lab desktops + 2 dedicated nodes, identical owner seeds), one
workload (10 sequential jobs + 2 four-process BSP jobs), three systems:

* **InteGrade** — pattern-aware scheduling, negotiation, checkpointing,
  gang placement of BSP jobs on *shared* desktops;
* **Condor-style** — matchmaking + vacate; parallel jobs restricted to
  dedicated machines (Wright 2001), no parallel checkpointing;
* **BOINC-style** — pull work units (quorum 1 here, to measure
  throughput rather than redundancy); parallel jobs rejected outright.

Expected shape: all three finish the sequential work; only InteGrade
runs the parallel jobs on shared desktops (Condor needs the dedicated
pair and restarts gangs from scratch on eviction; BOINC cannot accept
them at all).
"""

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table, describe
from repro.baselines.boinc import BoincProject, UnsupportedApplication
from repro.baselines.condor import CondorPool
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import OFFICE_WORKER, STUDENT_LAB
from repro.sim.workstation import Workstation

from conftest import run_once, save_result

SEQ_JOBS = 10
SEQ_WORK = 3.6e6
BSP_JOBS = 2
BSP_TASKS = 4
BSP_WORK = 1.8e6
HORIZON = 2 * SECONDS_PER_DAY
SEED = 77

POOL_PROFILES = [OFFICE_WORKER] * 9 + [STUDENT_LAB] * 5


def seq_spec(j):
    return ApplicationSpec(name=f"seq{j}", work_mips=SEQ_WORK,
                           metadata={"checkpoint_interval_s": 900.0})


def bsp_spec(j):
    return ApplicationSpec(
        name=f"bsp{j}", kind="bsp", tasks=BSP_TASKS, program="kernel",
        work_mips=BSP_WORK, checkpoint_every_supersteps=2,
        metadata={"supersteps": 8, "superstep_comm_bytes": 100_000},
    )


def run_integrade():
    grid = Grid(seed=SEED, policy="pattern_aware", lupa_enabled=True,
                update_interval=120.0)
    grid.add_cluster("c0")
    for i, profile in enumerate(POOL_PROFILES):
        grid.add_node("c0", f"ws{i:02}", profile=profile,
                      sharing=VACATE_POLICY)
    for i in range(2):
        grid.add_node("c0", f"ded{i}", dedicated=True)
    grid.run_for(9 * SECONDS_PER_HOUR)   # submit Monday 09:00
    seq_ids = [grid.submit(seq_spec(j)) for j in range(SEQ_JOBS)]
    bsp_ids = [grid.submit(bsp_spec(j)) for j in range(BSP_JOBS)]
    deadline = grid.loop.now + HORIZON
    while grid.loop.now < deadline:
        grid.run_for(SECONDS_PER_HOUR)
        if all(grid.job(j).done for j in seq_ids + bsp_ids):
            break
    seq_spans = [grid.job(j).makespan for j in seq_ids
                 if grid.job(j).makespan is not None]
    bsp_done = sum(1 for j in bsp_ids if grid.job(j).makespan is not None)
    evictions = sum(
        t.evictions for j in seq_ids + bsp_ids
        for t in grid.job(j).tasks
    )
    return {
        "seq_done": len(seq_spans),
        "seq_p50_h": describe(seq_spans)["p50"] / 3600 if seq_spans else None,
        "bsp_done": bsp_done,
        "evictions": evictions,
        "parallel_on_desktops": True,
    }


def _pool_workstations(loop):
    from repro.sim.rng import SeededStreams
    streams = SeededStreams(SEED)
    stations = [
        Workstation(loop, f"ws{i:02}", spec=MachineSpec(),
                    profile=profile, rng=streams.stream(f"owner.ws{i:02}"))
        for i, profile in enumerate(POOL_PROFILES)
    ]
    dedicated = [
        Workstation(loop, f"ded{i}", spec=MachineSpec())
        for i in range(2)
    ]
    return stations, dedicated


def run_condor():
    loop = EventLoop()
    pool = CondorPool(loop, checkpoint_interval_s=900.0)
    stations, dedicated = _pool_workstations(loop)
    for ws in stations:
        pool.add_machine(ws)
    for ws in dedicated:
        pool.add_machine(ws, dedicated=True)
    loop.run_until(9 * SECONDS_PER_HOUR)
    seq_ids = [pool.submit(seq_spec(j)) for j in range(SEQ_JOBS)]
    bsp_ids = [pool.submit(bsp_spec(j)) for j in range(BSP_JOBS)]
    loop.run_until(loop.now + HORIZON)
    seq_spans = [
        pool.job(j).completed_at - pool.job(j).submitted_at
        for j in seq_ids if pool.job(j).done
    ]
    bsp_done = sum(1 for j in bsp_ids if pool.job(j).done)
    evictions = sum(pool.job(j).evictions for j in seq_ids + bsp_ids)
    return {
        "seq_done": len(seq_spans),
        "seq_p50_h": describe(seq_spans)["p50"] / 3600 if seq_spans else None,
        "bsp_done": bsp_done,
        "evictions": evictions,
        "parallel_on_desktops": False,   # dedicated universe only
    }


def run_boinc():
    loop = EventLoop()
    project = BoincProject(loop)
    stations, dedicated = _pool_workstations(loop)
    for ws in stations + dedicated:
        project.add_client(ws, connect_interval=600.0)
    loop.run_until(9 * SECONDS_PER_HOUR)
    seq_ids = [project.submit(seq_spec(j), quorum=1) for j in range(SEQ_JOBS)]
    bsp_rejected = 0
    for j in range(BSP_JOBS):
        try:
            project.submit(bsp_spec(j))
        except UnsupportedApplication:
            bsp_rejected += 1
    loop.run_until(loop.now + HORIZON)
    seq_spans = [
        project.job(j).completed_at - project.job(j).submitted_at
        for j in seq_ids if project.job(j).done
    ]
    return {
        "seq_done": len(seq_spans),
        "seq_p50_h": describe(seq_spans)["p50"] / 3600 if seq_spans else None,
        "bsp_done": 0,
        "bsp_rejected": bsp_rejected,
        "evictions": 0,   # pauses, never evictions
        "parallel_on_desktops": False,
    }


def run_experiment():
    table = Table(
        ["system", "seq done", "seq p50 (h)", "parallel done",
         "parallel on shared desktops", "evictions"],
        title=(
            "E8: one desktop pool, three middlewares\n"
            f"({len(POOL_PROFILES)} desktops + 2 dedicated; "
            f"{SEQ_JOBS} sequential + {BSP_JOBS} x {BSP_TASKS}-process BSP "
            f"jobs; {HORIZON / 3600:.0f} h horizon)"
        ),
    )
    results = {
        "InteGrade": run_integrade(),
        "Condor-style": run_condor(),
        "BOINC-style": run_boinc(),
    }
    for name, r in results.items():
        table.add_row(
            name, f"{r['seq_done']}/{SEQ_JOBS}",
            r["seq_p50_h"] if r["seq_p50_h"] is not None else "-",
            f"{r['bsp_done']}/{BSP_JOBS}",
            r["parallel_on_desktops"], r["evictions"],
        )
    return table, results


def test_e8_baseline_comparison(benchmark):
    table, results = run_once(benchmark, run_experiment)
    save_result("e8_baseline_comparison", table.render(), table=table)
    # Everyone gets the sequential work done within the horizon.
    for r in results.values():
        assert r["seq_done"] == SEQ_JOBS
    # Only InteGrade completes the parallel jobs on shared desktops.
    assert results["InteGrade"]["bsp_done"] == BSP_JOBS
    assert results["InteGrade"]["parallel_on_desktops"]
    assert not results["Condor-style"]["parallel_on_desktops"]
    assert results["BOINC-style"]["bsp_done"] == 0
    assert results["BOINC-style"]["bsp_rejected"] == BSP_JOBS
