"""E12 — trace-driven replay validation.

Section 5: the group "started to collect information about node's
usage" — implying experiments against *recorded* traces, not only
synthetic owners.  This experiment closes that loop:

1. record two weeks of owner activity from a mixed live pool;
2. rebuild the identical pool from the recorded traces
   (``Grid.add_trace_node``) and rerun the same scheduling workload;
3. compare: the replayed grid must reproduce the live grid's behaviour
   (same jobs complete; eviction/makespan in the same ballpark), and
   the E4 conclusion (pattern-aware beats availability-only) must
   transfer to trace-driven runs.
"""

import random

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table, describe
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.trace import TraceRecorder
from repro.sim.usage import NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB
from repro.sim.workstation import Workstation

from conftest import run_once, save_result

PROFILES = [OFFICE_WORKER] * 5 + [STUDENT_LAB] * 2 + [NIGHT_OWL] * 2
RECORD_WEEKS = 2
JOBS = 4
WORK_MIPS = 6e6


def record_traces(seed=55):
    """Two weeks of owner activity per node, recorded off live owners."""
    loop = EventLoop()
    recorders = {}
    for i, profile in enumerate(PROFILES):
        name = f"n{i:02}"
        workstation = Workstation(
            loop, name, spec=MachineSpec(), profile=profile,
            rng=random.Random(seed + i),
        )
        recorders[name] = TraceRecorder(workstation, sample_interval=300.0)
    loop.run_until(RECORD_WEEKS * SECONDS_PER_WEEK)
    return {name: r.events for name, r in recorders.items()}


def run_workload(grid):
    grid.run_for(9 * SECONDS_PER_HOUR)   # 09:00 after the lead-in
    job_ids = [
        grid.submit(ApplicationSpec(
            name=f"job{j}", work_mips=WORK_MIPS,
            metadata={"checkpoint_interval_s": 900.0},
        ))
        for j in range(JOBS)
    ]
    deadline = grid.loop.now + 2 * SECONDS_PER_DAY
    while grid.loop.now < deadline:
        grid.run_for(SECONDS_PER_HOUR)
        if all(grid.job(j).done for j in job_ids):
            break
    jobs = [grid.job(j) for j in job_ids]
    spans = [j.makespan for j in jobs if j.makespan is not None]
    return {
        "completed": len(spans),
        "p50_h": describe(spans)["p50"] / 3600 if spans else float("nan"),
        "evictions": sum(t.evictions for j in jobs for t in j.tasks),
    }


def live_grid(policy, seed=55):
    grid = Grid(seed=seed, policy=policy, lupa_enabled=True,
                lupa_min_history_days=7,
                update_interval=300.0)
    grid.add_cluster("c0")
    for i, profile in enumerate(PROFILES):
        grid.add_node("c0", f"n{i:02}", profile=profile,
                      sharing=VACATE_POLICY)
    grid.run_for(RECORD_WEEKS * SECONDS_PER_WEEK)
    return grid


def replay_grid(policy, traces):
    grid = Grid(seed=1, policy=policy, lupa_enabled=True,
                lupa_min_history_days=7,
                update_interval=300.0)
    grid.add_cluster("c0")
    for name, events in traces.items():
        grid.add_trace_node("c0", name, events, sharing=VACATE_POLICY,
                            loop_trace=True)
    grid.run_for(RECORD_WEEKS * SECONDS_PER_WEEK)   # LUPA trains on replay
    return grid


def run_experiment():
    traces = record_traces()
    table = Table(
        ["owners", "policy", "jobs done", "p50 makespan (h)", "evictions"],
        title=(
            "E12: live synthetic owners vs recorded-trace replay\n"
            f"({len(PROFILES)} nodes, {JOBS} x {WORK_MIPS:.0e} MI jobs)"
        ),
    )
    results = {}
    for policy in ("fastest_first", "pattern_aware"):
        live = run_workload(live_grid(policy))
        replay = run_workload(replay_grid(policy, traces))
        results[("live", policy)] = live
        results[("replay", policy)] = replay
        table.add_row("live", policy, f"{live['completed']}/{JOBS}",
                      live["p50_h"], live["evictions"])
        table.add_row("replay", policy, f"{replay['completed']}/{JOBS}",
                      replay["p50_h"], replay["evictions"])
    return table, results


def test_e12_trace_replay(benchmark):
    table, results = run_once(benchmark, run_experiment)
    save_result("e12_trace_replay", table.render(), table=table)
    # Everything completes in both worlds.
    assert all(r["completed"] == JOBS for r in results.values())
    # Replay reproduces live behaviour to first order.
    for policy in ("fastest_first", "pattern_aware"):
        live = results[("live", policy)]
        replay = results[("replay", policy)]
        assert abs(live["p50_h"] - replay["p50_h"]) < 2.0
    # And the E4 conclusion transfers to trace-driven runs.
    assert results[("replay", "pattern_aware")]["evictions"] <= \
        results[("replay", "fastest_first")]["evictions"]
