"""Soak test: a week of mixed operation with global invariants checked.

Runs one busy, heterogeneous cluster for a simulated week — volatile
owners, evictions, BSP gangs, payload tasks, a mid-week node departure
and arrival — asserting system-wide invariants at every probe point.
This is the "nothing leaks, nothing goes negative, accounting adds up"
test the unit suites cannot express.
"""

import pytest

from repro import ApplicationSpec, Grid, JobState, TaskState
from repro.apps.workloads import mixed_campaign, steady_stream
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.usage import NIGHT_OWL, OFFICE_WORKER, STUDENT_LAB

PROBE_EVERY = 6 * SECONDS_PER_HOUR
DAYS = 7


def check_invariants(grid):
    handle = grid.clusters["c0"]
    grm = handle.grm
    # 1. Trader offers correspond exactly to registered (live) nodes.
    offer_nodes = {
        o["properties"]["node"] for o in grm.trader.query("node")
    }
    assert offer_nodes == set(grm._nodes)
    # 2. Machine accounting: every node's grid allocations within caps.
    for name, node in handle.nodes.items():
        machine = node.workstation.machine
        assert 0.0 <= machine.grid_cpu <= 1.0 + 1e-9
        assert machine.grid_mem_mb >= 0.0
        assert machine.grid_mem_mb <= machine.spec.ram_mb + 1e-6
        # LRM ledger and machine agree on who holds resources.
        assert set(machine.grid_task_ids) == {
            r.task_id for r in node.lrm.ledger.active
        }
    # 3. Job/task bookkeeping is consistent.
    for job in grm.jobs:
        for task in job.tasks:
            assert 0.0 <= task.progress_mips <= task.work_mips + 1e-6
            assert task.wasted_mips >= 0.0
            assert task.evictions <= task.attempts
            if task.state is TaskState.RUNNING:
                assert task.node is not None
            if task.state is TaskState.COMPLETED:
                assert task.remaining_mips <= 1e-6
        if job.done:
            assert job.completed_at is not None
    # 4. A RUNNING task's node is registered and hosts it.
    for job in grm.jobs:
        for task in job.tasks:
            if task.state is not TaskState.RUNNING:
                continue
            node = handle.nodes.get(task.node)
            if node is not None:   # may have just been removed
                assert task.task_id in node.lrm.running_tasks or \
                    task.task_id in {
                        r.task_id for r in node.lrm.ledger.active
                    }


@pytest.mark.slow
def test_week_long_soak():
    grid = Grid(seed=99, policy="pattern_aware", lupa_enabled=True,
                update_interval=300.0,
                schedule_interval=120.0)
    grid.add_cluster("c0")
    profiles = (
        [OFFICE_WORKER] * 5 + [STUDENT_LAB] * 3 + [NIGHT_OWL] * 2
    )
    for i, profile in enumerate(profiles):
        grid.add_node("c0", f"ws{i:02}", profile=profile,
                      sharing=VACATE_POLICY)
    for i in range(2):
        grid.add_node("c0", f"ded{i}", dedicated=True)
    grid.run_for(600)

    # Workload: a steady stream plus one mixed campaign on day 2.
    stream = steady_stream(jobs_per_day=10, duration_days=DAYS - 1,
                           work_mips=4e6, seed=5, start=grid.loop.now)
    stream_ids = stream.drive(grid.submit, grid.loop)
    campaign = mixed_campaign(
        sequential_jobs=4, bsp_jobs=1, bsp_tasks=4, work_mips=2e6,
        submit_at=grid.loop.now + 2 * SECONDS_PER_DAY,
    )
    campaign_ids = campaign.drive(grid.submit, grid.loop)
    # A payload job too.
    grid.loop.schedule_at(
        grid.loop.now + SECONDS_PER_DAY,
        lambda: grid.submit(ApplicationSpec(
            name="payload", work_mips=1e6,
            metadata={"payload": "result = sum(range(100))"},
        )),
    )

    removed = False
    added = False
    end = grid.loop.now + DAYS * SECONDS_PER_DAY
    while grid.loop.now < end:
        grid.run_for(PROBE_EVERY)
        check_invariants(grid)
        if not removed and grid.loop.now > 3 * SECONDS_PER_DAY:
            grid.remove_node("c0", "ws00")
            removed = True
        if removed and not added and grid.loop.now > 4 * SECONDS_PER_DAY:
            grid.add_node("c0", "late-joiner", dedicated=True)
            added = True

    # Let the tail drain, then final accounting.
    grid.run_for(SECONDS_PER_DAY)
    check_invariants(grid)
    grm = grid.clusters["c0"].grm
    all_jobs = grm.jobs
    finished = [j for j in all_jobs if j.state is JobState.COMPLETED]
    # The pool comfortably out-supplies this workload: essentially
    # everything submitted during the week must have completed.
    assert len(finished) >= 0.9 * len(all_jobs)
    # The system did real opportunistic work: evictions happened and
    # were recovered from.
    assert grm.stats.evictions_handled > 0
    assert grm.stats.completions >= len(finished)
    # The payload job delivered its result.
    payload_jobs = [j for j in all_jobs if j.spec.name == "payload"]
    assert payload_jobs and payload_jobs[0].tasks[0].result == 4950
