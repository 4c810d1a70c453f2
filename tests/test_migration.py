"""A task leaves its node one way: a migration is an eviction plus a
placement.

``Grm.migrate_task`` stops the task on its LRM and hands it to
``Grm.task_evicted`` keeping all of its progress, so the debit, the
journal, the coordinator and the ASCT hear a migration exactly as they
hear an owner's eviction.  A gang member is then re-placed with its
gang, which paces it; like any lost member it costs the gang a rollback
to the last checkpointed superstep.
"""

import math

from repro.apps.job import JobState, TaskState
from repro.apps.spec import BSP, ApplicationSpec
from repro.core.grid import Grid
from repro.sim.clock import SECONDS_PER_DAY

SUPERSTEPS = 8


def gang_grid():
    """Four dedicated nodes and a running 2-process, 8-superstep gang
    that checkpoints every 2 supersteps (1e6 MI per superstep)."""
    grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
    grid.add_cluster("c0")
    for i in range(4):
        grid.add_node("c0", f"n{i}", dedicated=True)
    grid.enable_journal()
    grid.run_for(120)
    job_id = grid.submit(ApplicationSpec(
        name="gang", kind=BSP, tasks=2, program="gang", work_mips=8e6,
        checkpoint_every_supersteps=2,
        metadata={"supersteps": SUPERSTEPS},
    ), "c0")
    return grid, job_id


def work_limit(grid, node, task_id):
    return grid.clusters["c0"].nodes[node].lrm._running[task_id] \
        .work_limit_mips


def test_a_migrated_gang_member_is_paced_and_the_gang_completes():
    grid, job_id = gang_grid()
    grid.run_until(420)
    grm = grid.clusters["c0"].grm
    job = grid.job(job_id)
    coordinator = grid.coordinator(job_id)
    member = job.tasks[0]
    old_node = member.node

    assert grm.migrate_task(member.task_id) is True
    assert member.state is TaskState.RUNNING
    assert member.node not in (old_node, job.tasks[1].node)
    # The coordinator paces the member where it now runs.
    while coordinator.current_superstep < SUPERSTEPS - 1 and not job.done:
        assert math.isfinite(
            work_limit(grid, member.node, member.task_id)
        )
        grid.run_for(60)
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    assert job.state is JobState.COMPLETED
    assert coordinator.current_superstep == SUPERSTEPS - 1


def test_migrating_a_gang_member_rolls_the_gang_back_to_the_checkpoint():
    grid, job_id = gang_grid()
    grm = grid.clusters["c0"].grm
    job = grid.job(job_id)
    coordinator = grid.coordinator(job_id)
    while coordinator.current_superstep < 3:     # past the first checkpoint
        grid.run_for(60)
    assert coordinator.checkpointed == 2
    member, survivor = job.tasks
    old_node = member.node
    member_lrm = grid.clusters["c0"].nodes[old_node].lrm
    survivor_lrm = grid.clusters["c0"].nodes[survivor.node].lrm
    member_done = member_lrm.get_progress(member.task_id)
    survivor_done = survivor_lrm.get_progress(survivor.task_id)
    assert member_done > 2e6 and survivor_done > 2e6

    assert grm.migrate_task(member.task_id) is True
    assert coordinator.rollbacks == 1
    assert coordinator.current_superstep == coordinator.checkpointed == 2
    # Both members resume from the checkpointed superstep; what they
    # computed past it is wasted.
    assert survivor_lrm.get_progress(survivor.task_id) == 2e6
    assert member.progress_mips == 2e6
    assert survivor.wasted_mips == survivor_done - 2e6
    assert member.wasted_mips == member_done - 2e6
    evicted = grid.journal.select(type="task_evicted",
                                  task_id=member.task_id)
    assert [e.node for e in evicted] == [old_node]
    restored = grid.journal.select(type="checkpoint_restored",
                                   task_id=member.task_id)
    assert [e.attrs["superstep"] for e in restored] == [2]
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    assert job.state is JobState.COMPLETED


def test_a_migrated_task_hands_back_its_debit_and_tells_the_asct():
    grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
    grid.add_cluster("c0")
    for i in range(2):
        grid.add_node("c0", f"n{i}", dedicated=True)
    grid.enable_journal()
    grid.run_for(120)
    asct = grid.make_asct("c0")
    job_id = asct.submit(ApplicationSpec(name="solo", work_mips=3.6e6))
    grid.run_for(600)
    grm = grid.clusters["c0"].grm
    task = grid.job(job_id).tasks[0]
    old_node = task.node

    assert grm.migrate_task(task.task_id) is True
    assert task.node != old_node
    assert task.wasted_mips == 0.0
    assert task.progress_mips == 6e5        # 600 s at 1,000 MIPS
    assert task.task_id not in grm._nodes[old_node].debits
    assert task.task_id in grm._nodes[task.node].debits
    (evicted,) = grid.journal.select(type="task_evicted")
    assert evicted.attrs["progress_mips"] \
        == evicted.attrs["resume_progress_mips"] == 6e5
    grid.run_for(1)
    assert [e.event for e in asct.events_for(job_id)][-2:] \
        == ["task_evicted", "migrated"]
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    assert grid.job(job_id).state is JobState.COMPLETED
