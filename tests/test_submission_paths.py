"""Every way a job enters the grid leads to the same GRM behaviour.

A user submits through the Grid facade or an ASCT, and the hierarchy
forwards what a cluster cannot host; whichever way a BSP job arrives,
the GRM that accepts it paces it.  A forwarded job answers from where
it runs: the ASCT that submitted it reads its status, cancels it and
hears its events there.  The Grid keeps no job table of its own: it
asks the GRMs, follows forwarding when it waits, and its totals count
every component it ever built.
"""

import pytest

from repro.apps.job import JobState
from repro.apps.spec import BSP, ApplicationSpec
from repro.core.grid import Grid
from repro.core.lrm import Lrm
from repro.sim.clock import SECONDS_PER_DAY


def psum(bsp, n):
    lo = bsp.pid * n // bsp.nprocs
    hi = (bsp.pid + 1) * n // bsp.nprocs
    bsp.send(0, sum(range(lo, hi)))
    bsp.sync()
    return sum(bsp.messages()) if bsp.pid == 0 else None


def gang(tasks: int = 4, supersteps: int = 6) -> ApplicationSpec:
    return ApplicationSpec(
        name="gang", kind=BSP, tasks=tasks, program="psum", work_mips=6e5,
        checkpoint_every_supersteps=2,
        metadata={"supersteps": supersteps, "superstep_comm_bytes": 10_000},
    )


def dedicated_cluster(grid: Grid, name: str, nodes: int) -> None:
    grid.add_cluster(name)
    for i in range(nodes):
        grid.add_node(name, f"{name}{i}", dedicated=True)


def test_a_gang_submitted_through_the_asct_is_paced_and_checkpointed(
        programs):
    programs.register("psum", psum, 1000)
    grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
    dedicated_cluster(grid, "c0", 4)
    grid.enable_journal()
    grid.run_for(120)
    job_id = grid.make_asct("c0").submit(gang())
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)

    job = grid.job(job_id)
    assert job.state is JobState.COMPLETED
    assert grid.clusters["c0"].checkpoint_store.saves == 2 * 4
    assert len(grid.journal.select(type="bsp_superstep", job_id=job_id)) \
        == 6 - 1
    assert job.tasks[0].result == sum(range(1000))
    coordinator = grid.coordinator(job_id)
    assert coordinator.current_superstep == coordinator.supersteps - 1
    assert coordinator.checkpoints_saved == 2      # after supersteps 2, 4
    assert coordinator is grid.clusters["c0"].grm.coordinators[job_id]


def test_an_asct_reads_a_running_jobs_progress_from_its_lrm():
    grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
    dedicated_cluster(grid, "c0", 1)
    grid.run_for(120)
    asct = grid.make_asct("c0")
    job_id = asct.submit(ApplicationSpec(name="half", work_mips=3.6e6))
    grid.run_for(1800)                  # 1,800 s at 1,000 MIPS
    grm = grid.clusters["c0"].grm
    assert grm.job_status(job_id)["tasks"][0]["progress_mips"] == 1.8e6
    assert grm.job_status(job_id)["progress"] == 0.5
    assert asct.progress(job_id) == 0.5
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    assert asct.progress(job_id) == 1.0


def test_a_forwarded_gang_is_coordinated_at_its_new_home():
    grid = Grid(seed=2, policy="first_fit", lupa_enabled=False)
    dedicated_cluster(grid, "small", 2)
    dedicated_cluster(grid, "big", 4)
    grid.connect_clusters_to_parent()
    grid.enable_metrics()
    grid.run_for(600)                   # the parent hears both summaries
    job_id = grid.submit(gang(), "small")
    grid.run_for(60)
    remote_id = grid.job(job_id).forwarded_to
    assert remote_id.startswith("big-")
    assert grid.wait_for_job(remote_id, max_seconds=SECONDS_PER_DAY)

    assert grid.job(remote_id).state is JobState.COMPLETED
    assert grid.clusters["big"].checkpoint_store.saves == 2 * 4
    assert grid.clusters["small"].checkpoint_store.saves == 0
    home = grid.coordinator(remote_id)
    assert home is grid.clusters["big"].grm.coordinators[remote_id]
    assert home.current_superstep == home.supersteps - 1
    assert home.checkpoints_saved == 2
    assert grid.coordinator(job_id) is None
    assert job_id not in grid.clusters["small"].grm.coordinators


def test_wait_for_job_follows_forwarding_to_where_the_job_runs():
    grid = Grid(seed=3, policy="first_fit", lupa_enabled=False)
    grid.add_cluster("empty")
    dedicated_cluster(grid, "full", 1)
    grid.connect_clusters_to_parent()
    grid.run_for(600)
    job_id = grid.submit(
        ApplicationSpec(name="one", work_mips=2e6), "empty"
    )
    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)

    submitted = grid.job(job_id)
    assert submitted.job_id == job_id       # the job as submitted
    assert submitted.forwarded_to
    assert grid.job(submitted.forwarded_to).state is JobState.COMPLETED


def asct_job_forwarded(tree=None):
    """An ASCT on cluster ``empty`` submits a job only ``full`` (one
    dedicated node) can run; returns it 60 sim-s later, forwarded."""
    grid = Grid(seed=3, policy="first_fit", lupa_enabled=False)
    grid.add_cluster("empty")
    dedicated_cluster(grid, "full", 1)
    if tree is None:
        grid.connect_clusters_to_parent()
    else:
        grid.build_hierarchy(tree)
    grid.run_for(600)
    asct = grid.make_asct("empty")
    job_id = asct.submit(ApplicationSpec(name="long", work_mips=3.6e6))
    grid.run_for(60)
    remote_id = grid.job(job_id).forwarded_to
    assert remote_id.startswith("full-")
    return grid, asct, job_id, remote_id


THREE_TIER = {"root": [{"campus": ["empty"]}, "full"]}


@pytest.mark.parametrize("tree", [None, THREE_TIER],
                         ids=["forwarded", "escalated"])
def test_an_asct_follows_its_forwarded_job(tree):
    grid, asct, job_id, remote_id = asct_job_forwarded(tree)
    home = grid.clusters["full"].grm
    assert not asct.is_done(job_id)
    status = asct.status(job_id)
    assert status == home.job_status(remote_id)
    assert status["state"] == "running"
    grid.run_for(1800)
    assert asct.progress(job_id) == home.job_status(remote_id)["progress"]

    assert grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    assert asct.is_done(job_id)
    assert asct.status(job_id)["state"] == "completed"
    assert [(e.job_id, e.event, e.detail) for e in asct.events] == [
        (job_id, "forwarded", remote_id),
        (remote_id, "completed", ""),
    ]


@pytest.mark.parametrize("tree", [None, THREE_TIER],
                         ids=["forwarded", "escalated"])
def test_an_asct_cancels_its_forwarded_job_where_it_runs(tree):
    grid, asct, job_id, remote_id = asct_job_forwarded(tree)
    asct.cancel(job_id)
    assert grid.job(remote_id).state is JobState.CANCELLED
    assert asct.status(job_id)["state"] == "cancelled"
    grid.run_for(SECONDS_PER_DAY)
    assert grid.job(remote_id).state is JobState.CANCELLED
    assert grid.clusters["full"].nodes["full0"].lrm.running_tasks == []
    assert (remote_id, "cancelled", "") in [
        (e.job_id, e.event, e.detail) for e in asct.events]


def test_grid_wide_totals_never_go_backwards():
    """Departed nodes, the parent and the ASCT still count: a total
    read later is never smaller, and every request sent is received."""
    grid = Grid(seed=4, policy="first_fit", lupa_enabled=False)
    for cluster in ("a", "b"):
        grid.add_cluster(cluster)
        for i in range(3):
            grid.add_node(cluster, f"{cluster}{i}")
    grid.connect_clusters_to_parent()
    metrics = grid.enable_metrics()
    asct = grid.make_asct("a")
    totals = ["orb.totals"] + [f"lrm.total.{f}" for f in Lrm.COUNTERS]
    seen = []

    def sample():
        values = metrics.snapshot()["metrics"]
        seen.append({name: values[name] for name in totals})

    grid.run_for(120)
    for i in range(6):
        asct.submit(ApplicationSpec(name=f"s{i}", work_mips=2e5))
    grid.run_for(3600)
    sample()
    grid.remove_node("a", "a0")
    sample()
    grid.crash_node("b", "b0")
    grid.add_node("a", "a3")
    grid.run_for(1800)
    sample()
    grid.remove_node("b", "b1")
    grid.remove_node("a", "a3")
    asct.submit(ApplicationSpec(name="late", work_mips=2e5))
    grid.run_for(3600)
    sample()

    for before, after in zip(seen, seen[1:]):
        for name in totals:
            if name == "orb.totals":
                for key, value in before[name].items():
                    assert after[name][key] >= value, (name, key)
            else:
                assert after[name] >= before[name], name
    assert seen[0]["lrm.total.completed_count"] >= 6
    final = grid.protocol_stats()
    assert final["requests_sent"] == final["requests_received"]


def test_a_bsp_spec_the_coordinator_refuses_is_never_queued():
    grid = Grid(seed=5, policy="first_fit", lupa_enabled=False)
    dedicated_cluster(grid, "c0", 2)
    with pytest.raises(ValueError, match="superstep"):
        grid.submit(gang(tasks=2, supersteps=0))
    grm = grid.clusters["c0"].grm
    assert grm.jobs == [] and grm.stats.jobs_submitted == 0
