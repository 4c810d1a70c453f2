"""The GRM keeps one ASCT stub per IOR, not one per job.

An ASCT submits many jobs under one object reference; the GRM maps each
job to that IOR and calls every job's events through the IOR's one
stub.  The events themselves must not change: the same jobs submitted
from one ASCT each (so one stub per job, whatever the GRM shares) get,
job by job, exactly the events the shared ASCT gets — evictions
included, and for jobs that the parent forwards to another cluster the
events that arrive under the remote id.
"""

from unittest import mock

from repro import ApplicationSpec, Grid, ResourceRequirements
from repro.core.ncc import VACATE_POLICY
from repro.core.protocols import ASCT_INTERFACE
from repro.orb.core import Orb
from repro.sim.machine import MachineSpec
from repro.sim.usage import OFFICE_WORKER

JOBS = 50
#: Every fifth job needs more memory than the home cluster has: the
#: parent forwards it to the big-memory cluster.
BIG = 5


def run(shared: bool):
    """(ASCT stubs the GRMs built, each job's events in submit order)."""
    grid = Grid(seed=11)
    grid.add_cluster("home")
    grid.add_cluster("big")
    for i in range(6):
        grid.add_node("home", f"h{i}", spec=MachineSpec(ram_mb=512.0),
                      profile=OFFICE_WORKER, sharing=VACATE_POLICY)
    for i in range(3):
        grid.add_node("big", f"b{i}", spec=MachineSpec(ram_mb=4096.0))
    grid.connect_clusters_to_parent()
    grid.run_for(8.5 * 3600.0)   # submit as the office owners arrive
    built = []
    real_stub = Orb.stub

    def counting_stub(orb, ref, interface=None):
        if interface is ASCT_INTERFACE:
            built.append(ref)
        return real_stub(orb, ref, interface)

    asct = grid.make_asct("home") if shared else None
    submitted = []
    with mock.patch.object(Orb, "stub", counting_stub):
        for i in range(JOBS):
            owner = asct if shared else grid.make_asct("home", f"u{i}")
            memory = 2048.0 if i % BIG == 0 else 64.0
            job_id = owner.submit(ApplicationSpec(
                name=f"job{i}", work_mips=4e6,
                requirements=ResourceRequirements(mem_mb=memory),
            ))
            submitted.append((owner, job_id))
        grid.run_for(2 * 86400.0)
    events = []
    for owner, job_id in submitted:
        mine = [(e.event, e.detail) for e in owner.events
                if e.job_id == job_id]
        forwarded = [d for event, d in mine if event == "forwarded"]
        if forwarded:   # later events come under the remote id
            mine += [(e.event, e.detail) for e in owner.events
                     if e.job_id == forwarded[0]]
        events.append(mine)
    return built, events


def test_jobs_from_one_asct_share_one_stub_and_keep_their_events():
    shared_stubs, shared_events = run(shared=True)
    own_stubs, own_events = run(shared=False)
    # One IOR: one stub at the home GRM and one at the GRM the parent
    # forwards to, however many jobs either of them holds.
    assert len(shared_stubs) == 2 and len(set(shared_stubs)) == 1
    assert shared_events == own_events
    # The run exercised what it claims to: every job finished, owners
    # evicted some, the big-memory ones and more were forwarded and
    # reported from the cluster that ran them, and with an ASCT per job
    # each GRM built a stub per job it held.
    assert all(job[-1] == ("completed", "") for job in shared_events)
    assert any(event == "task_evicted"
               for job in shared_events for event, _ in job)
    forwarded = sum(job[0][0] == "forwarded" for job in shared_events)
    assert JOBS // BIG <= forwarded < JOBS
    assert len(own_stubs) == JOBS + forwarded
