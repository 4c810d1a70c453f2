"""Unit tests for the Local Resource Manager."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lrm import MAX_LEASE_SECONDS, Lrm
from repro.core.ncc import (
    DEFAULT_POLICY,
    BlackoutWindow,
    NodeControlCenter,
    SharingPolicy,
    VACATE_POLICY,
    thirty_percent_policy,
)
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import ALWAYS_IDLE, OFFICE_WORKER
from repro.sim.workstation import Workstation


class FakeGrm:
    """Records the LRM's oneway notifications (and when they came)."""

    loop = None     # set by make_lrm

    def __init__(self):
        self.times = {}     # ("completed" | "evicted" | "limit", task) -> now
        self.registrations = []
        self.updates = []
        self.heartbeats = []
        self.completed = []
        self.evicted = []
        self.limits = []

    def register_node(self, status, lrm_ior):
        self.registrations.append((status, lrm_ior))

    def send_update(self, status):
        self.updates.append(status)

    def heartbeat(self, node):
        self.heartbeats.append(node)

    def task_completed(self, node, task_id, result=None):
        self.completed.append((node, task_id))
        self.times["completed", task_id] = self.loop.now
        self.results = getattr(self, "results", {})
        self.results[task_id] = result

    def task_evicted(self, node, task_id, progress, resume):
        self.evicted.append((node, task_id, progress, resume))
        self.times["evicted", task_id] = self.loop.now

    def task_reached_limit(self, node, task_id):
        self.limits.append((node, task_id))
        self.times["limit", task_id] = self.loop.now


def make_lrm(policy=DEFAULT_POLICY, profile=ALWAYS_IDLE, seed=1,
             mips=1000.0, attach=True, grm_type=FakeGrm, start=0.0,
             **kwargs):
    """An LRM on one workstation, built at simulated time ``start``."""
    loop = EventLoop()
    loop.now = start
    ws = Workstation(
        loop, "n0", spec=MachineSpec(mips=mips, ram_mb=256),
        profile=profile, rng=random.Random(seed),
    )
    ncc = NodeControlCenter(loop, policy)
    lrm = Lrm(loop, ws, ncc, **kwargs)
    grm = grm_type()
    grm.loop = loop
    if attach:
        lrm.attach_grm(grm, "IOR:fake")
    return loop, ws, lrm, grm


def reserve(lrm, task_id="t1", cpu=0.5, mem=32.0, lease=300.0):
    return lrm.request_reservation({
        "task_id": task_id, "cpu_fraction": cpu, "mem_mb": mem,
        "disk_mb": 0.0, "lease_seconds": lease,
    })


def owner_flips(ws, present, cpu=0.5):
    """Scripted owner (after ``ws.stop()``): arrive with a load, or leave."""
    ws._present = present
    if present:
        ws.machine.set_owner_load(cpu, 10.0, True)
    else:
        ws.machine.set_owner_load(0.0, 0.0, False)
    for listener in ws._listeners:
        listener(present)


def launch(lrm, task_id="t1", job_id="j1", work=1e6, initial=0.0, ckpt=0.0):
    return lrm.start_task({
        "task_id": task_id, "job_id": job_id, "work_mips": work,
        "initial_progress_mips": initial, "checkpoint_interval_s": ckpt,
    })


class TestInformationProtocol:
    def test_registration_on_attach(self):
        loop, ws, lrm, grm = make_lrm()
        assert len(grm.registrations) == 1
        status, ior = grm.registrations[0]
        assert status["node"] == "n0"
        assert ior == "IOR:fake"

    def test_periodic_updates(self):
        loop, ws, lrm, grm = make_lrm(update_interval=60.0)
        loop.run_until(600.0)
        # Nothing changes on an idle node: nine heartbeats, and the
        # tenth send is the unconditional full refresh.
        assert grm.heartbeats == ["n0"] * 9
        assert [s["time"] for s in grm.updates] == [600.0]
        assert lrm.updates_sent == 10
        assert lrm.heartbeats_sent == 9 and lrm.updates_full == 1

    def test_every_nth_send_is_a_status_whatever_changed(self):
        loop, ws, lrm, grm = make_lrm(
            update_interval=60.0, full_refresh_every=4,
        )
        loop.run_until(60.0 * 12)
        assert [s["time"] for s in grm.updates] == [240.0, 480.0, 720.0]
        assert lrm.updates_full == 3 and lrm.heartbeats_sent == 9
        for status in grm.updates:
            assert set(status) == set(lrm.status())

    def test_full_refresh_every_must_be_positive(self):
        with pytest.raises(ValueError):
            make_lrm(full_refresh_every=0)

    def test_detach_stops_updates(self):
        loop, ws, lrm, grm = make_lrm(update_interval=60.0)
        loop.run_until(120.0)
        lrm.detach()
        loop.run_until(600.0)
        assert lrm.updates_sent == 2

    def test_a_change_travels_as_a_status_at_the_next_interval(self):
        loop, ws, lrm, grm = make_lrm(update_interval=60.0)
        loop.run_until(90.0)
        reserve(lrm, cpu=0.5)
        loop.run_until(120.0)
        assert [s["time"] for s in grm.updates] == [120.0]
        assert grm.updates[0]["cpu_free"] == 0.5
        loop.run_until(180.0)
        assert len(grm.updates) == 1 and len(grm.heartbeats) == 2

    def test_reapplying_the_same_owner_load_is_not_a_change(self):
        loop, ws, lrm, grm = make_lrm(update_interval=60.0)
        changes = []
        ws.machine.on_change = lambda: changes.append(loop.now)
        ws.machine.set_owner_load(0.0, 0.0, False)       # what it already is
        assert changes == []
        ws.machine.set_owner_load(0.3, 10.0, True)
        ws.machine.set_owner_load(0.3, 10.0, True)
        assert changes == [0.0]

    def test_pulled_status_does_not_stand_in_for_a_sent_one(self):
        loop, ws, lrm, grm = make_lrm(update_interval=60.0)
        ws.machine.set_owner_load(0.3, 10.0, True)
        lrm.get_status()               # a monitor pulls; the GRM saw nothing
        loop.run_until(60.0)
        assert len(grm.updates) == 1

    def test_blackout_edges_reach_the_grm_from_an_idle_node(self):
        # Nothing runs, so no event marks the edge; the update interval
        # that finds it passed sends the status.
        policy = SharingPolicy(blackouts=(BlackoutWindow(1.0, 2.0),))
        loop, ws, lrm, grm = make_lrm(
            policy=policy, update_interval=60.0, full_refresh_every=1000,
        )
        loop.run_until(3 * SECONDS_PER_HOUR)
        assert loop.events_fired == 180 + 37    # sends + owner-model ticks
        assert [(s["time"], s["sharing"]) for s in grm.updates] == [
            (3600.0, False), (7200.0, True),
        ]

    def test_status_reflects_capacity(self):
        loop, ws, lrm, grm = make_lrm()
        status = lrm.get_status()
        assert status["mips"] == 1000.0
        assert status["cpu_free"] == pytest.approx(1.0)
        assert status["sharing"] is True
        assert status["grid_tasks"] == 0

    def test_status_zeroed_when_not_sharing(self):
        loop, ws, lrm, grm = make_lrm(
            policy=SharingPolicy(enabled=False)
        )
        status = lrm.get_status()
        assert status["sharing"] is False
        assert status["cpu_free"] == 0.0
        assert status["mem_free_mb"] == 0.0

    def test_ping(self):
        _, _, lrm, _ = make_lrm()
        assert lrm.ping() is True


class TestReservationProtocol:
    def test_accept(self):
        loop, ws, lrm, grm = make_lrm()
        reply = reserve(lrm)
        assert reply["accepted"] is True
        assert lrm.accepted_reservations == 1

    def test_refuse_over_cap(self):
        loop, ws, lrm, grm = make_lrm(
            policy=SharingPolicy(cpu_cap_idle=0.3)
        )
        reply = reserve(lrm, cpu=0.5)
        assert reply["accepted"] is False
        assert "cap" in reply["reason"]
        assert lrm.refused_reservations == 1

    def test_refuse_when_memory_tight(self):
        loop, ws, lrm, grm = make_lrm()
        reply = reserve(lrm, mem=1000.0)
        assert reply["accepted"] is False
        assert "memory" in reply["reason"]

    def test_refuse_second_oversubscribing_reservation(self):
        loop, ws, lrm, grm = make_lrm()
        assert reserve(lrm, "t1", cpu=0.7)["accepted"]
        assert not reserve(lrm, "t2", cpu=0.7)["accepted"]

    def test_cancel_reservation(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, "t1")
        lrm.cancel_reservation("t1")
        assert reserve(lrm, "t1")["accepted"]

    def test_cancel_unknown_is_noop(self):
        _, _, lrm, _ = make_lrm()
        lrm.cancel_reservation("ghost")


class TestExecution:
    def test_start_requires_reservation(self):
        _, _, lrm, _ = make_lrm()
        assert launch(lrm) is False

    def test_task_runs_to_completion(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        assert launch(lrm, work=1000.0 * 600)   # 10 idle minutes of work
        loop.run_until(700.0)
        assert grm.completed == [("n0", "t1")]
        assert grm.times["completed", "t1"] == 600.0
        assert lrm.completed_count == 1
        assert lrm.running_tasks == []
        assert ws.machine.grid_cpu == 0.0

    def test_progress_rate_scales_with_cpu_fraction(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=0.5)
        launch(lrm, work=1e9)
        loop.run_until(600.0)
        # 1000 MIPS * 0.5 share * 600 s, whenever it is read.
        assert lrm.get_progress("t1") == 0.5 * 1000 * 600
        loop.run_until(601.25)
        assert lrm.get_progress("t1") == 0.5 * 1000 * 601.25

    def test_initial_progress_honoured(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e6, initial=999_000.0)
        loop.run_until(60.0)
        assert grm.completed, "nearly-done task should finish fast"

    def test_stop_task_returns_progress(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9)
        loop.run_until(300.0)
        progress = lrm.stop_task("t1")
        assert progress > 0
        assert grm.evicted == []     # silent stop: no eviction notice
        assert ws.machine.grid_cpu == 0.0

    def test_stop_unknown_task(self):
        _, _, lrm, _ = make_lrm()
        assert lrm.stop_task("ghost") == -1.0


class TestPacing:
    def test_work_limit_stalls_task(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9)
        lrm.set_work_limit("t1", 100_000.0)
        loop.run_until(SECONDS_PER_HOUR)
        assert lrm.get_progress("t1") == 100_000.0
        assert grm.limits == [("n0", "t1")]   # notified exactly once
        assert grm.times["limit", "t1"] == 100.0

    def test_raising_limit_resumes(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9)
        lrm.set_work_limit("t1", 100_000.0)
        loop.run_until(600.0)
        lrm.set_work_limit("t1", 200_000.0)
        loop.run_until(1200.0)
        assert lrm.get_progress("t1") == 200_000.0
        assert len(grm.limits) == 2
        assert grm.times["limit", "t1"] == 700.0

    def test_rollback_task(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9)
        loop.run_until(600.0)
        lrm.rollback_task("t1", 1000.0)
        assert lrm.get_progress("t1") == pytest.approx(1000.0)

    def test_pacing_unknown_task(self):
        _, _, lrm, _ = make_lrm()
        with pytest.raises(KeyError):
            lrm.set_work_limit("ghost", 1.0)
        with pytest.raises(KeyError):
            lrm.get_progress("ghost")


class TestCheckpointing:
    def test_periodic_checkpoints(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9, ckpt=120.0)
        loop.run_until(600.0)
        assert lrm.checkpoints_taken == 5       # at 120, 240, ..., 600
        record = lrm.store.load_latest("t1")
        assert record is not None
        assert record.time == 600.0
        assert record.state()["progress_mips"] == 600_000.0

    def test_no_checkpoints_when_disabled(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9, ckpt=0.0)
        loop.run_until(600.0)
        assert lrm.checkpoints_taken == 0

    def test_checkpoints_discarded_on_completion(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=60_000.0, ckpt=30.0)
        loop.run_until(300.0)
        assert lrm.store.load_latest("t1") is None

    def test_completing_task_saves_nothing(self):
        # 60 s of work, a checkpoint due every 30 s: the second one falls
        # on the completion instant, when the state is about to be
        # discarded — completion is decided first.
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=60_000.0, ckpt=30.0)
        loop.run_until(300.0)
        assert grm.times["completed", "t1"] == 60.0
        assert lrm.checkpoints_taken == 1
        assert lrm.store.saves == 1

    def test_no_progress_since_the_last_save_saves_nothing(self):
        # Held at a work limit it reaches at 100 s, the task saves once
        # (120 s); at 240 s nothing has moved, so the stored checkpoint
        # is already current and the writer says so — no store call.
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9, ckpt=120.0)
        lrm.set_work_limit("t1", 100_000.0)
        loop.run_until(130.0)
        assert lrm.checkpoints_taken == 1
        assert lrm.store.load_latest("t1").sequence == 1
        loop.run_until(250.0)
        assert lrm.checkpoints_taken == 1
        assert lrm.checkpoints_skipped == 1
        assert lrm.store.saves == 1
        record = lrm.store.load_latest("t1")
        assert (record.sequence, record.time) == (1, 120.0)
        # The cadence stayed armed: progress resumes, the next instant
        # (360 s) saves again.
        lrm.set_work_limit("t1", 300_000.0)
        loop.run_until(370.0)
        assert lrm.checkpoints_taken == 2
        assert lrm.checkpoints_skipped == 1
        record = lrm.store.load_latest("t1")
        assert (record.sequence, record.time) == (2, 360.0)
        assert record.state()["progress_mips"] == 210_000.0


class TestEviction:
    def test_vacate_on_owner_return(self):
        loop, ws, lrm, grm = make_lrm(
            policy=VACATE_POLICY, profile=OFFICE_WORKER, seed=4,
        )
        loop.run_until(7 * SECONDS_PER_HOUR)   # early Monday: owner away
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12, ckpt=300.0)
        loop.run_until(14 * SECONDS_PER_HOUR)  # owner arrives and works
        assert grm.evicted, "owner arrival must evict under VACATE_POLICY"
        node, task_id, progress, resume = grm.evicted[0]
        assert progress > 0
        assert 0 <= resume <= progress
        assert lrm.evicted_count >= 1

    def test_eviction_without_checkpoint_resumes_from_zero(self):
        loop, ws, lrm, grm = make_lrm(
            policy=VACATE_POLICY, profile=OFFICE_WORKER, seed=4,
        )
        loop.run_until(7 * SECONDS_PER_HOUR)
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12, ckpt=0.0)
        loop.run_until(14 * SECONDS_PER_HOUR)
        assert grm.evicted
        _, _, progress, resume = grm.evicted[0]
        assert resume == 0.0

    def test_blackout_evicts(self):
        policy = SharingPolicy(blackouts=(BlackoutWindow(1.0, 2.0),))
        loop, ws, lrm, grm = make_lrm(policy=policy)
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        loop.run_until(90 * 60)   # into the 01:00-02:00 blackout
        assert grm.evicted == [("n0", "t1", 3_600_000.0, 0.0)]
        assert grm.times["evicted", "t1"] == 3600.0
        assert lrm.running_tasks == []

    def test_blackout_eviction_lands_on_the_windows_first_instant(self):
        # 01:06 is not a float-friendly hour: 1.1 * 3600 rounds above
        # 3960.  The eviction still happens at the first instant
        # in_blackout() is true, not an ulp before or after.
        policy = SharingPolicy(blackouts=(BlackoutWindow(1.1, 2.0),))
        loop, ws, lrm, grm = make_lrm(policy=policy)
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        loop.run_until(2 * SECONDS_PER_HOUR)
        at = grm.times["evicted", "t1"]
        assert at == 3960.0
        assert lrm.ncc.in_blackout(at)
        assert not lrm.ncc.in_blackout(math.nextafter(at, 0.0))
        assert grm.evicted[0][2] == pytest.approx(3_960_000.0, rel=1e-12)

    def test_task_started_into_a_blackout_is_evicted_at_once(self):
        policy = SharingPolicy(blackouts=(BlackoutWindow(1.0, 2.0),))
        loop, ws, lrm, grm = make_lrm(policy=policy)
        loop.run_until(3500.0)
        reserve(lrm, cpu=1.0)            # granted before the window ...
        loop.run_until(3700.0)
        assert launch(lrm, work=1e12)    # ... confirmed inside it
        loop.run_until(3700.0)
        assert grm.times["evicted", "t1"] == 3700.0
        assert grm.evicted[0][2] == 0.0

    def test_no_progress_while_not_sharing(self):
        policy = SharingPolicy(blackouts=(BlackoutWindow(0.0, 24.0),))
        loop, ws, lrm, grm = make_lrm(policy=policy)
        reply = reserve(lrm)
        assert reply["accepted"] is False

    def test_owner_throttles_but_does_not_evict_by_default(self):
        loop, ws, lrm, grm = make_lrm(
            policy=SharingPolicy(cpu_cap_idle=1.0, cpu_cap_active=0.2),
            profile=OFFICE_WORKER, seed=4,
        )
        loop.run_until(7 * SECONDS_PER_HOUR)
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        loop.run_until(14 * SECONDS_PER_HOUR)
        assert grm.evicted == []
        assert "t1" in lrm.running_tasks

    def test_vacate_grace_survives_short_owner_visit(self):
        # The owner pops in for under the grace window: tasks suspend,
        # then resume; nothing is evicted.
        policy = SharingPolicy(
            cpu_cap_active=0.0, vacate_on_owner_return=True,
            vacate_grace_s=1800.0,
        )
        loop, ws, lrm, grm = make_lrm(policy=policy)
        ws.stop()   # scripted owner: disable the Markov driver
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        # Scripted short visit (10 min < 30 min grace).
        owner_flips(ws, True)
        loop.run_until(loop.now + 600.0)
        owner_flips(ws, False)
        loop.run_until(loop.now + 2400.0)
        assert grm.evicted == []
        assert "t1" in lrm.running_tasks
        # Suspended for exactly the visit, running for the rest.
        assert lrm.get_progress("t1") == 1000.0 * 2400.0

    def test_vacate_grace_evicts_when_owner_stays(self):
        policy = SharingPolicy(
            cpu_cap_active=0.0, vacate_on_owner_return=True,
            vacate_grace_s=600.0,
        )
        loop, ws, lrm, grm = make_lrm(policy=policy)
        ws.stop()   # scripted owner: disable the Markov driver
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        loop.run_until(100.0)
        owner_flips(ws, True)
        loop.run_until(loop.now + 700.0)   # owner still there past grace
        assert grm.evicted == [("n0", "t1", 100_000.0, 0.0)]
        assert grm.times["evicted", "t1"] == 700.0
        assert lrm.running_tasks == []

    def test_suspension_stalls_progress_during_grace(self):
        policy = SharingPolicy(
            cpu_cap_active=0.0, vacate_on_owner_return=True,
            vacate_grace_s=3600.0,
        )
        loop, ws, lrm, grm = make_lrm(policy=policy)
        ws.stop()   # scripted owner: disable the Markov driver
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        loop.run_until(300.0)
        owner_flips(ws, True)
        assert lrm.get_progress("t1") == 300_000.0
        loop.run_until(loop.now + 900.0)
        assert lrm.get_progress("t1") == 300_000.0

    def test_detach_evicts_everything(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        lrm.detach()
        assert grm.evicted
        assert lrm.running_tasks == []


class TestExactExecution:
    """Progress is the integral of the rate, not a count of ticks."""

    def test_mid_interval_start_is_not_over_credited(self):
        # 100 s of work submitted at t = 3629 to a dedicated 1000-MIPS
        # node.  The 30 s tick credited a whole interval to a task that
        # started a second before it fired and reported 3720.
        from repro import ApplicationSpec, Grid

        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "d0", spec=MachineSpec(mips=1000.0),
                      dedicated=True)
        grid.run_until(3629.0)
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=100_000.0))
        grid.run_for(200.0)
        assert grid.job(job_id).completed_at == 3729.0

    def test_owner_load_change_between_wakeups_is_integrated(self):
        loop, ws, lrm, grm = make_lrm()
        ws.stop()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=100_000.0)
        loop.run_until(40.0)
        ws.machine.set_owner_load(0.75, 10.0, True)    # poked directly
        assert lrm.task_rate_mips("t1") == 250.0
        loop.run_until(500.0)
        # 40 s at 1000 MIPS, the remaining 60,000 at 250.
        assert grm.times["completed", "t1"] == 40.0 + 60_000.0 / 250.0

    def test_second_reservation_slows_the_first_task(self):
        loop, ws, lrm, grm = make_lrm()
        ws.stop()
        reserve(lrm, cpu=0.5)
        launch(lrm, work=100_000.0)
        ws.machine.set_owner_load(0.5, 10.0, False)
        loop.run_until(20.0)
        # A lease that is never confirmed still contends for 90 s:
        # 0.75 of the CPU is promised, 0.5 is there.
        reserve(lrm, "t2", cpu=0.25, lease=90.0)
        assert lrm.task_rate_mips("t1") == pytest.approx(1000 * 0.5 / 1.5)
        loop.run_until(110.0)
        assert lrm.get_progress("t1") == pytest.approx(10_000 + 30_000)
        loop.run_until(1000.0)
        assert grm.times["completed", "t1"] == pytest.approx(110.0 + 120.0)

    def test_an_idle_lrm_has_no_event_in_the_heap(self):
        loop, ws, lrm, grm = make_lrm(attach=False)
        ws.stop()
        assert loop.pending == 0
        reserve(lrm, cpu=1.0, lease=MAX_LEASE_SECONDS)
        launch(lrm, work=50_000.0)
        assert loop.pending == 1             # the one wake-up
        loop.run_until(1e6)
        assert grm.completed == [] and lrm.completed_count == 1   # unattached
        assert loop.pending == 0 and loop.events_fired == 1

    def test_a_wakeup_an_ulp_short_still_completes(self):
        # now + remaining / rate == now: the planned instant is *now*, no
        # simulated time can pass, and the task must still finish.  The
        # stack is built at t = 1e9, where the ulp (~1.2e-7 s) exceeds
        # the 1e-8 s the last 1e-5 MI take at 1000 MIPS.
        loop, ws, lrm, grm = make_lrm(start=1e9)
        ws.stop()
        loop.run_until(1e9)
        assert loop.now + 1e-5 / 1000.0 == loop.now == 1e9
        reserve(lrm, cpu=1.0, lease=MAX_LEASE_SECONDS)
        launch(lrm, work=1e6, initial=1e6 - 1e-5)
        fired = loop.events_fired
        loop.run_until(1e9)
        assert grm.completed == [("n0", "t1")]
        assert loop.events_fired == fired + 1

    POLICIES = {
        "default": DEFAULT_POLICY,
        "vacate": VACATE_POLICY,
        "thirty": thirty_percent_policy(256.0),
    }
    MUTATION = st.one_of(
        st.tuples(st.just("load"), st.floats(0.0, 1.0)),
        st.tuples(st.just("reserve"), st.floats(0.05, 0.6)),
        st.tuples(st.just("cancel"), st.just(0.0)),
        st.tuples(st.just("flip"), st.floats(0.0, 1.0)),
        st.tuples(st.just("raise"), st.floats(0.01, 1.0)),
        st.tuples(st.just("rollback"), st.floats(0.0, 1.0)),
        st.tuples(st.just("observe"), st.just(0.0)),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        mips=st.sampled_from([600.0, 1000.0, 2200.0]),
        fraction=st.floats(0.05, 1.0),
        work=st.floats(1e3, 1e6),
        first_limit=st.one_of(st.none(), st.floats(0.01, 1.0)),
        checkpoint_s=st.sampled_from([0.0, 7.5, 100.0]),
        steps=st.lists(
            st.tuples(st.floats(0.001, 400.0), MUTATION), max_size=25),
    )
    def test_progress_is_the_integral_of_the_rate(
            self, policy, mips, fraction, work, first_limit, checkpoint_s,
            steps):
        """Over any piecewise-constant schedule, ``get_progress`` equals
        sum(rate * dt) with the rate read from ``task_rate_mips`` after
        each change, completion and limit notifications come at the
        closed-form instant, and progress never passes min(work, limit).
        """
        from hypothesis import assume

        loop, ws, lrm, grm = make_lrm(policy=self.POLICIES[policy], mips=mips)
        ws.stop()                    # scripted owner
        if policy == "thirty":
            fraction = min(fraction, 0.3)
        assert reserve(lrm, cpu=fraction,
                       lease=MAX_LEASE_SECONDS)["accepted"]
        launch(lrm, work=work, ckpt=checkpoint_s)
        limit = math.inf
        if first_limit is not None:
            limit = first_limit * work
            lrm.set_work_limit("t1", limit)
        expected = 0.0
        rate = lrm.task_rate_mips("t1")
        present, extras = False, []
        for gap, (kind, x) in steps:
            start, end = loop.now, loop.now + gap
            target = min(work, limit)
            reach = math.inf
            if rate > 0.0 and expected < target:
                reach = start + (target - expected) / rate
                assume(abs(reach - end) > 1e-6)     # which side is a coin toss
            loop.run_until(end)
            if reach <= end:
                expected = target
                if target >= work - 1e-9:    # RunningTask.complete's slack
                    assert grm.completed == [("n0", "t1")]
                    assert grm.times["completed", "t1"] == \
                        pytest.approx(reach, abs=1e-6)
                    return
                assert grm.times["limit", "t1"] == \
                    pytest.approx(reach, abs=1e-6)
            elif expected < target:
                expected += rate * gap
            assert grm.completed == []
            if kind == "load":
                ws.machine.set_owner_load(x, 10.0, present)
            elif kind == "reserve":
                name = f"x{len(extras)}"
                if reserve(lrm, name, cpu=x,
                           lease=MAX_LEASE_SECONDS)["accepted"]:
                    extras.append(name)
            elif kind == "cancel" and extras:
                lrm.cancel_reservation(extras.pop())
            elif kind == "flip":
                present = not present
                owner_flips(ws, present, cpu=x)
                if present and policy == "vacate":
                    (_node, _task, progress, _resume), = grm.evicted
                    assert progress == pytest.approx(
                        expected, rel=1e-9, abs=1e-9 * work)
                    assert grm.times["evicted", "t1"] == end
                    return
            elif kind == "raise" and limit < math.inf:
                limit += x * work
                lrm.set_work_limit("t1", limit)
            elif kind == "rollback":
                expected = x * expected
                lrm.rollback_task("t1", expected)
            progress = lrm.get_progress("t1")
            assert progress == pytest.approx(
                expected, rel=1e-9, abs=1e-9 * work)
            assert progress <= min(work, limit)
            rate = lrm.task_rate_mips("t1")


class ReentrantGrm(FakeGrm):
    """A collocated coordinator: collocated oneways are direct calls, so
    it answers a notification by calling straight back into the LRM that
    is still in the middle of sending it."""

    lrm = None

    def __init__(self):
        super().__init__()
        self.on_limit = []          # one callable per expected notification
        self.on_completed = {}      # task_id -> callable
        self.on_evicted = {}

    def task_reached_limit(self, node, task_id):
        super().task_reached_limit(node, task_id)
        self.on_limit.pop(0)(self.lrm)

    def task_completed(self, node, task_id, result=None):
        super().task_completed(node, task_id, result)
        self.on_completed.pop(task_id, lambda lrm: None)(self.lrm)

    def task_evicted(self, node, task_id, progress, resume):
        super().task_evicted(node, task_id, progress, resume)
        self.on_evicted.pop(task_id, lambda lrm: None)(self.lrm)


class TestReentrancy:
    def make(self, **kwargs):
        loop, ws, lrm, grm = make_lrm(grm_type=ReentrantGrm, **kwargs)
        ws.stop()
        grm.lrm = lrm
        replans = []
        replan = lrm._replan
        lrm._replan = lambda: (replans.append(loop.now), replan())[1]
        return loop, ws, lrm, grm, replans

    def test_limit_raised_from_inside_the_notification(self):
        loop, ws, lrm, grm, replans = self.make()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=400_000.0)
        lrm.set_work_limit("t1", 100_000.0)
        grm.on_limit = [
            lambda lrm: lrm.set_work_limit("t1", 250_000.0),
            lambda lrm: lrm.set_work_limit("t1", math.inf),
        ]
        del replans[:]
        loop.run_until(100.0)
        assert replans == [100.0]     # one re-plan, by the outermost entry
        assert lrm._wake is not None and lrm._wake.when == 250.0
        loop.run_until(1000.0)
        assert grm.limits == [("n0", "t1")] * 2
        assert grm.times["limit", "t1"] == 250.0
        assert grm.times["completed", "t1"] == 400.0
        assert replans == [100.0, 250.0, 400.0]
        assert lrm._wake is None and loop.pending == 1   # the update timer

    def test_rollback_from_inside_a_completion(self):
        # t1's completion releases its allocation (Machine.on_change
        # fires mid-wake) and the coordinator rolls t2 back and paces it
        # before the wake-up has returned.
        loop, ws, lrm, grm, replans = self.make()
        reserve(lrm, "t1", cpu=0.5)
        reserve(lrm, "t2", cpu=0.5)
        launch(lrm, "t1", work=30_000.0)
        launch(lrm, "t2", work=1e9)

        def roll_back(lrm):
            assert lrm.get_progress("t2") == 30_000.0
            lrm.rollback_task("t2", 10_000.0)
            lrm.set_work_limit("t2", 35_000.0)

        grm.on_completed["t1"] = roll_back
        grm.on_limit = [lambda lrm: None]
        del replans[:]
        loop.run_until(60.0)
        assert grm.times["completed", "t1"] == 60.0
        assert replans == [60.0]
        assert lrm.get_progress("t2") == 10_000.0
        loop.run_until(1000.0)
        assert grm.times["limit", "t2"] == 60.0 + 25_000.0 / 500.0
        assert lrm.get_progress("t2") == 35_000.0
        assert lrm._wake is None

    def test_survivor_rolled_back_from_inside_an_eviction(self):
        # BspGridCoordinator.member_evicted: get_progress, rollback_task
        # and set_work_limit on a member the same sweep evicts next.
        loop, ws, lrm, grm, replans = self.make(policy=VACATE_POLICY)
        reserve(lrm, "t1", cpu=0.5)
        reserve(lrm, "t2", cpu=0.5)
        launch(lrm, "t1", work=1e9)
        launch(lrm, "t2", work=1e9)

        def roll_back(lrm):
            assert lrm.get_progress("t2") == 50_000.0
            lrm.rollback_task("t2", 20_000.0)
            lrm.set_work_limit("t2", 40_000.0)

        grm.on_evicted["t1"] = roll_back
        loop.run_until(100.0)
        del replans[:]
        owner_flips(ws, True)
        # The load change and the arrival are two entries; the eviction
        # sweep, nested calls and all, is the second one's single re-plan.
        assert replans == [100.0, 100.0]
        assert grm.evicted == [
            ("n0", "t1", 50_000.0, 0.0), ("n0", "t2", 20_000.0, 0.0),
        ]
        assert lrm._wake is None and lrm.running_tasks == []
        assert ws.machine.grid_cpu == 0.0


class TestCrash:
    def test_crash_freezes_progress_and_silences_the_node(self):
        loop, ws, lrm, grm = make_lrm(update_interval=60.0)
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e6, ckpt=100.0)
        loop.run_until(250.0)
        lrm.crash()
        ws.stop()
        loop.run_until(5000.0)
        assert loop.pending == 0           # wake-up and update timer gone
        assert grm.completed == [] and grm.evicted == []
        assert lrm.updates_sent == 4 and lrm.checkpoints_taken == 2
        assert lrm.get_progress("t1") == 250_000.0

    def test_crashed_node_tells_nobody_when_the_owner_returns(self):
        loop, ws, lrm, grm = make_lrm(policy=VACATE_POLICY)
        ws.stop()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e6)
        lrm.crash()
        owner_flips(ws, True)
        assert grm.evicted == []
        assert loop.pending == 0


class TestRateFollowsTheMachine:
    """The LRM advances a task at the rate the machine model gives it,
    whatever the machine's scheduling regime."""

    @pytest.mark.parametrize("scheduling, owner_cpu, task_mips", [
        ("owner_first", 0.6, 400.0),
        # Owner and grid shrink alike, to 0.6 / 1.6 and 1.0 / 1.6 of the
        # CPU: all of it is used.
        ("fair_share", 0.375, 625.0),
    ])
    def test_owner_at_sixty_percent_beside_one_full_cpu_task(
            self, scheduling, owner_cpu, task_mips):
        loop = EventLoop()
        ws = Workstation(
            loop, "n0", spec=MachineSpec(mips=1000.0, ram_mb=256),
            profile=ALWAYS_IDLE, rng=random.Random(1), scheduling=scheduling,
        )
        ws.stop()
        ncc = NodeControlCenter(
            loop, SharingPolicy(cpu_cap_idle=1.0, cpu_cap_active=1.0)
        )
        lrm = Lrm(loop, ws, ncc)
        machine = ws.machine
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e6)
        machine.set_owner_load(0.6, 10.0, True)
        assert machine.owner_received_cpu() == pytest.approx(owner_cpu)
        assert lrm.task_rate_mips("t1") == pytest.approx(task_mips)
        loop.run_until(100.0)
        assert lrm.get_progress("t1") == pytest.approx(100.0 * task_mips)
