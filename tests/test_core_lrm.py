"""Unit tests for the Local Resource Manager."""

import random

import pytest

from repro.core.lrm import Lrm
from repro.core.ncc import (
    DEFAULT_POLICY,
    BlackoutWindow,
    NodeControlCenter,
    SharingPolicy,
    VACATE_POLICY,
)
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.usage import ALWAYS_IDLE, OFFICE_WORKER
from repro.sim.workstation import Workstation


class FakeGrm:
    """Records the LRM's oneway notifications."""

    def __init__(self):
        self.registrations = []
        self.updates = []
        self.completed = []
        self.evicted = []
        self.limits = []

    def register_node(self, status, lrm_ior):
        self.registrations.append((status, lrm_ior))

    def send_update(self, status):
        self.updates.append(status)

    def send_delta(self, node, delta):
        self.deltas = getattr(self, "deltas", [])
        self.deltas.append((node, delta))

    def task_completed(self, node, task_id, result=None):
        self.completed.append((node, task_id))
        self.results = getattr(self, "results", {})
        self.results[task_id] = result

    def task_evicted(self, node, task_id, progress, resume):
        self.evicted.append((node, task_id, progress, resume))

    def task_reached_limit(self, node, task_id):
        self.limits.append((node, task_id))


def make_lrm(policy=DEFAULT_POLICY, profile=ALWAYS_IDLE, seed=1,
             mips=1000.0, attach=True, **kwargs):
    loop = EventLoop()
    ws = Workstation(
        loop, "n0", spec=MachineSpec(mips=mips, ram_mb=256),
        profile=profile, rng=random.Random(seed),
    )
    ncc = NodeControlCenter(loop.clock, policy)
    lrm = Lrm(loop, ws, ncc, **kwargs)
    grm = FakeGrm()
    if attach:
        lrm.attach_grm(grm, "IOR:fake")
    return loop, ws, lrm, grm


def reserve(lrm, task_id="t1", cpu=0.5, mem=32.0):
    return lrm.request_reservation({
        "task_id": task_id, "cpu_fraction": cpu, "mem_mb": mem,
        "disk_mb": 0.0, "lease_seconds": 300.0,
    })


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
        loop.run_until(300.0)
        assert len(grm.updates) == 5
        assert lrm.updates_sent == 5

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
        assert lrm.completed_count == 1
        assert lrm.running_tasks == []
        assert ws.machine.grid_cpu == 0.0

    def test_progress_rate_scales_with_cpu_fraction(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=0.5)
        launch(lrm, work=1e9)
        loop.run_until(600.0)
        # 1000 MIPS * 0.5 share * ~600 s
        assert lrm.get_progress("t1") == pytest.approx(0.5 * 1000 * 600, rel=0.1)

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
        assert lrm.get_progress("t1") == pytest.approx(100_000.0)
        assert grm.limits == [("n0", "t1")]   # notified exactly once

    def test_raising_limit_resumes(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e9)
        lrm.set_work_limit("t1", 100_000.0)
        loop.run_until(600.0)
        lrm.set_work_limit("t1", 200_000.0)
        loop.run_until(1200.0)
        assert lrm.get_progress("t1") == pytest.approx(200_000.0)
        assert len(grm.limits) == 2

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
        assert lrm.checkpoints_taken >= 4
        record = lrm.store.load_latest("t1")
        assert record is not None
        assert record.state()["progress_mips"] > 0

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
        assert grm.evicted
        assert lrm.running_tasks == []

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
        ws.machine.set_owner_load(0.5, 10.0, True)
        ws._present = True
        for listener in ws._listeners:
            listener(True)
        loop.run_until(loop.now + 600.0)
        ws.machine.set_owner_load(0.0, 0.0, False)
        ws._present = False
        for listener in ws._listeners:
            listener(False)
        loop.run_until(loop.now + 2400.0)
        assert grm.evicted == []
        assert "t1" in lrm.running_tasks

    def test_vacate_grace_evicts_when_owner_stays(self):
        policy = SharingPolicy(
            cpu_cap_active=0.0, vacate_on_owner_return=True,
            vacate_grace_s=600.0,
        )
        loop, ws, lrm, grm = make_lrm(policy=policy)
        ws.stop()   # scripted owner: disable the Markov driver
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        ws.machine.set_owner_load(0.5, 10.0, True)
        ws._present = True
        for listener in ws._listeners:
            listener(True)
        loop.run_until(loop.now + 700.0)   # owner still there past grace
        assert grm.evicted
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
        ws.machine.set_owner_load(0.5, 10.0, True)
        ws._present = True
        for listener in ws._listeners:
            listener(True)
        progress_at_arrival = lrm.get_progress("t1")
        loop.run_until(loop.now + 900.0)
        assert lrm.get_progress("t1") == pytest.approx(progress_at_arrival)

    def test_detach_evicts_everything(self):
        loop, ws, lrm, grm = make_lrm()
        reserve(lrm, cpu=1.0)
        launch(lrm, work=1e12)
        lrm.detach()
        assert grm.evicted
        assert lrm.running_tasks == []


class TestDeltaUpdates:
    """LRM-side behaviour of the delta-compressed update protocol."""

    def test_defaults_keep_the_seed_protocol(self):
        loop, ws, lrm, grm = make_lrm(update_interval=60.0)
        loop.run_until(180.0)
        assert len(grm.updates) == 3
        assert not getattr(grm, "deltas", [])
        assert lrm.updates_delta == 0 and lrm.updates_suppressed == 0

    def test_idle_node_sends_heartbeats_not_snapshots(self):
        loop, ws, lrm, grm = make_lrm(
            update_interval=60.0, delta_updates=True, full_refresh_every=50,
        )
        loop.run_until(300.0)
        assert grm.updates == []           # registration aside, no fulls
        assert len(grm.deltas) == 5
        for _node, payload in grm.deltas:
            assert set(payload) == {"time"}   # heartbeat carries time only
        assert lrm.updates_suppressed == 5
        assert lrm.updates_sent == 5

    def test_change_travels_as_a_delta(self):
        loop, ws, lrm, grm = make_lrm(
            update_interval=60.0, delta_updates=True, full_refresh_every=50,
        )
        loop.run_until(60.0)
        reserve(lrm, cpu=0.5)
        launch(lrm)
        loop.run_until(120.0)
        node, payload = grm.deltas[-1]
        assert node == "n0"
        assert "time" in payload
        assert "cpu_free" in payload or "grid_tasks" in payload
        assert len(payload) < 10           # far from a full 15-field status
        assert lrm.updates_delta >= 1

    def test_throttle_stretches_idle_cadence(self):
        base, capped = 60.0, 480.0
        loop, ws, lrm, grm = make_lrm(
            update_interval=base, delta_updates=True, full_refresh_every=500,
            max_update_interval=capped,
        )
        loop.run_until(3600.0)
        # Fixed cadence would be 60 sends; stretched 60,120,240,480,...
        # converges on one send per 480s.
        assert lrm.updates_sent < 3600.0 / base / 3
        assert lrm.updates_sent >= 3600.0 / capped

    def test_periodic_full_refresh(self):
        loop, ws, lrm, grm = make_lrm(
            update_interval=60.0, delta_updates=True, full_refresh_every=4,
        )
        loop.run_until(60.0 * 12)
        assert len(grm.updates) == 3       # every 4th send is a snapshot
        assert lrm.updates_full == 3
        for status in grm.updates:
            assert set(status) == set(lrm.status())

    def test_receiver_state_matches_status_after_each_send(self):
        from repro.core.update_protocol import apply_delta

        loop, ws, lrm, grm = make_lrm(
            update_interval=60.0, delta_updates=True, full_refresh_every=5,
            profile=OFFICE_WORKER, seed=7,
        )
        state = grm.registrations[0][0]
        sent = {"count": 0}

        original_update, original_delta = grm.send_update, grm.send_delta

        def on_update(status):
            original_update(status)
            sent["state"] = dict(status)

        def on_delta(node, delta):
            original_delta(node, delta)
            sent["state"] = apply_delta(sent.get("state", state), delta)

        grm.send_update, grm.send_delta = on_update, on_delta
        for _ in range(20):
            loop.run_until(loop.now + 60.0)
            if "state" in sent:
                expected = lrm.status()
                got = dict(sent["state"])
                # The sender's clock advanced since the send fired; every
                # other field must reconstruct exactly.
                got.pop("time"), expected.pop("time")
                assert got == expected

    def test_detach_stops_delta_updates(self):
        loop, ws, lrm, grm = make_lrm(
            update_interval=60.0, delta_updates=True,
        )
        loop.run_until(120.0)
        sent = lrm.updates_sent
        lrm.detach()
        loop.run_until(600.0)
        assert lrm.updates_sent == sent
