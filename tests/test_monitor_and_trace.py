"""Tests for the cluster monitor and owner-trace record/replay."""

import random

import pytest

from repro import ApplicationSpec, Grid
from repro.core.lrm import Lrm
from repro.core.monitor import ClusterMonitor
from repro.core.ncc import NodeControlCenter
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.events import EventLoop
from repro.sim.machine import MachineSpec
from repro.sim.trace import (
    TraceEvent,
    TraceRecorder,
    TraceWorkstation,
    dump_trace,
    parse_trace,
)
from repro.sim.usage import OFFICE_WORKER
from repro.sim.workstation import Workstation


class TestClusterMonitor:
    def make_monitored_grid(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        for i in range(3):
            grid.add_node("c0", f"d{i}", dedicated=True)
        monitor = ClusterMonitor(
            grid.loop, grid.clusters["c0"].grm, period=300.0
        )
        grid.run_for(600)
        return grid, monitor

    def test_snapshots_accumulate(self):
        grid, monitor = self.make_monitored_grid()
        grid.run_for(SECONDS_PER_HOUR)
        assert len(monitor.snapshots) >= 12
        latest = monitor.latest()
        assert latest.nodes == 3
        assert latest.sharing_nodes == 3

    def test_grid_tasks_visible(self):
        grid, monitor = self.make_monitored_grid()
        grid.submit(ApplicationSpec(name="t", tasks=2, work_mips=1e8))
        grid.run_for(SECONDS_PER_HOUR)
        assert monitor.latest().grid_tasks == 2
        assert monitor.latest().grid_utilisation > 0

    def test_pending_tasks_visible(self):
        grid, monitor = self.make_monitored_grid()
        from repro.apps.spec import ResourceRequirements
        grid.submit(ApplicationSpec(
            name="stuck",
            requirements=ResourceRequirements(min_mips=1e9),
        ))
        grid.run_for(SECONDS_PER_HOUR)
        assert monitor.latest().pending_tasks == 1

    def test_series_and_mean(self):
        grid, monitor = self.make_monitored_grid()
        grid.run_for(SECONDS_PER_HOUR)
        series = monitor.series("nodes")
        assert all(v == 3 for _, v in series)
        assert monitor.mean("nodes") == 3.0

    def test_sparkline(self):
        grid, monitor = self.make_monitored_grid()
        grid.run_for(SECONDS_PER_HOUR)
        line = monitor.sparkline("sharing_nodes", width=20)
        assert 0 < len(line) <= 20

    def test_stop(self):
        grid, monitor = self.make_monitored_grid()
        monitor.stop()
        count = len(monitor.snapshots)
        grid.run_for(SECONDS_PER_HOUR)
        assert len(monitor.snapshots) == count

    def test_bounded_history(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "d0", dedicated=True)
        monitor = ClusterMonitor(
            grid.loop, grid.clusters["c0"].grm, period=60.0, keep=10
        )
        grid.run_for(SECONDS_PER_HOUR)
        assert len(monitor.snapshots) == 10

    def test_validation(self):
        grid = Grid(seed=1)
        grid.add_cluster("c0")
        with pytest.raises(ValueError):
            ClusterMonitor(grid.loop, grid.clusters["c0"].grm, period=0)
        with pytest.raises(ValueError):
            ClusterMonitor(grid.loop, grid.clusters["c0"].grm, keep=0)


class TestTraceFormat:
    def test_roundtrip(self):
        events = [
            TraceEvent(0.0, False, 0.0, 0.0),
            TraceEvent(100.0, True, 0.5, 64.0),
            TraceEvent(200.0, False, 0.0, 0.0),
        ]
        assert parse_trace(dump_trace(events)) == events

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0.0 0 0.0 0.0\n# mid\n10.0 1 0.3 32.0\n"
        assert len(parse_trace(text)) == 2

    def test_bad_field_count(self):
        with pytest.raises(ValueError):
            parse_trace("0.0 1 0.5\n")

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            parse_trace("10.0 0 0.0 0.0\n5.0 1 0.5 8.0\n")

    @pytest.mark.parametrize("line", [
        "-1.0 0 0.0 0.0", "0.0 0 1.5 0.0", "0.0 0 0.0 -4.0",
    ])
    def test_invalid_values(self, line):
        with pytest.raises(ValueError):
            parse_trace(line + "\n")


class TestTraceRecorder:
    def test_records_markov_workstation(self):
        loop = EventLoop()
        workstation = Workstation(
            loop, "ws", spec=MachineSpec(), profile=OFFICE_WORKER,
            rng=random.Random(5),
        )
        recorder = TraceRecorder(workstation, sample_interval=300.0)
        loop.run_until(2 * SECONDS_PER_DAY)
        assert recorder.events, "an office worker must show up in 2 days"
        # Events are deduplicated: consecutive states always differ.
        for a, b in zip(recorder.events, recorder.events[1:]):
            assert (a.present, a.cpu_fraction, a.mem_mb) != \
                (b.present, b.cpu_fraction, b.mem_mb)
        text = recorder.dump()
        assert parse_trace(text) == recorder.events


class TestTraceWorkstation:
    def simple_trace(self):
        return [
            TraceEvent(0.0, False, 0.0, 0.0),
            TraceEvent(1000.0, True, 0.6, 64.0),
            TraceEvent(2000.0, False, 0.0, 0.0),
        ]

    def test_replay_drives_machine(self):
        loop = EventLoop()
        ws = TraceWorkstation(loop, "replayed", self.simple_trace())
        assert not ws.owner_present
        loop.run_until(1500.0)
        assert ws.owner_present
        assert ws.machine.owner_cpu == pytest.approx(0.6)
        loop.run_until(2500.0)
        assert not ws.owner_present

    def test_transitions_fire_listeners(self):
        loop = EventLoop()
        ws = TraceWorkstation(loop, "replayed", self.simple_trace())
        transitions = []
        ws.on_owner_change(transitions.append)
        loop.run_until(3000.0)
        assert transitions == [True, False]

    def test_looping_trace_repeats(self):
        loop = EventLoop()
        ws = TraceWorkstation(
            loop, "replayed", self.simple_trace(), loop_trace=True
        )
        seen = []
        ws.on_owner_change(seen.append)
        loop.run_until(3 * 2001.0)
        assert seen.count(True) >= 3

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceWorkstation(EventLoop(), "x", [])

    def test_lrm_runs_on_replayed_trace(self):
        # Recorded traces drive the real middleware identically.
        loop = EventLoop()
        ws = TraceWorkstation(loop, "replayed", self.simple_trace())
        from repro.core.ncc import VACATE_POLICY
        ncc = NodeControlCenter(loop, VACATE_POLICY)
        lrm = Lrm(loop, ws, ncc)
        reply = lrm.request_reservation({
            "task_id": "t1", "cpu_fraction": 1.0, "mem_mb": 16.0,
            "disk_mb": 0.0, "lease_seconds": 600.0,
        })
        assert reply["accepted"]
        lrm.start_task({
            "task_id": "t1", "job_id": "j", "work_mips": 1e9,
            "initial_progress_mips": 0.0, "checkpoint_interval_s": 0.0,
            "payload": "",
        })
        loop.run_until(1500.0)   # the trace's owner arrives at t=1000
        assert lrm.evicted_count == 1


class TestMonitorBeforeFirstSample:
    """Every query must return a benign empty before sample() ever runs."""

    def fresh_monitor(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "d0", dedicated=True)
        # Long period: no periodic sample can sneak in during the test.
        monitor = ClusterMonitor(
            grid.loop, grid.clusters["c0"].grm, period=1e9
        )
        return grid, monitor

    def test_queries_return_benign_empties(self):
        _grid, monitor = self.fresh_monitor()
        assert monitor.snapshots == []
        assert monitor.latest() is None
        assert monitor.series("grid_tasks") == []
        assert monitor.mean("grid_tasks") == 0.0
        assert monitor.sparkline("grid_tasks") == ""
        assert monitor.sparkline("grid_tasks", width=5) == ""

    def test_metrics_views_read_zero_before_first_sample(self):
        from repro.obs.metrics import MetricsRegistry

        _grid, monitor = self.fresh_monitor()
        registry = MetricsRegistry()
        monitor.to_metrics(registry)
        metrics = registry.snapshot()["metrics"]
        assert metrics["monitor.c0.samples"] == 0
        assert metrics["monitor.c0.nodes"] == 0
        assert metrics["monitor.c0.grid_utilisation"] == 0
        # status_age_mean reads the GRM directly, not the snapshots.
        assert metrics["monitor.c0.status_age_mean_s"] >= 0.0

    def test_first_sample_flips_queries_to_real_data(self):
        grid, monitor = self.fresh_monitor()
        grid.run_for(120)
        snapshot = monitor.sample()
        assert monitor.latest() is snapshot
        assert snapshot.nodes == 1
        assert monitor.series("nodes") == [(snapshot.time, 1)]
        assert monitor.mean("nodes") == 1.0
        assert len(monitor.sparkline("nodes")) == 1
