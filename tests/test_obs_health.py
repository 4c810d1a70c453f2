"""Health plane: failure forensics, alert rules, doctor reports."""

import json

import pytest

from repro.obs.health import (
    AlertEvaluator,
    AlertRule,
    default_rules,
    doctor_report,
    failure_chains,
    flatten_metrics,
    grid_health_report,
    render_health_report,
)
from repro.obs.journal import EventJournal
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.events import EventLoop


def synthetic_crash_events():
    """A hand-built journal: one crash, one restored + one restarted task."""
    loop = EventLoop()
    journal = EventJournal(clock=loop)
    journal.record("node_up", node="n0", mips=1000.0)
    journal.record("node_up", node="n1", mips=1000.0)
    journal.record("task_scheduled", node="n0", job_id="j0", task_id="t0",
                   initial_progress_mips=0.0, attempt=1)
    journal.record("task_scheduled", node="n0", job_id="j1", task_id="t1",
                   initial_progress_mips=0.0, attempt=1)
    loop.run_until(100.0)
    down = journal.record("node_down", node="n0", reason="status stale")
    journal.record("checkpoint_restored", node="n0", job_id="j0",
                   task_id="t0", cause=down.seq, progress_mips=400.0)
    journal.record("task_evicted", node="n0", job_id="j0", task_id="t0",
                   cause=down.seq, progress_mips=400.0,
                   resume_progress_mips=400.0)
    journal.record("task_evicted", node="n0", job_id="j1", task_id="t1",
                   cause=down.seq, progress_mips=250.0,
                   resume_progress_mips=0.0)
    loop.run_until(130.0)
    journal.record("task_scheduled", node="n1", job_id="j0", task_id="t0",
                   initial_progress_mips=400.0, attempt=2)
    journal.record("task_restored", node="n1", job_id="j0", task_id="t0",
                   progress_mips=400.0)
    loop.run_until(160.0)
    journal.record("task_scheduled", node="n1", job_id="j1", task_id="t1",
                   initial_progress_mips=0.0, attempt=2)
    loop.run_until(500.0)
    journal.record("task_completed", node="n1", job_id="j0", task_id="t0",
                   attempts=2)
    return journal.events


class TestFailureChains:
    def test_chain_joins_evictions_by_causal_link(self):
        chains = failure_chains(synthetic_crash_events())
        assert len(chains) == 1
        chain = chains[0]
        assert chain.node == "n0"
        assert chain.reason == "status stale"
        assert chain.down_at == 100.0
        assert {t.task_id for t in chain.tasks} == {"t0", "t1"}
        assert chain.checkpoints_restored == 1
        assert chain.jobs_affected == ["j0", "j1"]

    def test_recovery_outcomes_and_cost_attribution(self):
        chain = failure_chains(synthetic_crash_events())[0]
        by_task = {t.task_id: t for t in chain.tasks}
        restored = by_task["t0"]
        assert restored.outcome == "restored"
        assert restored.resume_progress_mips == 400.0
        assert restored.lost_progress_mips == 0.0
        assert restored.stall_s == 30.0
        assert restored.rescheduled_node == "n1"
        assert restored.completed_at == 500.0
        restarted = by_task["t1"]
        assert restarted.outcome == "restarted"
        assert restarted.lost_progress_mips == 250.0
        assert restarted.stall_s == 60.0
        assert restarted.completed_at is None
        assert chain.cost_s == 90.0

    def test_unrecovered_task_has_no_stall(self):
        events = [e.to_dict() for e in synthetic_crash_events()]
        # Drop everything after the evictions: t0/t1 never reschedule.
        events = [e for e in events if e["time"] <= 100.0]
        chain = failure_chains(events)[0]
        assert all(t.outcome == "unrecovered" for t in chain.tasks)
        assert chain.cost_s == 0.0

    def test_works_on_dicts_and_events_alike(self):
        events = synthetic_crash_events()
        from_objects = failure_chains(events)
        from_dicts = failure_chains([e.to_dict() for e in events])
        assert from_objects[0].to_dict() == from_dicts[0].to_dict()

    def test_no_deaths_means_no_chains(self):
        journal = EventJournal()
        journal.record("node_up", node="a")
        assert failure_chains(journal.events) == []


class TestAlertRules:
    def test_threshold_rule_fires_on_flat_and_nested_metrics(self):
        evaluator = AlertEvaluator([
            AlertRule(name="dead", kind="threshold",
                      metric="grm.c0.nodes_declared_dead", op=">=", value=1),
            AlertRule(name="slow-rank", kind="threshold",
                      metric="grm.c0.rank_latency_s.p95", op=">", value=0.5),
        ])
        fired = evaluator.evaluate({
            "grm.c0.nodes_declared_dead": 2,
            "grm.c0.rank_latency_s": {"p95": 0.9, "count": 10},
        }, time=5.0)
        assert {f.rule for f in fired} == {"dead", "slow-rank"}
        assert all(f.time == 5.0 for f in fired)

    def test_threshold_rule_silent_below_and_when_missing(self):
        evaluator = AlertEvaluator([
            AlertRule(name="dead", kind="threshold",
                      metric="grm.c0.nodes_declared_dead", op=">=", value=1),
        ])
        assert evaluator.evaluate({"grm.c0.nodes_declared_dead": 0}) == []
        assert evaluator.evaluate({}) == []

    def test_absence_rule_fires_only_when_metric_missing(self):
        evaluator = AlertEvaluator([
            AlertRule(name="silent", kind="absence", metric="lrm.n0.ticks"),
        ])
        assert evaluator.evaluate({"lrm.n0.ticks": 4}) == []
        fired = evaluator.evaluate({})
        assert [f.rule for f in fired] == ["silent"]
        assert fired[0].observed is None

    def test_rate_rule_needs_two_samples_and_elapsed_time(self):
        evaluator = AlertEvaluator([
            AlertRule(name="eviction-storm", kind="rate",
                      metric="lrm.total.evicted_count", op=">", value=0.1),
        ])
        assert evaluator.evaluate(
            {"lrm.total.evicted_count": 0}, time=0.0) == []
        fired = evaluator.evaluate(
            {"lrm.total.evicted_count": 30}, time=60.0)
        assert [f.rule for f in fired] == ["eviction-storm"]
        assert fired[0].observed == pytest.approx(0.5)
        # No time elapsed: no rate, no crash.
        assert evaluator.evaluate(
            {"lrm.total.evicted_count": 60}, time=60.0) == []

    def test_top_counts_cumulative_firings(self):
        evaluator = AlertEvaluator([
            AlertRule(name="a", kind="threshold", metric="x",
                      op=">=", value=1),
            AlertRule(name="b", kind="threshold", metric="y",
                      op=">=", value=1),
        ])
        evaluator.evaluate({"x": 1, "y": 1})
        evaluator.evaluate({"x": 1, "y": 0})
        assert evaluator.top(2) == [("a", 2), ("b", 1)]
        assert evaluator.top(1) == [("a", 2)]

    def test_rules_from_dicts_and_bad_rules_rejected(self):
        evaluator = AlertEvaluator([
            {"name": "d", "kind": "threshold", "metric": "m", "op": ">",
             "value": 2.0, "severity": "critical"},
        ])
        assert evaluator.rules[0].severity == "critical"
        with pytest.raises(ValueError):
            AlertRule(name="x", kind="sideways", metric="m")
        with pytest.raises(ValueError):
            AlertRule(name="x", kind="threshold", metric="m", op="~=")

    def test_flatten_skips_non_numeric_and_dots_into_dicts(self):
        flat = flatten_metrics({
            "a": 1, "b": {"c": 2.5, "d": {"e": 3}}, "s": "text",
            "flag": True, "list": [1, 2],
        })
        assert flat == {"a": 1, "b.c": 2.5, "b.d.e": 3, "flag": 1.0}

    def test_default_rules_cover_grid_shape(self):
        rules = default_rules(clusters=["c0"])
        names = {r.name for r in rules}
        assert "dead-nodes.c0" in names
        assert "status-staleness.c0" in names
        assert "journal-loss" in names
        assert "trace-loss" in names

    def test_every_stock_rule_reads_a_metric_the_grid_publishes(self):
        from repro import ApplicationSpec
        from repro.apps.spec import BSP
        from repro.core.grid import Grid

        grid = Grid(seed=1, lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "n0", dedicated=True)
        grid.enable_metrics()
        grid.enable_journal()
        grid.enable_tracing()
        grid.run_for(120)
        job_id = grid.submit(ApplicationSpec(
            name="gang", kind=BSP, tasks=1, program="gang", work_mips=4e6,
            checkpoint_every_supersteps=1, metadata={"supersteps": 4},
        ))
        grid.run_for(1800)
        assert grid.job(job_id).tasks[0].node == "n0"
        assert grid.coordinator(job_id).checkpointed >= 1
        rules = default_rules(clusters=sorted(grid.clusters),
                              update_interval=grid.update_interval)
        names = set(grid.metrics.names())
        assert [r.metric for r in rules if r.metric not in names] == []

    def test_every_rule_doctor_shapes_reads_a_metric_simulate_wrote(
            self, tmp_path, monkeypatch):
        import repro.obs
        from repro.cli import main

        metrics_path = str(tmp_path / "metrics.json")
        journal_path = str(tmp_path / "journal.jsonl")
        assert main([
            "simulate", "--nodes", "3", "--jobs", "2",
            "--train-days", "0", "--horizon-days", "1",
            "--trace", str(tmp_path / "trace.json"),
            "--journal", journal_path, "--metrics-json", metrics_path,
        ]) == 0
        shaped = []
        real = repro.obs.doctor_report

        def recording(events, metrics=None, rules=None, **kwargs):
            shaped.extend(rules)
            return real(events, metrics=metrics, rules=rules, **kwargs)

        monkeypatch.setattr(repro.obs, "doctor_report", recording)
        assert main(["doctor", journal_path,
                     "--metrics", metrics_path]) == 0
        names = set(json.load(open(metrics_path))["metrics"])
        assert {r.name for r in shaped} >= {
            "dead-nodes.sim", "journal-loss", "trace-loss"}
        assert [r.metric for r in shaped if r.metric not in names] == []


class TestDoctorReport:
    def test_offline_report_from_journal_alone(self):
        report = doctor_report(synthetic_crash_events())
        assert report["dead_nodes"] == ["n0"]
        assert report["jobs_affected"] == ["j0", "j1"]
        assert report["events"] == 12
        assert report["alerts"] == []
        chain = report["chains"][0]
        assert chain["cost_s"] == 90.0

    def test_report_with_metrics_evaluates_rules(self):
        report = doctor_report(
            synthetic_crash_events(),
            metrics={"grm.c0.nodes_declared_dead": 1},
            rules=[AlertRule(name="dead-nodes.c0", kind="threshold",
                             metric="grm.c0.nodes_declared_dead",
                             op=">=", value=1, severity="critical")],
        )
        assert [a["rule"] for a in report["alerts"]] == ["dead-nodes.c0"]
        assert report["top_alerts"] == [("dead-nodes.c0", 1)]

    def test_render_names_nodes_outcomes_and_alerts(self):
        report = doctor_report(
            synthetic_crash_events(),
            metrics={"grm.c0.nodes_declared_dead": 1},
            rules=[AlertRule(name="dead-nodes.c0", kind="threshold",
                             metric="grm.c0.nodes_declared_dead",
                             op=">=", value=1, severity="critical")],
        )
        text = render_health_report(report)
        assert "node n0 DOWN" in text
        assert "restored" in text and "restarted" in text
        assert "jobs affected: j0, j1" in text
        assert "[critical] dead-nodes.c0" in text

    def test_render_of_quiet_report(self):
        text = render_health_report(doctor_report([]))
        assert "no node deaths" in text
        assert "no alerts" in text


class TestEndToEndCrashForensics:
    """The acceptance scenario: inject a crash, then reconstruct it —
    dead node, every evicted task, each recovery outcome, and the
    sim-time delay — from the exported journal alone."""

    def _crashed_grid(self):
        from tests.test_failure_injection import crash_node, dedicated_grid

        from repro import ApplicationSpec

        grid = dedicated_grid(nodes=2)
        grid.enable_journal()
        job_id = grid.submit(ApplicationSpec(
            name="t", work_mips=5e7,
            metadata={"checkpoint_interval_s": 300.0},
        ))
        grid.run_for(SECONDS_PER_HOUR)
        job = grid.job(job_id)
        victim = job.tasks[0].node
        crash_time = grid.loop.now
        crash_node(grid, victim)
        assert grid.wait_for_job(job_id, max_seconds=3 * SECONDS_PER_DAY)
        return grid, job_id, victim, crash_time

    def test_doctor_reconstructs_crash_from_exported_journal(self, tmp_path):
        from repro.obs.journal import (
            export_journal_jsonl,
            load_journal_jsonl,
            validate_journal,
        )

        grid, job_id, victim, crash_time = self._crashed_grid()
        path = str(tmp_path / "journal.jsonl")
        export_journal_jsonl(grid.journal.events, path)
        events = load_journal_jsonl(path)
        validate_journal(events)

        # The report is assembled solely from the exported file.
        report = doctor_report(events)
        assert report["dead_nodes"] == [victim]
        assert report["jobs_affected"] == [job_id]
        chain = report["chains"][0]
        assert chain["reason"] == "status stale"
        # The GRM declares death one staleness window after the last
        # accepted update, so the recorded death trails the crash.
        assert chain["down_at"] > crash_time

        # Every evicted task is named, with its recovery outcome.
        task = grid.job(job_id).tasks[0]
        recoveries = {t["task_id"]: t for t in chain["tasks"]}
        assert task.task_id in recoveries
        recovery = recoveries[task.task_id]
        assert recovery["outcome"] == "restored"   # checkpoint existed
        assert recovery["resume_progress_mips"] > 0
        assert recovery["rescheduled_node"] == task.node != victim
        assert recovery["completed_at"] is not None

        # Sim-time delay attributed to the crash: each evicted task sat
        # dead through the liveness detection window (a full staleness
        # interval at minimum) plus its requeue stall.
        assert chain["detection_s"] > 0
        assert recovery["stall_s"] >= 0
        assert chain["cost_s"] >= chain["detection_s"] + recovery["stall_s"]
        assert chain["cost_s"] > 0

        text = render_health_report(report)
        assert victim in text
        assert task.task_id in text

    def test_crash_without_checkpoint_reads_as_restarted(self):
        from tests.test_failure_injection import crash_node, dedicated_grid

        from repro import ApplicationSpec

        grid = dedicated_grid(nodes=2)
        grid.enable_journal()
        job_id = grid.submit(ApplicationSpec(name="t", work_mips=5e7))
        grid.run_for(SECONDS_PER_HOUR)
        victim = grid.job(job_id).tasks[0].node
        crash_node(grid, victim)
        grid.run_for(6 * SECONDS_PER_HOUR)
        chain = failure_chains(grid.journal.events)[0]
        assert chain.node == victim
        assert chain.checkpoints_restored == 0
        outcomes = {t.outcome for t in chain.tasks}
        assert outcomes == {"restarted"}
        # No checkpoint survived: nothing to resume from.  (The work
        # lost on the dead node is unknowable, so it reads as 0.)
        assert all(t.resume_progress_mips == 0.0 for t in chain.tasks)

    def test_live_health_report_fires_dead_node_alert(self):
        grid, job_id, victim, _ = self._crashed_grid()
        report = grid_health_report(grid)
        assert report["dead_nodes"] == [victim]
        assert report["journal"]["recorded"] == len(grid.journal)
        assert report["journal"]["dropped"] == 0
        fired = {a["rule"] for a in report["alerts"]}
        assert "dead-nodes.c0" in fired
        severities = {a["rule"]: a["severity"] for a in report["alerts"]}
        assert severities["dead-nodes.c0"] == "critical"

    def test_live_health_report_fires_staleness_alert(self):
        from repro import Grid

        grid = Grid(seed=1, lupa_enabled=False)
        grid.add_cluster("c0")
        for name in ("n0", "n1"):
            grid.add_node("c0", name, dedicated=True)
        grid.enable_journal()
        grid.enable_metrics()
        grid.run_until(600.0)
        for name in ("n0", "n1"):
            grid.crash_node("c0", name)
        grid.run_until(792.0)
        # Both nodes are still on the roster, last heard 192 s ago:
        # past the rule's 3 x 60 s, short of the GRM's death sweep.
        assert sorted(grid.clusters["c0"].grm._nodes) == ["n0", "n1"]
        report = grid.health_report()
        assert report["dead_nodes"] == []
        (alert,) = [a for a in report["alerts"]
                    if a["rule"] == "status-staleness.c0"]
        assert alert["metric"] == "grm.c0.status_age_mean_s"
        assert alert["observed"] == pytest.approx(192.0)

    def test_health_report_requires_journal(self):
        from repro import Grid

        grid = Grid(seed=1, lupa_enabled=False)
        grid.add_cluster("c0")
        with pytest.raises(ValueError, match="journal"):
            grid_health_report(grid)


class TestDoctorCli:
    def test_doctor_command_offline_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.journal import export_journal_jsonl

        journal_path = str(tmp_path / "journal.jsonl")
        export_journal_jsonl(synthetic_crash_events(), journal_path)
        metrics_path = str(tmp_path / "metrics.json")
        with open(metrics_path, "w") as f:
            json.dump({"time": 500.0, "metrics": {
                "grm.c0.nodes_declared_dead": 1,
            }}, f)
        report_path = str(tmp_path / "report.json")
        assert main(["doctor", journal_path, "--metrics", metrics_path,
                     "--json", report_path]) == 0
        out = capsys.readouterr().out
        assert "node n0 DOWN" in out
        assert "dead-nodes.c0" in out
        report = json.loads(open(report_path).read())
        assert report["dead_nodes"] == ["n0"]

    def test_simulate_journal_and_health_report_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.journal import validate_journal_file

        journal_path = str(tmp_path / "sim.jsonl")
        health_path = str(tmp_path / "health.json")
        assert main([
            "simulate", "--nodes", "3", "--jobs", "1",
            "--train-days", "0", "--horizon-days", "1",
            "--journal", journal_path, "--health-report", health_path,
        ]) == 0
        assert validate_journal_file(journal_path) > 0
        report = json.loads(open(health_path).read())
        assert "chains" in report and "alerts" in report
        out = capsys.readouterr().out
        assert "Event journal" in out
        assert "Grid health report" in out
