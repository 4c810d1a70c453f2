"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — assemble a small cluster, run a job, print the story.
* ``simulate`` — parameterised desktop-grid simulation with a summary
  report (nodes, profiles, policy, workload, duration).
* ``doctor`` — offline postmortem from an exported event journal:
  failure chains, recovery outcomes, alert firings.
* ``profiles`` — list the built-in owner-activity profiles.
* ``policies`` — list the scheduling policies.
"""

import argparse
import sys

from repro import ApplicationSpec, Grid
from repro.analysis.metrics import Table, describe
from repro.core.ncc import DEFAULT_POLICY, VACATE_POLICY
from repro.core.scheduler import POLICIES
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.sim.usage import PROFILES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InteGrade grid middleware (reproduction) CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run a small end-to-end demonstration")
    sub.add_parser("profiles", help="list owner-activity profiles")
    sub.add_parser("policies", help="list scheduling policies")
    report = sub.add_parser(
        "report", help="print the saved experiment result tables"
    )
    report.add_argument("--results-dir", default=None,
                        help="directory of saved tables "
                             "(default: benchmarks/results)")
    report.add_argument("--metrics", default=None, metavar="FILE",
                        help="also print a metrics snapshot JSON file "
                             "(from simulate --metrics-json)")

    simulate = sub.add_parser(
        "simulate", help="run a parameterised desktop-grid simulation"
    )
    simulate.add_argument("--nodes", type=int, default=12,
                          help="number of shared workstations (default 12)")
    simulate.add_argument("--dedicated", type=int, default=0,
                          help="number of dedicated nodes (default 0)")
    simulate.add_argument("--profile", default="office_worker",
                          choices=sorted(PROFILES),
                          help="owner profile for the workstations")
    simulate.add_argument("--policy", default="pattern_aware",
                          choices=sorted(POLICIES),
                          help="GRM scheduling policy")
    simulate.add_argument("--jobs", type=int, default=6,
                          help="sequential jobs to submit (default 6)")
    simulate.add_argument("--work-hours", type=float, default=2.0,
                          help="per-job work in idle-hours of a 1000 MIPS "
                               "machine (default 2.0)")
    simulate.add_argument("--train-days", type=int, default=14,
                          help="days of LUPA training before submission")
    simulate.add_argument("--horizon-days", type=float, default=3.0,
                          help="how long to wait for the batch (default 3)")
    simulate.add_argument("--vacate", action="store_true",
                          help="owners evict grid work on return "
                               "(default: throttle and share)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--checkpoint-s", type=float, default=900.0,
                          help="checkpoint interval in seconds (0 = off)")
    simulate.add_argument("--dashboard", action="store_true",
                          help="print utilisation sparklines for the run")
    simulate.add_argument("--metrics-json", default=None, metavar="PATH",
                          help="enable the metrics registry and write its "
                               "final snapshot as JSON")
    simulate.add_argument("--journal", default=None, metavar="PATH",
                          help="record the structured event journal and "
                               "write it as JSONL")
    simulate.add_argument("--health-report", default=None, metavar="PATH",
                          help="enable journal+metrics and write the final "
                               "health report (forensics + alerts) as JSON")

    doctor = sub.add_parser(
        "doctor",
        help="postmortem from an exported event journal (offline)",
    )
    doctor.add_argument("journal", metavar="JOURNAL",
                        help="journal JSONL file (from simulate --journal)")
    doctor.add_argument("--metrics", default=None, metavar="FILE",
                        help="metrics snapshot JSON to evaluate alert "
                             "rules against (from simulate --metrics-json)")
    doctor.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full report as JSON")
    return parser


def cmd_profiles() -> int:
    table = Table(["profile", "mean session (min)", "description"])
    blurbs = {
        "office_worker": "9-18 weekdays, lunch dip, quiet nights/weekends",
        "student_lab": "shared lab, long moderately-busy days",
        "night_owl": "computes interactively 20:00-02:00",
        "always_idle": "no interactive owner (dedicated node)",
        "erratic": "no temporal structure (adversarial for LUPA)",
    }
    for name, profile in sorted(PROFILES.items()):
        table.add_row(name, profile.mean_session_minutes, blurbs.get(name, ""))
    print(table.render())
    return 0


def cmd_policies() -> int:
    table = Table(["policy", "ranks candidates by"])
    blurbs = {
        "first_fit": "trader order (deterministic)",
        "random": "uniformly random (no-information baseline)",
        "fastest_first": "effective speed (MIPS x free CPU)",
        "pattern_aware": "predicted idle span x speed (the paper's policy)",
    }
    for name in sorted(POLICIES):
        table.add_row(name, blurbs.get(name, ""))
    print(table.render())
    return 0


def cmd_demo() -> int:
    print("Assembling one cluster: 4 office workstations + 1 dedicated "
          "node...")
    grid = Grid(seed=42, policy="pattern_aware")
    meter = grid.enable_wire_meter()
    grid.add_cluster("demo")
    for i in range(4):
        grid.add_node("demo", f"office{i}",
                      profile=PROFILES["office_worker"])
    grid.add_node("demo", "server0", dedicated=True)
    grid.run_for(600)
    asct = grid.make_asct("demo")
    job_id = asct.submit(ApplicationSpec(
        name="demo-job", tasks=2, work_mips=1.8e6,
        metadata={"checkpoint_interval_s": 600.0},
    ))
    print(f"Submitted 2-task job {job_id}; advancing simulated time...")
    grid.wait_for_job(job_id, max_seconds=SECONDS_PER_DAY)
    status = asct.status(job_id)
    print(f"Job state: {status['state']}")
    for task in status["tasks"]:
        print(f"  {task['task_id']}: node={task['node']} "
              f"attempts={task['attempts']}")
    print(f"ORB traffic: {meter.requests} requests, "
          f"{meter.bytes} bytes (modelled CDR)")
    return 0


def cmd_simulate(args) -> int:
    grid = Grid(
        seed=args.seed, policy=args.policy,
        lupa_enabled=args.policy == "pattern_aware",
        update_interval=120.0,
    )
    meter = grid.enable_wire_meter()   # the report prints message sizes
    grid.add_cluster("sim")
    profile = PROFILES[args.profile]
    sharing = VACATE_POLICY if args.vacate else DEFAULT_POLICY
    for i in range(args.nodes):
        grid.add_node("sim", f"ws{i:03}", profile=profile, sharing=sharing)
    for i in range(args.dedicated):
        grid.add_node("sim", f"ded{i:02}", dedicated=True)

    monitor = None
    if args.dashboard:
        from repro.core.monitor import ClusterMonitor
        monitor = ClusterMonitor(grid.loop, grid.clusters["sim"].grm,
                                 period=1800.0)

    if args.metrics_json or args.health_report:
        grid.enable_metrics()
        if monitor is not None:
            monitor.to_metrics(grid.metrics)
    journal = None
    if args.journal or args.health_report:
        journal = grid.enable_journal()

    print(f"{args.nodes} x {args.profile} workstations"
          + (f" + {args.dedicated} dedicated" if args.dedicated else "")
          + f", policy={args.policy}, seed={args.seed}")
    if args.train_days:
        print(f"Training LUPA for {args.train_days} days...")
        grid.run_for(args.train_days * SECONDS_PER_DAY)
    grid.run_for(9 * SECONDS_PER_HOUR)

    work = args.work_hours * 3600.0 * 1000.0
    print(f"Submitting {args.jobs} jobs of {args.work_hours} idle-hours "
          "each (Monday 09:00)...")
    job_ids = [
        grid.submit(ApplicationSpec(
            name=f"job{j}", work_mips=work,
            metadata={"checkpoint_interval_s": args.checkpoint_s},
        ))
        for j in range(args.jobs)
    ]
    deadline = grid.loop.now + args.horizon_days * SECONDS_PER_DAY
    while grid.loop.now < deadline:
        grid.run_for(SECONDS_PER_HOUR)
        if all(grid.job(j).done for j in job_ids):
            break

    jobs = [grid.job(j) for j in job_ids]
    spans = [j.makespan for j in jobs if j.makespan is not None]
    table = Table(["metric", "value"], title="\nSimulation report")
    table.add_row("jobs completed", f"{len(spans)}/{args.jobs}")
    if spans:
        stats = describe(spans)
        table.add_row("makespan p50 (h)", stats["p50"] / 3600)
        table.add_row("makespan p95 (h)", stats["p95"] / 3600)
    table.add_row("evictions",
                  sum(t.evictions for j in jobs for t in j.tasks))
    table.add_row("wasted CPU (min)",
                  sum(t.wasted_mips for j in jobs for t in j.tasks) / 60000)
    grm = grid.clusters["sim"].grm
    table.add_row("negotiation rounds", grm.stats.negotiation_rounds)
    table.add_row("reservation refusals", grm.stats.reservations_refused)
    table.add_row("ORB requests", meter.requests)
    table.add_row("ORB KB sent (modelled CDR)", meter.bytes / 1024)
    print(table.render())
    if monitor is not None:
        print("\nUtilisation (darker = more):")
        for label, field_name in (
            ("owners at machines", "owner_active_nodes"),
            ("CPU offered to grid", "cpu_free_for_grid"),
            ("grid tasks running", "grid_tasks"),
        ):
            print(f"  {label:<20} |{monitor.sparkline(field_name, 60)}|")
    if args.metrics_json:
        from repro.obs import export_metrics_json
        export_metrics_json(grid.metrics, args.metrics_json)
        print(f"Metrics snapshot -> {args.metrics_json}")
    if journal is not None and args.journal:
        from repro.obs import export_journal_jsonl
        count = export_journal_jsonl(journal.events, args.journal)
        print(f"Event journal ({count} events) -> {args.journal}")
    if args.health_report:
        import json as _json

        from repro.obs import render_health_report
        report = grid.health_report()
        with open(args.health_report, "w") as f:
            _json.dump(report, f, indent=2, sort_keys=True)
        print(f"Health report -> {args.health_report}")
        print(render_health_report(report))
    return 0


def cmd_doctor(args) -> int:
    import json

    from repro.obs import (
        doctor_report,
        load_journal_jsonl,
        render_health_report,
        validate_journal,
    )

    events = load_journal_jsonl(args.journal)
    validate_journal(events)
    metrics = None
    time = None
    if args.metrics:
        with open(args.metrics) as f:
            snapshot = json.load(f)
        metrics = snapshot.get("metrics", snapshot)
        time = snapshot.get("time")
    report = doctor_report(events, metrics=metrics, time=time)
    print(render_health_report(report))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"Report JSON -> {args.json}")
    return 0


def _print_metrics_file(path: str) -> int:
    import json

    with open(path) as f:
        snapshot = json.load(f)
    metrics = snapshot.get("metrics", {})
    table = Table(["metric", "value"],
                  title=f"Metrics snapshot at t={snapshot.get('time', 0.0)}s")
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, dict):   # histogram snapshot
            table.add_row(
                name,
                f"n={value.get('count', 0)} mean={value.get('mean', 0.0):.3g} "
                f"p95={value.get('p95', 0.0):.3g} p99={value.get('p99', 0.0):.3g}",
            )
        else:
            table.add_row(name, value)
    print(table.render())
    return 0


def cmd_report(args) -> int:
    import os

    if getattr(args, "metrics", None):
        _print_metrics_file(args.metrics)
        if args.results_dir is None:
            return 0   # metrics-only report
        print()

    directory = args.results_dir
    if directory is None:
        directory = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
            "benchmarks", "results",
        )
    if not os.path.isdir(directory):
        print(f"no results directory at {directory}; "
              "run `pytest benchmarks/ --benchmark-only` first")
        return 1
    names = sorted(
        n for n in os.listdir(directory) if n.endswith(".txt")
    )
    if not names:
        print(f"no result tables in {directory}")
        return 1
    for name in names:
        with open(os.path.join(directory, name)) as f:
            print(f.read().rstrip())
        print()
    print(f"({len(names)} experiment tables from {directory})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "profiles":
        return cmd_profiles()
    if args.command == "policies":
        return cmd_policies()
    if args.command == "demo":
        return cmd_demo()
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "doctor":
        return cmd_doctor(args)
    if args.command == "report":
        return cmd_report(args)
    return 2   # unreachable: argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
