"""S0 — the whole-system benchmark.

Two ways in, one measuring path:

* **One run** (what ``BENCHMARK.json`` names): ``run.py --workload W
  --seed N --seconds S --trace 0|1`` measures one workload in this
  process and prints one JSON object as the last line of stdout.
* **A set** (what a person types): ``run.py [--workload W] [--seed N]
  [--repeats K] [--trace] [--profile all_fast] [--quick]
  [--check-repeat]`` runs every repeat of every workload as a fresh
  subprocess of the first form, round-robin across workloads, prints
  every metric by name with its unit, and writes
  ``results/<workload>.json``.

Every number is either **host time** (what the Python process costs:
noisy, so a run repeats its fixed work and reports medians over the
repeats, in reference seconds — see ``support.Calibrator``) or **simulated time /
a count** (deterministic for a seed: must repeat exactly, and is
checked to).
End-to-end numbers are measured with tracing off; ``--trace`` makes a
separate pass with the shims of ``tracing.py`` installed.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import SPECIFIC_E2E, per_layer_metrics
from support import Calibrator, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
DETAIL_PREFIX = "S0-DETAIL "

QUICK_SCALE = 0.125
#: Timed phase per run when a person starts a set; the driver passes its
#: own ``run_seconds``.  Shorter, so that --check-repeat stays ~15 min.
DEFAULT_SECONDS = 12
#: Stop starting new iterations after this long, whatever ``--seconds``
#: asked for: one run must end well inside the driver's 180 s.
RUN_DEADLINE_S = 100.0

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"),
    ("step_p50_ms", "ms"), ("step_p90_ms", "ms"),
)


def _import_system():
    """Put ``src/`` on the path; fail if the system to measure is gone."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no system to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- one run (this process) -------------------------------------------------

def timed_phase(workload) -> dict:
    """Drive ``workload.run()`` part by part.

    ``run()`` is a generator that yields after each part of its fixed
    work.  A part is one step, unless the workload yields the latencies
    it measured inside the part (``tcp_rpc``): then those are the part's
    steps.  Each part is timed here and followed by a calibrator tick, so
    host times come back in reference seconds (see ``Calibrator``).
    """
    calibrator = Calibrator()
    clock, cpu_clock = time.perf_counter, time.process_time
    parts = []          # (wall, cpu, latencies the part yielded or None)
    run = workload.run()
    while True:
        cpu_before, started = cpu_clock(), clock()
        try:
            own = next(run)
        except StopIteration:
            break
        wall, cpu = clock() - started, cpu_clock() - cpu_before
        parts.append((wall, cpu, own))
        calibrator.tick(cpu)
    wall_s = cpu_s = raw_wall_s = 0.0
    steps = []
    for wall, cpu, own in parts:
        reference = calibrator.reference(wall, cpu)
        raw_wall_s += wall
        wall_s += reference
        cpu_s += cpu * calibrator.speed
        if own is None:
            steps.append(reference)
        else:
            steps.extend(latency * (reference / wall) for latency in own)
    return {"wall_s": wall_s, "raw_wall_s": raw_wall_s, "cpu_s": cpu_s,
            "speed": calibrator.speed, "steps": steps}


def iterate(cls, seed: int, quick: bool, profile: str, tracer=None,
            **workload_kwargs) -> dict:
    """Set up, run and check one instance of a workload."""
    workload = cls(seed, QUICK_SCALE if quick else 1.0, profile,
                   **workload_kwargs)
    cpu_before, started = time.process_time(), time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - started
    setup_cpu_s = time.process_time() - cpu_before
    after_setup = Calibrator()
    after_setup.tick(setup_cpu_s)
    if tracer is not None:
        tracer.enabled = True
    timed = timed_phase(workload)
    if tracer is not None:
        tracer.enabled = False
    outcome = workload.finish()
    outcome.update(timed, sizes=workload.sizes,
                   setup_s=after_setup.reference(setup_s, setup_cpu_s))
    # Host times a workload measured itself go into reference seconds by
    # the iteration's overall ratio.
    for name in outcome["extra"]:
        if SPECIFIC_E2E[name][1] == "host":
            outcome["extra"][name] *= timed["wall_s"] / timed["raw_wall_s"]
    # Free this iteration's grid before the next is built, so that peak
    # memory does not depend on how many iterations fit in the run.
    del workload
    gc.collect()
    return outcome


def _check_repeatable(first: dict, other: dict, what: str, errors: list):
    """Digest, failures and simulated-time numbers must repeat exactly."""
    for key in ("digest", "failed"):
        if first[key] != other[key]:
            errors.append(f"{what}: {key} {other[key]!r} != {first[key]!r}")
    for name, value in first["extra"].items():
        if SPECIFIC_E2E[name][1] == "sim" and other["extra"][name] != value:
            errors.append(f"{what}: {name} {other['extra'][name]!r} != {value!r}")


def measure_plain(cls, seed, seconds, quick, profile) -> dict:
    """Untraced iterations until ``seconds`` of timed phase are measured."""
    began = time.perf_counter()
    iterations = []
    while True:
        iterations.append(iterate(cls, seed, quick, profile))
        measured = sum(it["raw_wall_s"] for it in iterations)
        if measured >= seconds \
                or time.perf_counter() - began > RUN_DEADLINE_S:
            break
    first = iterations[0]
    errors = list(first.get("errors", ()))
    for n, other in enumerate(iterations[1:], start=2):
        _check_repeatable(first, other, f"iteration {n}", errors)
    if len({len(it["steps"]) for it in iterations}) != 1:
        errors.append("the number of steps differs between iterations")
    # The work is the same in every iteration, step for step.  A step
    # is short, and what disturbs it (another thread, the neighbours)
    # only ever adds time, so a step's time is the fastest of its
    # repeats: over ten runs the quartiles of tcp_rpc's step_p90_ms were
    # 4-6 % apart that way, 6-10 % as medians.  Set-up
    # and wall are sums over thousands of such disturbances; what is left
    # in them is the speed estimate's error, which goes both ways, so
    # they are medians over the iterations.
    steps = sorted(min(times)
                   for times in zip(*(it["steps"] for it in iterations)))
    end_to_end = {
        "setup_s": statistics.median(it["setup_s"] for it in iterations),
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "step_p50_ms": percentile(steps, 0.50) * 1e3,
        "step_p90_ms": percentile(steps, 0.90) * 1e3,
    }
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    # Simulated-time extras are equal in every iteration (checked above);
    # host-time ones are as noisy as wall_s and get the same median.
    specific = {
        name: statistics.median(it["extra"][name] for it in iterations)
        for name in first["extra"]
    }
    specific["failed_ratio"] = failed / attempted if attempted else 1.0
    return {
        "correct": not errors and failed == 0,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "digest": first["digest"],
        "iterations": len(iterations),
        "sizes": first["sizes"],
        "samples": dict(first["samples"], steps=len(steps)),
        "end_to_end": end_to_end,
        "specific": specific,
        "counters": first["counters"],
        "per_iteration": {
            key: [it[key] for it in iterations]
            for key in ("setup_s", "wall_s", "raw_wall_s", "speed")
        },
    }


def measure_traced(cls, seed, quick, profile) -> dict:
    """One untraced pass for reference, then one pass under the shims."""
    from layers import BOUNDARIES, layer_rows
    from tracing import SpanTracer
    plain = iterate(cls, seed, quick, profile)
    errors = list(plain.get("errors", ()))
    obs_ratio = 0.0
    if getattr(cls, "observable", False):
        observed = iterate(cls, seed, quick, profile, observability=True)
        _check_repeatable(plain, observed, "metrics+journal on", errors)
        obs_ratio = observed["wall_s"] / plain["wall_s"]
    tracer = SpanTracer()
    tracer.install(BOUNDARIES)
    traced = iterate(cls, seed, quick, profile, tracer=tracer)
    _check_repeatable(plain, traced, "traced pass", errors)
    for boundary in tracer.unresolved:
        print(f"run.py: warning: boundary {boundary} no longer resolves",
              file=sys.stderr)

    # Rows sum to the seconds the driving threads were timed for: the
    # timed phase itself, or on tcp_rpc the client threads' loops.
    # Like every host time, self times are then put in reference seconds.
    driver_threads = traced.get("driver_threads", {"MainThread"})
    budget = traced.get("thread_seconds", traced["raw_wall_s"])
    rows = layer_rows(tracer, budget, cls.residual_layer, driver_threads)
    to_reference = traced["wall_s"] / traced["raw_wall_s"]
    budget *= to_reference
    values = {}
    for layer, row in rows.items():
        if row["self_s"] is not None:
            row["self_s"] *= to_reference
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    covered = sum(r["self_s"] for r in rows.values() if r["self_s"])
    values.update(traced["counters"])
    values.update(plain.get("host_counters", {}))
    values.update((f"e2e.{name}", v) for name, v in plain["extra"].items())
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    values.update({
        "e2e.failed_ratio": failed / attempted if attempted else 1.0,
        "process.cpu_s": plain["cpu_s"],
        "harness.speed": plain["speed"],
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
        "trace.unattributed_ratio": rows["harness"]["self_s"] / budget,
        "trace.unresolved_boundaries": len(tracer.unresolved),
        "obs.enabled_wall_ratio": obs_ratio,
    })
    per_layer = {name: values.get(name, 0)
                 for name, _unit, _better in per_layer_metrics()}
    origin = min((span[2] for span in tracer.samples), default=0.0)
    spans = [
        [span_id, name, round(start - origin, 7), round(end - origin, 7),
         parent_id, root_id, thread]
        for span_id, name, start, end, parent_id, root_id, thread
        in tracer.samples
    ]
    aggregates = [
        {"layer": layer, "boundary": boundary, "parent_layer": parent,
         "calls": calls, "total_s": total, "self_s": self_s}
        for (layer, boundary, parent), (calls, total, self_s)
        in sorted(tracer.aggregates().items(),
                  key=lambda item: -item[1][2])
    ]
    return {
        "correct": not errors and failed == 0,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "digest": plain["digest"],
        "sizes": plain["sizes"],
        "per_layer": per_layer,
        "trace": {
            "wall_s": traced["wall_s"],
            "untraced_wall_s": plain["wall_s"],
            "span_budget_s": budget,
            "driver_threads": len(driver_threads),
            "rows_sum_s": covered,
            "residual_layer": cls.residual_layer,
            "unresolved_boundaries": list(tracer.unresolved),
            "aggregates": aggregates,
            "span_fields": ["id", "name", "start_s", "end_s", "parent_id",
                            "root_id", "thread"],
            "spans": spans,
        },
    }


def _metric_line(names_units, values: dict) -> dict:
    """``{name: {"value", "unit"}}``; a layer that no longer resolves
    (None) reads 0 here — the driver wants numbers — and is listed in
    ``unresolved_boundaries`` of the trace file."""
    return {
        name: {"value": values[name] if values[name] is not None else 0,
               "unit": unit}
        for name, unit, *_ in names_units
    }


def run_one(args) -> int:
    """Measure one workload in this process; print the result line."""
    _import_system()
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    if args.trace:
        result = measure_traced(cls, args.seed, args.quick, args.profile)
        metrics = _metric_line(per_layer_metrics(), result["per_layer"])
    else:
        result = measure_plain(cls, args.seed, args.seconds, args.quick,
                               args.profile)
        metrics = _metric_line(END_TO_END, result["end_to_end"])
    for error in result["errors"]:
        print(f"run.py: {args.workload}: {error}", file=sys.stderr)
    if args.detail:
        result.update(workload=args.workload, seed=args.seed,
                      profile=args.profile)
        print(DETAIL_PREFIX + json.dumps(result))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


# -- a set of runs (subprocesses) -------------------------------------------

def _child(workload: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; return its detail."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--profile", args.profile, "--detail",
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
    if done.returncode != 0 or detail is None or not detail["correct"]:
        raise SystemExit(
            f"run.py: {workload} (trace={trace}) failed its checks "
            f"(exit {done.returncode}); nothing recorded"
        )
    return detail


def _spread(values: list) -> dict:
    """Median and quartiles of one host-time metric over the repeats."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def summarise(workload: str, repeats: list) -> dict:
    """Fold the repeats of one workload into its result record."""
    first = repeats[0]
    end_to_end = {
        name: dict(_spread([r["end_to_end"][name] for r in repeats]),
                   unit=unit, kind="host")
        for name, unit in END_TO_END
    }
    for name, value in first["specific"].items():
        unit, kind = SPECIFIC_E2E[name]
        values = [r["specific"][name] for r in repeats]
        if kind == "sim" and any(v != value for v in values):
            raise SystemExit(
                f"run.py: {workload}: {name} differs between repeats of one "
                f"seed ({values}); nothing recorded")
        end_to_end[name] = dict(_spread(values), unit=unit, kind=kind)
    for n, other in enumerate(repeats[1:], start=2):
        if other["digest"] != first["digest"] \
                or other["counters"] != first["counters"]:
            raise SystemExit(
                f"run.py: {workload}: repeat {n} differs from repeat 1 in "
                "outcome digest or counters; nothing recorded")
    return {
        "seed": first["seed"], "profile": first["profile"],
        "repeats": len(repeats),
        "iterations_per_repeat": [r["iterations"] for r in repeats],
        "sizes": first["sizes"], "samples": first["samples"],
        "outcome_digest": first["digest"],
        "attempted": first["attempted"], "failed": first["failed"],
        "end_to_end": end_to_end,
        "counters": first["counters"],
    }


def stamp() -> dict:
    """Where and on what the numbers were measured."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    import numpy
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def run_set(args, names: list) -> dict:
    """K repeats of each workload, interleaved round-robin."""
    repeats = {name: [] for name in names}
    for k in range(args.repeats):
        for name in names:
            print(f"[{k + 1}/{args.repeats}] {name} ...", file=sys.stderr,
                  flush=True)
            repeats[name].append(_child(name, args, trace=0))
    return {
        "stamp": stamp(),
        "workloads": {name: summarise(name, repeats[name]) for name in names},
    }


def print_set(result: dict) -> None:
    for name, record in result["workloads"].items():
        print(f"\n{name}  seed={record['seed']} "
              f"profile={record['profile']} repeats={record['repeats']}")
        print(f"  outcome_digest  {record['outcome_digest'][:16]}…  "
              f"attempted={record['attempted']} failed={record['failed']}")
        for metric, row in record["end_to_end"].items():
            spread = "" if row["kind"] == "sim" else \
                f"   [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]"
            print(f"  {metric:26} {row['median']:>14.6g} {row['unit']:<6} "
                  f"({row['kind']}){spread}")


def trace_set(args, names: list, result: dict) -> None:
    """The traced pass: prints the per-layer table, files it under each
    workload's record, and writes the spans to ``results/trace_<w>.json``."""
    for name in names:
        print(f"[trace] {name} ...", file=sys.stderr, flush=True)
        detail = _child(name, args, trace=1)
        record = result["workloads"][name]
        if detail["digest"] != record["outcome_digest"]:
            raise SystemExit(f"run.py: {name}: traced digest differs from "
                             "the untraced runs; nothing recorded")
        trace = detail["trace"]
        record["per_layer"] = detail["per_layer"]
        record["trace"] = {key: trace[key] for key in (
            "wall_s", "untraced_wall_s", "span_budget_s", "driver_threads",
            "rows_sum_s", "residual_layer", "unresolved_boundaries")}
        if not args.quick:
            _write(RESULTS / _file_name(f"trace_{name}", args), {
                "stamp": result["stamp"], "workload": name,
                "seed": args.seed, "profile": args.profile,
                "outcome_digest": detail["digest"],
                "per_layer": detail["per_layer"], **trace,
            })
        budget = trace["span_budget_s"]
        print(f"\n{name}: traced {trace['wall_s']:.3f} s (untraced "
              f"{trace['untraced_wall_s']:.3f} s); rows sum to "
              f"{trace['rows_sum_s']:.3f} s of {budget:.3f} s timed on "
              f"{trace['driver_threads']} driving thread(s)")
        rows = [(key[:-len(".self_s")], value)
                for key, value in detail["per_layer"].items()
                if key.endswith(".self_s") and value]
        for layer, self_s in sorted(rows, key=lambda row: -row[1]):
            calls = detail["per_layer"][f"{layer}.calls"]
            print(f"  {layer:24} {self_s:9.3f} s  {self_s / budget:6.1%}"
                  f"  {calls:>9} calls")


def _file_name(stem: str, args) -> str:
    return f"{stem}.json" if args.profile == "default" \
        else f"{stem}.{args.profile}.json"


def _write(path: Path, record: dict) -> None:
    """Indented JSON, except the raw spans: one span per line."""
    spans = record.pop("spans", None)
    text = json.dumps(record, indent=1, sort_keys=True)
    if spans is not None:
        lines = ",\n  ".join(json.dumps(span) for span in spans)
        text = f'{text[:-2]},\n "spans": [\n  {lines}\n ]\n}}'
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    print(f"[wrote {path.relative_to(ROOT)}]", file=sys.stderr)


def run_sets(args) -> int:
    _import_system()
    from workloads import WORKLOADS
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.quick:
        args.repeats, args.seconds = 1, 0
    first = run_set(args, names)
    print_set(first)
    status = 0
    if args.check_repeat:
        import compare
        rows = compare.compare(first, run_set(args, names))
        compare.report(rows)
        status = 1 if any(row[2] != "ok" for row in rows) else 0
    if args.trace:
        trace_set(args, names, first)
    if args.quick:       # a quick run is never a baseline
        return status
    if args.profile != "default":
        _write(RESULTS / f"{args.profile}.json", first)
    else:
        for name in names:
            _write(RESULTS / f"{name}.json", {
                "stamp": first["stamp"],
                "workloads": {name: first["workloads"][name]},
            })
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one run in this process for this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="0/1: install the tracing shims")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--profile", choices=("default", "all_fast"),
                        default="default")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 8, one repeat, nothing written")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets and compare them")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return run_one(args)
    args.seconds = DEFAULT_SECONDS
    return run_sets(args)


if __name__ == "__main__":
    sys.exit(main())
