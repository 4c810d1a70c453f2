"""compare.py A.json B.json — is B worse than A?

Both files are results written by ``run.py`` (``results/<workload>.json``,
``results/all_fast.json`` or any set of them with the same shape).  For
every end-to-end metric of every workload the two share, B's median may
be worse than A's by at most the metric's bound:

* ``ok``          within the bound, and the runs are steady enough to say so
* ``unresolved``  within the bound, but the spread between quartiles of
                  either side is wider than the bound: not "unchanged"
* ``regressed``   worse by more than the bound

Exit code 1 if anything regressed (or an outcome digest changed for
the same seed and profile).  The bounds of the five metrics every
workload reports come from ``BENCHMARK.json``; the bounds of the
workload-specific ones are fixed here.  Every metric is lower-is-better.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Workload-specific end-to-end metrics: the share of A's median by
#: which B may be worse.  Simulated-time numbers are deterministic for a
#: seed, so 1 % means "the schedule changed".
SPECIFIC_BOUNDS = {
    "sim_job_latency_p50_s": 0.01,
    "sim_job_latency_p95_s": 0.01,
    "restore_p50_ms": 0.20,
    "failed_ratio": 0.0,
}

#: A relative bound on a tiny base is noise: a metric may also worsen by
#: this much in its own unit before it counts.
ABSOLUTE_SLACK = {"setup_s": 0.05, "failed_ratio": 0.0}


def load_bounds() -> dict:
    """``metric -> relative bound`` for every end-to-end metric."""
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    bounds.update(SPECIFIC_BOUNDS)
    return bounds


def verdict(metric: str, a: dict, b: dict, bound: float) -> tuple:
    """``(verdict, relative change, relative spread)`` for one metric."""
    base = a["median"]
    allowed = max(bound * abs(base), ABSOLUTE_SLACK.get(metric, 0.0))
    worse = b["median"] - base
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    scale = abs(base) if base else 1.0
    if worse > allowed:
        result = "regressed"
    elif spread > allowed:
        result = "unresolved"
    else:
        result = "ok"
    return result, worse / scale, spread / scale


def compare(a: dict, b: dict) -> list:
    """Rows ``(workload, metric, verdict, change, spread, bound)``, plus
    a ``changed`` row for a workload whose outcome digest moved although
    seed and profile did not."""
    bounds = load_bounds()
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        left, right = a["workloads"][workload], b["workloads"][workload]
        same_inputs = all(left[k] == right[k] for k in ("seed", "profile"))
        if same_inputs and left["outcome_digest"] != right["outcome_digest"]:
            rows.append((workload, "outcome_digest", "changed", 0.0, 0.0, 0.0))
        for metric, row in left["end_to_end"].items():
            if metric not in right["end_to_end"]:
                continue
            result, change, spread = verdict(
                metric, row, right["end_to_end"][metric], bounds[metric])
            rows.append((workload, metric, result, change, spread,
                         bounds[metric]))
    return rows


def report(rows: list) -> None:
    """Print the comparison table and the count of each verdict."""
    print(f"\n{'workload':16} {'metric':24} {'verdict':11} "
          f"{'change':>8} {'spread':>8} {'bound':>7}")
    for workload, metric, result, change, spread, bound in rows:
        print(f"{workload:16} {metric:24} {result:11} "
              f"{change:+8.1%} {spread:8.1%} {bound:7.0%}")
    print("\n" + ", ".join(
        f"{sum(1 for r in rows if r[2] == v)} {v}"
        for v in ("ok", "unresolved", "regressed", "changed")))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path) as handle:
            sides.append(json.load(handle))
    rows = compare(*sides)
    report(rows)
    return 1 if any(r[2] in ("regressed", "changed") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
