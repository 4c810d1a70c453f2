"""CI perf smoke: remeasure the committed baselines, fail on a cliff.

Remeasures the 32-node S1 simulator throughput (simulated hours per
wall second), the 1000-offer indexed trader query rate, the plain
collocated two-way and oneway call rates (E11's bound stub), the 1024-node
S2 pattern-aware ranking rate, the 10k-node S3 information-plane run,
the 256-cluster S5 wide-area run, and the S6 oneway-storm / CDR / TCP
communication-plane run (reusing the benchmark modules' own builders,
so the measured workload cannot drift from what produced the
baseline), then compares against the committed
``BENCH_S1.json`` / ``BENCH_E11.json`` / ``BENCH_S2.json`` /
``BENCH_S3.json`` / ``BENCH_S5.json`` / ``BENCH_S6.json``.  A drop of
more than ``TOLERANCE`` fails the build.  Every row is wall-clock
against its own baseline: S3 is the GRM's updates/s taking in
statuses and heartbeats from 10k nodes, S5 the parent's wide-area
submits/s over 256 clusters, S6 the collocated storm, CDR decode and
the two TCP rows (oneway msgs/s, threaded two-way calls/s), each best
of three.  The execution plane (checkpoint store, BSP comms) has no
row here: S0 ``bsp_checkpoint`` measures it.

The 30 % margin absorbs runner-to-runner noise; the regressions this
guards against — losing an index, falling off a compiled path, an
accidentally quadratic event loop — are 2–6× cliffs, not 30 %.

Run from the repo root:  PYTHONPATH=src python benchmarks/perf_smoke.py
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from bench_e11_orb import (          # noqa: E402
    TRADER_CONSTRAINT,
    TRADER_PREFERENCE,
    _best_rate,
    build_trader,
    measure_collocated,
)
from bench_s1_simulator_throughput import (  # noqa: E402
    build,
    measure_hour,
    timed_hour,
)
from bench_s3_information_plane import (  # noqa: E402
    measure_information_plane,
)
from bench_s5_wide_area import measure_wide_area  # noqa: E402
from bench_s6_comm_plane import (  # noqa: E402
    measure_cdr,
    measure_storm,
    measure_tcp_oneway,
    measure_tcp_twoway,
)
from bench_s2_scheduler_throughput import (  # noqa: E402
    _best_pass_s,
    build_workload,
    make_ctx,
)
from repro.core.scheduler import PatternAwarePolicy  # noqa: E402

from conftest import load_json       # noqa: E402

TOLERANCE = 0.30
#: Always-on metrics must cost no more than this fraction of S1
#: throughput (simulated hours per wall second).  The registry is
#: views-only on the S1 path (evaluated at snapshot time, never per
#: event), so the real cost is ~0; the gate catches someone
#: accidentally putting allocation or formatting onto the hot path.
METRICS_TOLERANCE = 0.05
#: The event journal with all emitters live must also cost no more than
#: this fraction of S1 throughput.  Journal records are a handful of
#: attribute stores behind one guard check; the gate catches anyone
#: putting per-event formatting or unbounded growth onto the hot path.
JOURNAL_TOLERANCE = 0.05


def measure_overhead(instrument, nodes=32, best_of=9):
    """Best simulated hours per wall second: plain vs instrumented.

    ``instrument(grid)`` switches the instrument on.  The two grids are
    measured interleaved, round by round, so machine drift during the
    run biases both configurations equally; best-of rides out transient
    noise the same way ``measure_hour`` does (a 32-node hour is ~8 ms
    of wall clock, so nine rounds cost what three used to).
    """
    plain = build(nodes)
    instrumented = build(nodes)
    instrument(instrumented)
    fastest = [float("inf"), float("inf")]
    for _ in range(best_of):
        for i, grid in enumerate((plain, instrumented)):
            _events, elapsed = timed_hour(grid)
            fastest[i] = min(fastest[i], elapsed)
    return 1.0 / fastest[0], 1.0 / fastest[1], instrumented


def measure_metrics_overhead():
    def instrument(grid):
        grid.enable_metrics()
        assert grid.tracer is None, "tracing must stay opt-in"

    plain, metered, grid = measure_overhead(instrument)
    # The registry really was live the whole time.
    assert grid.metrics.snapshot()["metrics"]["eventloop.events_fired"] > 0
    return plain, metered


def measure_journal_overhead():
    def instrument(grid):
        grid.enable_journal()
        assert grid.metrics is None, "metrics must stay opt-in"

    plain, journalled, grid = measure_overhead(instrument)
    # The journal really was live (node registrations at minimum).
    assert grid.journal.recorded > 0
    return plain, journalled


def check(name, measured, baseline, unit="/s"):
    floor = baseline * (1.0 - TOLERANCE)
    ok = measured >= floor
    verdict = "ok" if ok else "REGRESSION"
    print(f"{name}: measured {measured:,.0f}{unit}, "
          f"baseline {baseline:,.0f}{unit}, "
          f"floor {floor:,.0f}{unit} -> {verdict}")
    return ok


def main():
    failures = 0

    s1 = load_json("S1")
    if s1 is None:
        print("no BENCH_S1.json baseline committed; skipping S1 smoke")
    else:
        baseline = next(
            row["sim_hours_per_wall_s"] for row in s1["rows"]
            if row["nodes"] == 32
        )
        _, rate = measure_hour(32)
        failures += not check(
            "S1 simulated hours (32 nodes)", rate, baseline,
            unit=" sim-h/s",
        )

    e11 = load_json("E11")
    if e11 is None:
        print("no BENCH_E11.json baseline committed; skipping E11 smoke")
    else:
        svc, _ = build_trader(e11["trader_offers"])
        args = ("node", TRADER_CONSTRAINT, TRADER_PREFERENCE, 10)
        qps = _best_rate(lambda: svc.query(*args))
        failures += not check(
            "E11 trader queries", qps, e11["trader_indexed_queries_per_s"]
        )
        collocated = measure_collocated()
        for kind in ("twoway", "oneway"):
            row = f"collocated_{kind}_calls_per_s"
            failures += not check(
                f"E11 plain collocated {kind} calls", collocated[row], e11[row]
            )

    s2 = load_json("S2")
    if s2 is None:
        print("no BENCH_S2.json baseline committed; skipping S2 smoke")
    else:
        baseline = next(
            row["offers_ranked_per_s"] for row in s2["rows"]
            if row["nodes"] == 1024 and row["policy"] == "pattern_aware"
        )
        gupa, offers, _ = build_workload(1024)
        policy = PatternAwarePolicy()
        pass_s = _best_pass_s(lambda: policy.order(offers, make_ctx(gupa)))
        failures += not check(
            "S2 pattern-aware ranking (1024 nodes)", 1024 / pass_s, baseline
        )

    s3 = load_json("S3")
    if s3 is None:
        print("no BENCH_S3.json baseline committed; skipping S3 smoke")
    else:
        baseline = next(
            row["updates_per_wall_s"] for row in s3["rows"]
            if row["nodes"] == 10_000
        )
        failures += not check(
            "S3 update ingest (10k nodes)",
            measure_information_plane(10_000)["updates_per_wall_s"], baseline,
        )

    s5 = load_json("S5")
    if s5 is None:
        print("no BENCH_S5.json baseline committed; skipping S5 smoke")
    else:
        baseline = next(
            row["submits_per_wall_s"] for row in s5["rows"]
            if row["clusters"] == 256
        )
        failures += not check(
            "S5 wide-area submits (256 clusters)",
            measure_wide_area(256)["submits_per_wall_s"], baseline,
        )

    s6 = load_json("S6")
    if s6 is None:
        print("no BENCH_S6.json baseline committed; skipping S6 smoke")
    else:
        failures += not check(
            "S6 collocated oneway storm",
            measure_storm()["calls_per_wall_s"],
            s6["storm"]["calls_per_wall_s"],
        )
        failures += not check(
            "S6 CDR decode (64 KiB chunk records)",
            measure_cdr()["decode_records_per_s"],
            s6["cdr"]["decode_records_per_s"],
        )
        # Wall-clock on a real socket; both are best-of-three inside.
        failures += not check(
            "S6 TCP oneway delivery (1 connection)",
            measure_tcp_oneway()["calls_per_wall_s"],
            s6["tcp_oneway"]["calls_per_wall_s"],
        )
        failures += not check(
            "S6 TCP two-way calls (8 threads, 1 connection)",
            measure_tcp_twoway()["calls_per_wall_s"],
            s6["tcp_twoway"]["calls_per_wall_s"],
        )

    plain_rate, metered_rate = measure_metrics_overhead()
    ratio = metered_rate / plain_rate if plain_rate else 0.0
    ok = ratio >= 1.0 - METRICS_TOLERANCE
    verdict = "ok" if ok else "REGRESSION"
    print(f"S1 metrics overhead (32 nodes): plain {plain_rate:,.1f} sim-h/s, "
          f"metrics-on {metered_rate:,.1f} sim-h/s, ratio {ratio:.3f} "
          f"(floor {1.0 - METRICS_TOLERANCE:.2f}) -> {verdict}")
    failures += not ok

    plain_rate, journal_rate = measure_journal_overhead()
    ratio = journal_rate / plain_rate if plain_rate else 0.0
    ok = ratio >= 1.0 - JOURNAL_TOLERANCE
    verdict = "ok" if ok else "REGRESSION"
    print(f"S1 journal overhead (32 nodes): plain {plain_rate:,.1f} sim-h/s, "
          f"journal-on {journal_rate:,.1f} sim-h/s, ratio {ratio:.3f} "
          f"(floor {1.0 - JOURNAL_TOLERANCE:.2f}) -> {verdict}")
    failures += not ok

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
