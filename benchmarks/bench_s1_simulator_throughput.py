"""S1 — substrate throughput (infrastructure benchmark, not a paper
experiment).

How much simulated grid a second of wall clock buys, as a function of
cluster size — the number that decides what experiment scales are
practical.  pytest-benchmark times one simulated hour of a fully wired
cluster (owners, LRMs, updates, LUPA sampling all active).

The scaling test records that number — simulated hours per wall second,
per cluster size — into ``BENCH_S1.json`` (with ``--bench-json``); each
row is best-of-N to ride out machine noise, and the committed file is
the CI perf baseline.  Events/s is reported next to it but gates
nothing: it is a proxy that *falls* when the simulator gets faster by
not firing events at all (an idle LRM has none), which is how the
system is meant to get faster.
"""

import time

from repro import Grid
from repro.analysis.metrics import Table
from repro.core.ncc import VACATE_POLICY
from repro.sim.clock import SECONDS_PER_HOUR
from repro.sim.usage import OFFICE_WORKER

from conftest import save_json, save_result

SCALING_NODES = (8, 32, 128)
BEST_OF = 5


def build(nodes, seed=1):
    grid = Grid(seed=seed, policy="pattern_aware", lupa_enabled=True,
                update_interval=60.0)
    grid.add_cluster("c0")
    for i in range(nodes):
        grid.add_node("c0", f"n{i:03}", profile=OFFICE_WORKER,
                      sharing=VACATE_POLICY)
    grid.run_for(60)
    return grid


def simulate_one_hour(grid):
    grid.run_for(SECONDS_PER_HOUR)
    return grid.loop.events_fired


def timed_hour(grid):
    """(events fired, wall seconds) for one more simulated hour."""
    before = grid.loop.events_fired
    start = time.perf_counter()
    grid.run_for(SECONDS_PER_HOUR)
    elapsed = time.perf_counter() - start
    return grid.loop.events_fired - before, elapsed


def measure_hour(nodes, best_of=BEST_OF):
    """(events in the last simulated hour, best simulated hours per wall
    second over best_of consecutive hours)."""
    grid = build(nodes)
    events, fastest = 0, float("inf")
    for _ in range(best_of):
        events, elapsed = timed_hour(grid)
        fastest = min(fastest, elapsed)
    return events, 1.0 / fastest


def test_s1_throughput_16_nodes(benchmark):
    grid = build(16)
    events = benchmark.pedantic(
        simulate_one_hour, args=(grid,), rounds=3, iterations=1
    )
    assert events > 0


def test_s1_throughput_64_nodes(benchmark):
    grid = build(64)
    events = benchmark.pedantic(
        simulate_one_hour, args=(grid,), rounds=3, iterations=1
    )
    assert events > 0


def test_s1_sim_hours_scaling(benchmark):
    """Wall clock per simulated hour scales linearly with nodes."""
    def measure():
        table = Table(
            ["nodes", "sim hours per wall s", "events per simulated hour",
             "events/s (wall, not gated)"],
            title="S1: simulated hours per wall second (fully wired nodes)",
        )
        volumes = {}
        rates = {}
        for nodes in SCALING_NODES:
            volumes[nodes], rates[nodes] = measure_hour(nodes)
            table.add_row(nodes, f"{rates[nodes]:,.1f}", volumes[nodes],
                          f"{volumes[nodes] * rates[nodes]:,.0f}")
        return table, volumes, rates

    table, volumes, rates = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_result("s1_simulator_throughput", table.render(), table=table)
    save_json("S1", {
        "experiment": "s1_simulator_throughput",
        "best_of": BEST_OF,
        "rows": [
            {
                "nodes": nodes,
                "sim_hours_per_wall_s": round(rates[nodes], 2),
                "events_per_sim_hour": volumes[nodes],
                "events_per_wall_s": round(volumes[nodes] * rates[nodes], 1),
            }
            for nodes in SCALING_NODES
        ],
    })
    # 4x the nodes costs ~4x the wall clock per simulated hour: wide
    # enough for this box's noise, tight enough to catch a quadratic
    # (16x) or a fixed cost that swamps the nodes (1x).
    assert 2.0 < rates[8] / rates[32] < 8.0
    assert 2.0 < rates[32] / rates[128] < 8.0
