"""S2 — scheduler ranking throughput (vectorized vs scalar-oracle).

The paper's pattern-aware scheduler must rank every candidate node each
pass; at grid scale that ranking is the hot path (see PAPERS.md on
resource-broker matchmaking throughput).  This benchmark measures one
schedule-pass ranking — ``PatternAwarePolicy.order()`` over N offers
against a GUPA holding learned weekly patterns — for the vectorized path
and for the seed implementation (``tests/oracles/scheduler.py``, which
scores each offer from its uploaded pattern dict), at 64/256/1024
nodes.  (Fastest-first is a five-line ``sorted()`` with no
second implementation to compare.)

Reported per size: pass latency (ms), offers ranked per second, and the
vectorized-over-scalar speedup.  The committed ``BENCH_S2.json`` is the
baseline the CI perf smoke compares against; the 1024-node pattern-aware
row must show >= 5x.
"""

import time

import numpy as np

from repro.analysis.metrics import Table
from repro.apps.spec import ApplicationSpec
from repro.core.gupa import Gupa
from repro.core.scheduler import PatternAwarePolicy, ScheduleContext

from conftest import run_once, save_json, save_result
from tests.oracles import scheduler as scheduler_oracle

SIZES = (64, 256, 1024)
BINS_PER_DAY = 48                 # the LUPA default
PATTERNLESS_FRACTION = 0.1        # nodes still learning -> UNKNOWN path
SPEEDUP_TARGET = 5.0


def build_workload(n_nodes, seed=42):
    """A GUPA with learned patterns, one offer per node, and the pattern
    dict uploaded for each node that has one."""
    rng = np.random.default_rng(seed)
    gupa = Gupa()
    offers = []
    uploaded = {}
    for i in range(n_nodes):
        node = f"n{i:04d}"
        if rng.random() >= PATTERNLESS_FRACTION:
            weekly = rng.random((7, BINS_PER_DAY))
            uploaded[node] = {
                "bins_per_day": BINS_PER_DAY, "weekly": weekly.tolist(),
            }
            gupa.upload_pattern(node, uploaded[node])
        offers.append({
            "node": node,
            "mips": float(rng.choice([500.0, 1000.0, 2000.0, 4000.0])),
            "cpu_free": float(rng.choice([0.25, 0.5, 0.75, 1.0])),
            "mem_free_mb": 512.0,
            "sharing": True,
        })
    return gupa, offers, uploaded


def make_ctx(gupa, now=10 * 3600.0, work=3.6e6):
    return ScheduleContext(
        spec=ApplicationSpec(name="s2", work_mips=work),
        remaining_mips=work,
        now=now,
        gupa=gupa,
    )


def _best_pass_s(fn, rounds=5, calls=3):
    """Best-of-N seconds per call (rides out machine noise)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / calls)
    return best


def measure(n_nodes):
    """Vectorized vs scalar pattern-aware ranking at ``n_nodes``."""
    gupa, offers, uploaded = build_workload(n_nodes)
    policy = PatternAwarePolicy()

    def oracle_order(ctx):
        return scheduler_oracle.order(policy, offers, ctx, uploaded)

    # Equivalence first: same GUPA, same offers, identical order.
    ctx = make_ctx(gupa)
    vec_order = [o["node"] for o in policy.order(offers, ctx)]
    scalar_order = [o["node"] for o in oracle_order(ctx)]
    assert vec_order == scalar_order, (
        f"{policy.name}: vectorized order diverged at {n_nodes} nodes"
    )
    # Fresh context per pass, as the GRM does per job.
    vec_s = _best_pass_s(
        lambda: policy.order(offers, make_ctx(gupa))
    )
    scalar_s = _best_pass_s(lambda: oracle_order(make_ctx(gupa)), calls=1)
    return {
        "nodes": n_nodes,
        "policy": policy.name,
        "vector_pass_ms": vec_s * 1e3,
        "scalar_pass_ms": scalar_s * 1e3,
        "offers_ranked_per_s": n_nodes / vec_s,
        "speedup": scalar_s / vec_s,
    }


def run_experiment():
    table = Table(
        ["nodes", "policy", "vector pass (ms)", "scalar pass (ms)",
         "offers ranked/s", "speedup"],
        title="S2: schedule-pass ranking throughput",
    )
    all_rows = []
    for n_nodes in SIZES:
        row = measure(n_nodes)
        all_rows.append(row)
        table.add_row(
            row["nodes"], row["policy"], row["vector_pass_ms"],
            row["scalar_pass_ms"], row["offers_ranked_per_s"],
            row["speedup"],
        )
    return table, all_rows


def test_s2_scheduler_throughput(benchmark):
    table, rows = run_once(benchmark, run_experiment)
    save_result("s2_scheduler_throughput", table.render())
    save_json("S2", {
        "experiment": "s2_scheduler_throughput",
        "bins_per_day": BINS_PER_DAY,
        "patternless_fraction": PATTERNLESS_FRACTION,
        "rows": rows,
    })
    at_scale = next(
        r for r in rows
        if r["nodes"] == 1024 and r["policy"] == "pattern_aware"
    )
    assert at_scale["speedup"] >= SPEEDUP_TARGET, (
        f"pattern-aware ranking at 1024 nodes only "
        f"{at_scale['speedup']:.1f}x over the scalar oracle"
    )
