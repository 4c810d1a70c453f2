"""S2 — scheduler ranking throughput (product path vs scalar-oracle).

The paper's pattern-aware scheduler must rank every candidate node each
pass; at grid scale that ranking is the hot path (see PAPERS.md on
resource-broker matchmaking throughput).  This benchmark measures one
schedule-pass ranking — ``PatternAwarePolicy.order()`` over N offers
against a GUPA holding learned weekly patterns — for the product path
and for the seed implementation (``tests/oracles/scheduler.py``, which
scores each offer from its uploaded pattern dict), at 64/256/1024
nodes with spans of up to ~16 bins, and at 48 nodes with spans of one
or two bins: a pool in ``submit_storm``'s shape.  The product path picks
numpy or a per-offer loop from the input's size (``SCALAR_MAX_CELLS``):
the long-span rows from 256 nodes up take numpy, the short-span row the
loop.  (Fastest-first is a five-line ``sorted()`` with no second
implementation to compare.)

Reported per row: pass latency (ms), offers ranked per second, and the
product-over-oracle speedup; every row first checks its order against
the oracle's.  The committed ``BENCH_S2.json`` is the baseline the CI
perf smoke compares against (the 1024-node row, which must show >= 5x,
and the short-span row).
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

#: ``submit_storm``'s pool shape: 48 offers whose spans (1.8e6 MI at
#: 750-2000 MIPS: 900-2400 s, from 10 minutes into a half-hour bin)
#: cover one bin or two.
SHORT_SPAN = {
    "nodes": 48, "mips": (1000.0, 2000.0), "cpu_free": (0.75, 1.0),
    "now": 10 * 3600.0 + 600.0, "work": 1.8e6,
}


def build_workload(n_nodes, seed=42, mips=(500.0, 1000.0, 2000.0, 4000.0),
                   cpu_free=(0.25, 0.5, 0.75, 1.0)):
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
            "mips": float(rng.choice(mips)),
            "cpu_free": float(rng.choice(cpu_free)),
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


def measure(n_nodes, shape=None):
    """Product vs oracle pattern-aware ranking at ``n_nodes``; ``shape``
    (:data:`SHORT_SPAN`) overrides the offers and the context."""
    shape = shape or {}
    offer_kwargs = {k: shape[k] for k in ("mips", "cpu_free") if k in shape}
    ctx_kwargs = {k: shape[k] for k in ("now", "work") if k in shape}
    gupa, offers, uploaded = build_workload(n_nodes, **offer_kwargs)
    policy = PatternAwarePolicy()

    def oracle_order(ctx):
        return scheduler_oracle.order(policy, offers, ctx, uploaded)

    # Equivalence first: same GUPA, same offers, identical order.
    ctx = make_ctx(gupa, **ctx_kwargs)
    vec_order = [o["node"] for o in policy.order(offers, ctx)]
    scalar_order = [o["node"] for o in oracle_order(ctx)]
    assert vec_order == scalar_order, (
        f"{policy.name}: product order diverged at {n_nodes} nodes"
    )
    # Fresh context per pass, as the GRM does per job.
    vec_s = _best_pass_s(
        lambda: policy.order(offers, make_ctx(gupa, **ctx_kwargs))
    )
    scalar_s = _best_pass_s(
        lambda: oracle_order(make_ctx(gupa, **ctx_kwargs)), calls=1
    )
    row = {
        "nodes": n_nodes,
        "policy": policy.name,
        "vector_pass_ms": vec_s * 1e3,
        "scalar_pass_ms": scalar_s * 1e3,
        "offers_ranked_per_s": n_nodes / vec_s,
        "speedup": scalar_s / vec_s,
    }
    if shape:
        row["spans"] = "1-2 bins"
    return row


def run_experiment():
    table = Table(
        ["nodes", "spans", "policy", "product pass (ms)",
         "scalar pass (ms)", "offers ranked/s", "speedup"],
        title="S2: schedule-pass ranking throughput",
    )
    all_rows = []
    for row in [measure(n) for n in SIZES] + [
        measure(SHORT_SPAN["nodes"], SHORT_SPAN)
    ]:
        all_rows.append(row)
        table.add_row(
            row["nodes"], row.get("spans", "up to 16 bins"), row["policy"],
            row["vector_pass_ms"], row["scalar_pass_ms"],
            row["offers_ranked_per_s"], row["speedup"],
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
