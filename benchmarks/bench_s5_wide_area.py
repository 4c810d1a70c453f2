"""S5 — wide-area-plane scaling (infrastructure benchmark).

The paper's scalability story rests on the inter-cluster hierarchy
(Section 4: clusters "arranged in a hierarchy, allowing a single
InteGrade grid to encompass millions of machines"), but the seed
ParentGrm re-ships full summaries every interval, recomputes
O(children) aggregates per uplink, and scans + sorts every child per
wide-area submit.  This benchmark federates hundreds of clusters
(25k–100k simulated nodes) against a *real* ParentGrm over a real ORB
in three configurations:

* ``seed``          — the seed wide-area plane: full summaries every
  interval, scan-and-sort placement, O(children) aggregation.
* ``indexed``       — incremental aggregation + the free-CPU placement
  index; summary traffic unchanged, so placements must be bit-identical
  to seed (same data, purely algorithmic win — the digest gate).
* ``indexed+delta`` — the same, plus DeltaSender uplinks: changed-field
  deltas, heartbeat suppression with adaptive throttling, periodic full
  refresh (the bytes gate).

Child clusters are synthetic summary generators over one fake GRM-shaped
servant per cluster (building 256 full 100-node stacks would measure the
simulator, not the wide-area protocol — the S3 precedent).  Workload per
round: ``CHURN_PERIOD``-th of the clusters move their spare-CPU figure
(exact 0.25-grid values, so incremental running sums stay bit-equal to
the oracle), summaries flow, then a burst of ``submit_remote`` calls
arrives — mostly probes that no cluster can host (the hot case: wide-area
submission happens exactly when local clusters are full), a fraction
placeable.  Uplink bytes are accumulated only around the summary phase;
submit cost only around the submit phase, measured at the parent servant
(the caller→parent request marshalling is byte-identical in every mode
and already characterised by E11; dials to children go through real
stubs and are included).

Rows land in ``BENCH_S5.json`` with ``--bench-json``; the committed file
is the CI baseline and the gates (>= 5x submit-path cost down and >= 3x
uplink bytes down at 256 clusters, seed/indexed placement digests
identical, delta-mode candidates equal to the seed ranking oracle on the
same state) re-run in ``perf_smoke.py``.
"""

import hashlib
import time

from repro.core.hierarchy import ParentGrm
from repro.core.protocols import GRM_INTERFACE, PARENT_GRM_INTERFACE
from repro.core.update_protocol import FULL, DeltaSender
from repro.orb import Orb, WireMeter
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop
from repro.analysis.metrics import Table

from conftest import save_json, save_result

SCALING_CLUSTERS = (64, 256)
NODES_PER_CLUSTER = 100
MODES = ("seed", "indexed", "indexed+delta")
ROUNDS = 36                     # simulated summary intervals per run
BASE_INTERVAL = 300.0
MAX_INTERVAL = 8 * BASE_INTERVAL
FULL_REFRESH_EVERY = 10
CHURN_PERIOD = 20               # 5% of the clusters change per round
SUBMITS_PER_ROUND = 64
PLACEABLE_EVERY = 128           # 1/128 of submits can actually be hosted
ORACLE_EVERY = 16               # delta-mode submits checked vs the oracle
AGG_PROBES = 5000               # aggregate_summary() calls timed at the end


class SummaryOnlyChildGrm:
    """GRM-shaped servant: accepts wide-area submits, nothing else runs."""

    def __init__(self, name):
        self.name = name
        self.submitted = 0

    def submit(self, spec):
        self.submitted += 1
        return f"{self.name}/job-{self.submitted}"

    def job_status(self, job_id):
        return {"state": "running"}

    def cancel_job(self, job_id):
        pass

    def register_node(self, status, lrm_ior):
        pass

    def unregister_node(self, node):
        pass

    def send_update(self, status):
        pass

    def send_delta(self, node, delta):
        pass

    def heartbeat(self, node):
        pass

    def register_asct(self, job_id, asct_ior):
        pass

    def task_completed(self, node, task_id, result):
        pass

    def task_evicted(self, node, task_id, progress, resume):
        pass

    def task_reached_limit(self, node, task_id):
        pass


def cluster_summary(i, now=0.0):
    """Synthetic per-cluster aggregate; floats on the exact 0.25 grid."""
    return {
        "cluster": f"c{i:04}",
        "time": now,
        "nodes": NODES_PER_CLUSTER,
        "sharing_nodes": NODES_PER_CLUSTER - (i % 5),
        "free_cpu_total": 40.0 + (i % 16) * 1.25,
        "free_mem_total_mb": 256.0 * NODES_PER_CLUSTER,
        "max_node_mips": 1000.0 + (i % 7) * 250.0,
        "pending_tasks": i % 3,
    }


def make_specs():
    """(placeable, unplaceable) submit payloads, prebuilt once.

    The unplaceable probe asks for more aggregate CPU than any cluster
    advertises — the hot wide-area case: every local cluster is full and
    callers probe the federation.  Seed placement pays a full parse +
    scan + sort to find that out; the index answers from its first entry.
    """
    from repro.apps.spec import ApplicationSpec
    placeable = ApplicationSpec(name="wide", tasks=4, work_mips=1e5).to_dict()
    unplaceable = ApplicationSpec(
        name="probe", tasks=200, work_mips=1e5
    ).to_dict()
    return placeable, unplaceable


def build_plane(clusters, mode):
    """A registered ParentGrm + client stubs + per-cluster sender state."""
    domain = InProcDomain()
    server_orb = Orb("parent-orb", domain=domain)
    child_orb = Orb("children-orb", domain=domain)
    parent = ParentGrm(
        EventLoop(), server_orb, name="root",
        incremental_aggregation=(mode != "seed"),
        indexed_placement=(mode != "seed"),
    )
    parent_ior = server_orb.activate(
        parent, PARENT_GRM_INTERFACE, key="root/parent"
    ).to_string()
    uplink_stub = child_orb.stub(parent_ior, PARENT_GRM_INTERFACE)

    summaries = [cluster_summary(i) for i in range(clusters)]
    for i, summary in enumerate(summaries):
        child_ior = child_orb.activate(
            SummaryOnlyChildGrm(summary["cluster"]), GRM_INTERFACE,
            key=f"{summary['cluster']}/grm",
        ).to_string()
        uplink_stub.register_cluster(dict(summary), child_ior)

    senders = None
    next_due = None
    if mode == "indexed+delta":
        senders = []
        for summary in summaries:
            sender = DeltaSender(
                BASE_INTERVAL, full_refresh_every=FULL_REFRESH_EVERY,
                max_interval=MAX_INTERVAL,
            )
            sender.register(summary)
            senders.append(sender)
        next_due = [BASE_INTERVAL] * clusters
    return (server_orb, child_orb, parent, uplink_stub,
            summaries, senders, next_due)


def _oracle_order(parent, spec_dict, origin):
    """Seed ranking on the parent's *current* state (the placement oracle)."""
    from repro.apps.spec import ApplicationSpec
    spec = ApplicationSpec.from_dict(spec_dict)
    return [r.cluster for r in parent._rank_candidates(spec, origin)]


def drive(parent, meter, uplink_stub, summaries,
          senders, next_due, rounds=ROUNDS):
    """Run the interleaved summary/submit workload; returns the tallies."""
    clusters = len(summaries)
    placeable, unplaceable = make_specs()
    placements = hashlib.sha256()
    uplink_bytes = 0
    uplink_msgs = 0
    submit_wall = 0.0
    submits = 0
    oracle_mismatches = 0
    for r in range(1, rounds + 1):
        now = r * BASE_INTERVAL
        # Deterministic churn on the exact 0.25 grid: every
        # CHURN_PERIOD-th cluster moves its spare CPU this round.
        for i in range(clusters):
            if (i + r) % CHURN_PERIOD == 0:
                summaries[i]["free_cpu_total"] = \
                    40.0 + ((i + r) % 16) * 1.25
                summaries[i]["pending_tasks"] = (i + r) % 3

        # -- summary phase: only these bytes count as uplink traffic --
        bytes_before = meter.bytes
        if senders is None:
            for summary in summaries:
                summary["time"] = now
                uplink_stub.send_summary(dict(summary))
                uplink_msgs += 1
        else:
            for i, sender in enumerate(senders):
                if now < next_due[i]:
                    continue
                summary = summaries[i]
                summary["time"] = now
                kind, payload = sender.encode(summary)
                if kind == FULL:
                    uplink_stub.send_summary(dict(payload))
                else:
                    uplink_stub.send_summary_delta(
                        summary["cluster"], dict(payload)
                    )
                next_due[i] = now + sender.current_interval
                uplink_msgs += 1
        # The parent-to-grandparent uplink reads the aggregate once per
        # interval (O(children) in seed mode, O(1) incrementally).
        parent.aggregate_summary()
        uplink_bytes += meter.bytes - bytes_before

        # -- submit phase: wide-area placement cost at the servant --
        start = time.perf_counter()
        for s in range(SUBMITS_PER_ROUND):
            k = (r - 1) * SUBMITS_PER_ROUND + s
            spec = placeable if k % PLACEABLE_EVERY == 0 else unplaceable
            origin = f"c{(k * 7) % clusters:04}"
            job_id = parent.submit_remote(dict(spec), origin)
            placements.update(job_id.encode())
        submit_wall += time.perf_counter() - start
        submits += SUBMITS_PER_ROUND

        # Delta-mode placement can lag the senders (throttling trades
        # freshness for bytes), so it is checked against the seed
        # ranking on the SAME parent state instead of the seed digest.
        if senders is not None and r % 2 == 0:
            for spec, tasks in ((placeable, 4), (unplaceable, 200)):
                indexed = [
                    rec.cluster for rec in parent._indexed_candidates(
                        float(tasks), tasks, 0.0, "c0000"
                    )
                ]
                if indexed != _oracle_order(parent, spec, "c0000"):
                    oracle_mismatches += 1
    return {
        "uplink_messages": uplink_msgs,
        "uplink_bytes": uplink_bytes,
        "submits": submits,
        "submit_cost_s": submit_wall,
        "placements_digest": placements.hexdigest(),
        "oracle_mismatches": oracle_mismatches,
    }


def measure_wide_area(clusters, mode, rounds=ROUNDS):
    """One full run; returns the S5 metric row for (clusters, mode)."""
    (server_orb, child_orb, parent, uplink_stub,
     summaries, senders, next_due) = build_plane(clusters, mode)
    try:
        # Uplinks are dispatched directly; the meter prices each summary
        # request in CDR bytes (submits bypass it: they are timed).
        meter = WireMeter()
        server_orb.add_server_interceptor(meter)
        tallies = drive(parent, meter, uplink_stub,
                        summaries, senders, next_due, rounds)
        # Incremental aggregation must still agree with the seed
        # recompute after the whole churned run.
        assert parent.aggregate_summary() == parent.aggregate_oracle()
        assert parent.summaries_received == tallies["uplink_messages"]
        start = time.perf_counter()
        for _ in range(AGG_PROBES):
            parent.aggregate_summary()
        agg_elapsed = time.perf_counter() - start
        return {
            "clusters": clusters,
            "nodes_simulated": clusters * NODES_PER_CLUSTER,
            "mode": mode,
            "rounds": rounds,
            "uplink_messages": tallies["uplink_messages"],
            "uplink_bytes": tallies["uplink_bytes"],
            "bytes_per_summary": round(
                tallies["uplink_bytes"] / tallies["uplink_messages"], 1
            ),
            "submits": tallies["submits"],
            "submit_cost_s": round(tallies["submit_cost_s"], 4),
            "submits_per_wall_s": round(
                tallies["submits"] / tallies["submit_cost_s"], 1
            ),
            "aggregates_per_wall_s": round(AGG_PROBES / agg_elapsed, 1),
            "placements_digest": tallies["placements_digest"],
            "oracle_mismatches": tallies["oracle_mismatches"],
            "placements_skipped_by_index":
                parent.placements_skipped_by_index,
        }
    finally:
        parent.stop()
        server_orb.shutdown()
        child_orb.shutdown()


def run_experiment():
    table = Table(
        ["clusters", "nodes", "mode", "summaries", "KB uplink",
         "bytes/summary", "submits/s (wall)", "aggregates/s"],
        title="S5: wide-area plane cost per 36 simulated intervals",
    )
    rows = []
    for clusters in SCALING_CLUSTERS:
        for mode in MODES:
            row = measure_wide_area(clusters, mode)
            rows.append(row)
            table.add_row(
                clusters, row["nodes_simulated"], mode,
                row["uplink_messages"],
                f"{row['uplink_bytes'] / 1024.0:,.0f}",
                f"{row['bytes_per_summary']:,.0f}",
                f"{row['submits_per_wall_s']:,.0f}",
                f"{row['aggregates_per_wall_s']:,.0f}",
            )
    return table, rows


def _row(rows, clusters, mode):
    return next(
        r for r in rows if r["clusters"] == clusters and r["mode"] == mode
    )


def test_s5_wide_area(benchmark):
    table, rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_result("s5_wide_area", table.render())
    save_json("S5", {
        "experiment": "s5_wide_area",
        "rounds": ROUNDS,
        "base_interval_s": BASE_INTERVAL,
        "churn_period": CHURN_PERIOD,
        "nodes_per_cluster": NODES_PER_CLUSTER,
        "rows": rows,
    })
    for clusters in SCALING_CLUSTERS:
        seed = _row(rows, clusters, "seed")
        indexed = _row(rows, clusters, "indexed")
        delta = _row(rows, clusters, "indexed+delta")
        # Same summaries, same rounds: indexed placement must make the
        # exact decisions the seed scan+sort makes, submit for submit.
        assert indexed["placements_digest"] == seed["placements_digest"]
        # The index pruned unfit children before any remote round-trip.
        assert indexed["placements_skipped_by_index"] > 0
        # Throttling must actually shed summaries (and with them most
        # of the uplink bytes — per-message framing dominates the small
        # CLUSTER_SUMMARY struct, so the win is suppression, not
        # per-message shrinkage).
        assert delta["uplink_messages"] < seed["uplink_messages"] / 2
        assert delta["uplink_bytes"] < seed["uplink_bytes"] / 2
        # Lagged state is allowed; wrong ranking on that state is not.
        assert delta["oracle_mismatches"] == 0
    seed = _row(rows, 256, "seed")
    indexed = _row(rows, 256, "indexed")
    delta = _row(rows, 256, "indexed+delta")
    # The headline claims the CI smoke re-checks against the committed
    # baseline: >= 5x submit-path cost down from indexed placement alone,
    # >= 3x uplink bytes down from delta uplinks, at 256 clusters.
    assert seed["submit_cost_s"] / indexed["submit_cost_s"] >= 5.0
    assert seed["uplink_bytes"] / delta["uplink_bytes"] >= 3.0
