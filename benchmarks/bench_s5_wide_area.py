"""S5 — wide-area-plane scaling (infrastructure benchmark).

The paper's scalability story rests on the inter-cluster hierarchy
(Section 4: clusters "arranged in a hierarchy, allowing a single
InteGrade grid to encompass millions of machines").  This benchmark
federates hundreds of clusters (6k-25k simulated nodes) against a
*real* ParentGrm over a real ORB and measures the two things a parent
does with its children's summaries: take them in — one full summary per
cluster per interval, filed in the free-CPU placement index — and
answer wide-area submits from that index.

Child clusters are synthetic summary generators over one fake GRM-shaped
servant per cluster (building 256 full 100-node stacks would measure the
simulator, not the wide-area protocol — the S3 precedent).  Workload per
round: ``CHURN_PERIOD``-th of the clusters move their spare-CPU figure,
summaries flow, the parent aggregates once (what its own uplink would
send), then a burst of ``submit_remote`` calls arrives — mostly probes
that no cluster can host (the hot case: wide-area submission happens
exactly when local clusters are full), a fraction placeable.  Uplink
bytes are accumulated only around the summary phase; submit cost only
around the submit phase, measured at the parent servant (the
caller→parent request marshalling is already characterised by E11; dials
to children go through real stubs and are included).

Rows land in ``BENCH_S5.json`` with ``--bench-json``; the committed file
is the CI baseline ``perf_smoke.py`` compares the 256-cluster submits/s
against.  That the index ranks exactly as a scan-and-sort would is the
hypothesis suite's job (``tests/test_hierarchy_scaling.py``), not this
file's.
"""

import hashlib
import time

from repro.core.hierarchy import ParentGrm
from repro.core.protocols import GRM_INTERFACE, PARENT_GRM_INTERFACE
from repro.orb import Orb, WireMeter
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop
from repro.analysis.metrics import Table

from conftest import save_json, save_result

SCALING_CLUSTERS = (64, 256)
NODES_PER_CLUSTER = 100
ROUNDS = 36                     # simulated summary intervals per run
BASE_INTERVAL = 300.0
CHURN_PERIOD = 20               # 5% of the clusters change per round
SUBMITS_PER_ROUND = 64
PLACEABLE_EVERY = 128           # 1/128 of submits can actually be hosted
AGG_PROBES = 5000               # cluster_summary() calls timed at the end


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
    """Synthetic per-cluster aggregate."""
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
    callers probe the federation.  The index answers from its first
    entry.
    """
    from repro.apps.spec import ApplicationSpec
    placeable = ApplicationSpec(name="wide", tasks=4, work_mips=1e5).to_dict()
    unplaceable = ApplicationSpec(
        name="probe", tasks=200, work_mips=1e5
    ).to_dict()
    return placeable, unplaceable


def build_plane(clusters):
    """A ParentGrm with ``clusters`` registered + the children's stub."""
    domain = InProcDomain()
    server_orb = Orb("parent-orb", domain=domain)
    child_orb = Orb("children-orb", domain=domain)
    parent = ParentGrm(EventLoop(), server_orb, name="root")
    parent_ior = server_orb.activate(
        parent, PARENT_GRM_INTERFACE, key="root/parent"
    ).to_string()
    uplink_stub = child_orb.stub(parent_ior, PARENT_GRM_INTERFACE)

    summaries = [cluster_summary(i) for i in range(clusters)]
    for summary in summaries:
        child_ior = child_orb.activate(
            SummaryOnlyChildGrm(summary["cluster"]), GRM_INTERFACE,
            key=f"{summary['cluster']}/grm",
        ).to_string()
        uplink_stub.register_cluster(dict(summary), child_ior)
    return server_orb, child_orb, parent, uplink_stub, summaries


def drive(parent, meter, uplink_stub, summaries, rounds=ROUNDS):
    """Run the interleaved summary/submit workload; returns the tallies."""
    clusters = len(summaries)
    placeable, unplaceable = make_specs()
    placements = hashlib.sha256()
    uplink_bytes = 0
    uplink_msgs = 0
    submit_wall = 0.0
    submits = 0
    for r in range(1, rounds + 1):
        now = r * BASE_INTERVAL
        # Deterministic churn: every CHURN_PERIOD-th cluster moves its
        # spare CPU this round.
        for i in range(clusters):
            if (i + r) % CHURN_PERIOD == 0:
                summaries[i]["free_cpu_total"] = \
                    40.0 + ((i + r) % 16) * 1.25
                summaries[i]["pending_tasks"] = (i + r) % 3

        # -- summary phase: only these bytes count as uplink traffic --
        bytes_before = meter.bytes
        for summary in summaries:
            summary["time"] = now
            uplink_stub.send_summary(dict(summary))
            uplink_msgs += 1
        # The parent-to-grandparent uplink reads the aggregate once per
        # interval.
        parent.cluster_summary()
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
    return {
        "uplink_messages": uplink_msgs,
        "uplink_bytes": uplink_bytes,
        "submits": submits,
        "submit_cost_s": submit_wall,
        "placements_digest": placements.hexdigest(),
    }


def measure_wide_area(clusters, rounds=ROUNDS):
    """One full run; returns the S5 metric row for ``clusters``."""
    server_orb, child_orb, parent, uplink_stub, summaries = \
        build_plane(clusters)
    try:
        # Uplinks are dispatched directly; the meter prices each summary
        # request in CDR bytes (submits bypass it: they are timed).
        meter = WireMeter()
        server_orb.add_server_interceptor(meter)
        tallies = drive(parent, meter, uplink_stub, summaries, rounds)
        assert parent.summaries_received == tallies["uplink_messages"]
        start = time.perf_counter()
        for _ in range(AGG_PROBES):
            parent.cluster_summary()
        agg_elapsed = time.perf_counter() - start
        return {
            "clusters": clusters,
            "nodes_simulated": clusters * NODES_PER_CLUSTER,
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
            "placements_skipped_by_index":
                parent.placements_skipped_by_index,
        }
    finally:
        parent.stop()
        server_orb.shutdown()
        child_orb.shutdown()


def run_experiment():
    table = Table(
        ["clusters", "nodes", "summaries", "KB uplink",
         "bytes/summary", "submits/s (wall)", "aggregates/s"],
        title="S5: wide-area plane cost per 36 simulated intervals",
    )
    rows = []
    for clusters in SCALING_CLUSTERS:
        row = measure_wide_area(clusters)
        rows.append(row)
        table.add_row(
            clusters, row["nodes_simulated"],
            row["uplink_messages"],
            f"{row['uplink_bytes'] / 1024.0:,.0f}",
            f"{row['bytes_per_summary']:,.0f}",
            f"{row['submits_per_wall_s']:,.0f}",
            f"{row['aggregates_per_wall_s']:,.0f}",
        )
    return table, rows


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
    for row in rows:
        # One full summary per cluster per interval.
        assert row["uplink_messages"] == row["clusters"] * ROUNDS
        # The index pruned unfit children before any remote round-trip.
        assert row["placements_skipped_by_index"] > 0
