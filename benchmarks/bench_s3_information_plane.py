"""S3 — information-plane scaling (infrastructure benchmark).

The Information Update Protocol has every node tell its GRM something
every interval; at tens of thousands of nodes what that something costs
the GRM is the information plane.  This benchmark drives a *real* GRM
through a real ORB with the protocol the LRM speaks: a node whose
status changed since the last one it sent — or whose last
``FULL_REFRESH_EVERY - 1`` sends were all heartbeats — sends the
status, which the GRM stores and writes to its Trader; any other node
sends ``heartbeat(node)``, which refreshes ``last_seen`` and writes
nothing.

Sender and GRM share one ORB domain, so — as in a ``Grid`` — every
message is dispatched directly and the plane cost is the protocol's own
CPU, not marshalling.  Message sizes are *modelled*: a second,
identical pass runs with a :class:`~repro.orb.WireMeter` on the GRM's
ORB, which CDR-encodes each request to price it.  The metered pass is
never timed.

Senders are a dirty flag and a counter over synthetic status dicts
(building 10k full node stacks would measure the simulator, not the
protocol).  Workload: ``CHURN_PERIOD``-th of the nodes change a float
field each interval, the rest idle.

Reported per cluster size: messages, how many were statuses and how
many heartbeats, updates/s of wall time, metered bytes, bytes/update,
and total information-plane cost (wall seconds for the simulated
horizon).  Rows land in ``BENCH_S3.json`` with ``--bench-json``; the
committed file is the CI perf baseline ``perf_smoke.py`` compares the
10k-node updates/s against.
"""

import hashlib
import time

from repro.core.grm import Grm
from repro.core.lrm import DEFAULT_FULL_REFRESH_EVERY
from repro.core.protocols import GRM_INTERFACE, LRM_INTERFACE
from repro.orb import Orb, WireMeter
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop
from repro.analysis.metrics import Table

from conftest import save_json, save_result

SCALING_NODES = (1_000, 4_000, 10_000)
ROUNDS = 36                    # simulated update intervals per run
BASE_INTERVAL = 60.0
FULL_REFRESH_EVERY = DEFAULT_FULL_REFRESH_EVERY
CHURN_PERIOD = 20              # 5% of the nodes change per round


def node_status(i):
    return {
        "node": f"n{i:05}", "time": 0.0, "mips": 1000.0 + (i % 7) * 100.0,
        "ram_mb": 512.0, "disk_mb": 20_000.0, "os": "linux", "arch": "x86",
        "cpu_free": 0.9, "mem_free_mb": 400.0, "disk_free_mb": 15_000.0,
        "net_mbps": 100.0, "net_free_mbps": 80.0, "owner_active": False,
        "sharing": True, "grid_tasks": 0,
    }


def build_plane(nodes):
    """A GRM with ``nodes`` registered + a client stub + their statuses."""
    domain = InProcDomain()
    server_orb = Orb("grm-orb", domain=domain)
    client_orb = Orb("lrm-orb", domain=domain)
    grm = Grm(EventLoop(), server_orb, cluster="bench")
    grm_ref = server_orb.activate(grm, GRM_INTERFACE, key="bench/grm")
    stub = client_orb.stub(grm_ref, GRM_INTERFACE)

    # One placeholder LRM servant backs every registration: S3 measures
    # the update path, and the GRM only dials back on scheduling.
    class _IdleLrm:
        def __getattr__(self, name):
            return lambda *args: None

    lrm_ref = client_orb.activate(_IdleLrm(), LRM_INTERFACE, key="bench/lrm")
    lrm_ior = lrm_ref.to_string()

    statuses = [node_status(i) for i in range(nodes)]
    for status in statuses:
        grm.register_node(dict(status), lrm_ior)
    # A GRM that has scheduled once carries the Trader's ``sharing``
    # index, and every status re-files its offer in it.
    grm.trader.query("node", constraint="sharing == true", max_offers=1)
    return server_orb, client_orb, grm, stub, statuses


def drive(stub, statuses, rounds=ROUNDS):
    """Run the workload; returns (statuses sent, heartbeats sent, wall s)."""
    sends_since_full = [0] * len(statuses)
    sent_statuses = heartbeats = 0
    start = time.perf_counter()
    for r in range(1, rounds + 1):
        now = r * BASE_INTERVAL
        for i, status in enumerate(statuses):
            # Deterministic churn: every CHURN_PERIOD-th node moves its
            # load figure this round (no RNG, so reruns measure the same
            # bytes).
            changed = (i + r) % CHURN_PERIOD == 0
            if changed:
                status["cpu_free"] = 0.1 + 0.08 * (r % 10)
            sends_since_full[i] += 1
            if changed or sends_since_full[i] >= FULL_REFRESH_EVERY:
                sends_since_full[i] = 0
                status["time"] = now
                stub.send_update(dict(status))
                sent_statuses += 1
            else:
                stub.heartbeat(status["node"])
                heartbeats += 1
    return sent_statuses, heartbeats, time.perf_counter() - start


def _run(nodes, rounds, meter=None):
    """Build a fresh plane, drive it, tear it down; ``meter`` (on the
    GRM's ORB) makes this the untimed pass that prices the requests."""
    server_orb, client_orb, grm, stub, statuses = build_plane(nodes)
    if meter is not None:
        server_orb.add_server_interceptor(meter)
    try:
        sent_statuses, heartbeats, elapsed = drive(stub, statuses, rounds)
        assert grm.stats.updates_received == sent_statuses + heartbeats
        assert grm.stats.heartbeats_received == heartbeats
        assert server_orb.stats()["bytes_received"] == 0   # all direct
        # The GRM's final view, node by node, with what its Trader
        # offers: both passes must leave the same state, and the two
        # stores must agree.
        digest = hashlib.sha256()
        for node in sorted(grm._nodes):
            record = grm._nodes[node]
            assert grm.trader.offer(record.offer_id).properties \
                == record.last_status
            digest.update(
                f"{node}|{sorted(record.last_status.items())!r}".encode())
        return sent_statuses, heartbeats, elapsed, digest.hexdigest()
    finally:
        grm.stop()
        server_orb.shutdown()
        client_orb.shutdown()


def measure_information_plane(nodes, rounds=ROUNDS):
    """One timed run plus one metered run; the S3 row for ``nodes``."""
    sent_statuses, heartbeats, elapsed, view_digest = _run(nodes, rounds)
    meter = WireMeter()
    metered_statuses, _, _, metered_digest = _run(nodes, rounds, meter)
    assert (metered_statuses, metered_digest) == (sent_statuses, view_digest)
    sent = sent_statuses + heartbeats
    assert meter.requests == sent
    return {
        "nodes": nodes,
        "rounds": rounds,
        "messages": sent,
        "statuses": sent_statuses,
        "heartbeats": heartbeats,
        "updates_per_wall_s": round(sent / elapsed, 1),
        "wire_bytes": meter.bytes,
        "bytes_per_update": round(meter.bytes / sent, 1),
        "plane_cost_s": round(elapsed, 4),
        "view_digest": view_digest,
    }


def run_experiment():
    table = Table(
        ["nodes", "messages", "statuses", "heartbeats", "updates/s (wall)",
         "bytes/update", "KB metered", "plane cost (s)"],
        title="S3: information-plane cost per 36 simulated intervals",
    )
    rows = []
    for nodes in SCALING_NODES:
        row = measure_information_plane(nodes)
        rows.append(row)
        table.add_row(
            nodes, row["messages"], row["statuses"], row["heartbeats"],
            f"{row['updates_per_wall_s']:,.0f}",
            f"{row['bytes_per_update']:,.0f}",
            f"{row['wire_bytes'] / 1024.0:,.0f}",
            f"{row['plane_cost_s']:.3f}",
        )
    return table, rows


def test_s3_information_plane(benchmark):
    table, rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_result("s3_information_plane", table.render())
    save_json("S3", {
        "experiment": "s3_information_plane",
        "rounds": ROUNDS,
        "base_interval_s": BASE_INTERVAL,
        "full_refresh_every": FULL_REFRESH_EVERY,
        "churn_period": CHURN_PERIOD,
        "rows": rows,
    })
    for row in rows:
        # Every node says something every interval ...
        assert row["messages"] == row["nodes"] * ROUNDS
        # ... and with 5 % of them changing, most of it is heartbeats.
        assert row["heartbeats"] > 5 * row["statuses"]
