"""S3 — information-plane scaling (infrastructure benchmark).

The paper's update protocol ships every node's complete status on a
fixed interval; at tens of thousands of nodes the GRM drowns in
identical snapshots.  This benchmark drives a *real* GRM through a real
ORB with two configurations of the same workload and measures what the
scaling features buy:

* ``full``  — the seed protocol: full snapshot, every node, every
  interval, re-indexed per update (the paper's baseline).
* ``delta`` — delta encoding + adaptive throttling on the sender,
  batched ingestion on the GRM; an unchanged interval travels as the
  protocol's ``heartbeat(node)``, which writes nothing to the Trader.

Sender and GRM share one ORB domain, so — as in a ``Grid`` — every
update is dispatched directly and the plane cost is the protocol's own
CPU, not marshalling.  Message sizes are *modelled*: a second,
identical pass runs with a :class:`~repro.orb.WireMeter` on the GRM's
ORB, which CDR-encodes each request to price it; bytes saved by deltas
are the difference between the two modes' metered totals.  The metered
pass is never timed.

Senders are :class:`~repro.core.update_protocol.DeltaSender` machines
over synthetic status dicts (building 10k full node stacks would
measure the simulator, not the protocol).  Workload: ``CHURN_PERIOD``-th
of the nodes change a float field each interval, the rest idle, and the
GRM's view is queried every ``QUERY_EVERY`` rounds so batched mode pays
its flushes.

Reported per (nodes, mode): messages, updates/s of wall time, metered
bytes, bytes/update, and total information-plane cost (wall seconds
for the identical simulated horizon — the product of ingest time per
update and update volume).  Rows land in ``BENCH_S3.json`` with
``--bench-json``; the committed file is the CI perf baseline and the
gates (``full`` vs ``delta`` at 10k nodes: >= 3x metered bytes down, and
the plane's wall-clock cost must not go *up* for it) run in
``perf_smoke.py``.
"""

import hashlib
import time

from repro.core.grm import Grm
from repro.core.protocols import GRM_INTERFACE, LRM_INTERFACE
from repro.core.update_protocol import DELTA, FULL, DeltaSender
from repro.orb import Orb, WireMeter
from repro.orb.transport import InProcDomain
from repro.sim.events import EventLoop
from repro.analysis.metrics import Table

from conftest import save_json, save_result

SCALING_NODES = (1_000, 4_000, 10_000)
MODES = ("full", "delta")
ROUNDS = 36                    # simulated update intervals per run
BASE_INTERVAL = 60.0
MAX_INTERVAL = 8 * BASE_INTERVAL
FULL_REFRESH_EVERY = 10
CHURN_PERIOD = 20              # 5% of the nodes change per round
QUERY_EVERY = 5                # rounds between GRM view queries


def node_status(i):
    return {
        "node": f"n{i:05}", "time": 0.0, "mips": 1000.0 + (i % 7) * 100.0,
        "ram_mb": 512.0, "disk_mb": 20_000.0, "os": "linux", "arch": "x86",
        "cpu_free": 0.9, "mem_free_mb": 400.0, "disk_free_mb": 15_000.0,
        "net_mbps": 100.0, "net_free_mbps": 80.0, "owner_active": False,
        "sharing": True, "grid_tasks": 0,
    }


def build_plane(nodes, mode):
    """A registered GRM + client stub + per-node sender state."""
    domain = InProcDomain()
    server_orb = Orb("grm-orb", domain=domain)
    client_orb = Orb("lrm-orb", domain=domain)
    grm = Grm(EventLoop(), server_orb, cluster="bench",
              batched_ingest=(mode != "full"))
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

    senders = None
    next_due = None
    if mode != "full":
        senders = []
        for status in statuses:
            sender = DeltaSender(
                BASE_INTERVAL, full_refresh_every=FULL_REFRESH_EVERY,
                max_interval=MAX_INTERVAL,
            )
            sender.register(status)
            senders.append(sender)
        next_due = [BASE_INTERVAL] * nodes
    return server_orb, client_orb, grm, stub, statuses, senders, next_due


def drive(grm, stub, statuses, senders, next_due, rounds=ROUNDS):
    """Run the workload; returns (messages sent, wall seconds)."""
    sent = 0
    start = time.perf_counter()
    for r in range(1, rounds + 1):
        now = r * BASE_INTERVAL
        # Deterministic churn: every CHURN_PERIOD-th node moves its load
        # figure this round (no RNG, so reruns measure the same bytes).
        for i in range(len(statuses)):
            if (i + r) % CHURN_PERIOD == 0:
                statuses[i]["cpu_free"] = 0.1 + 0.08 * (r % 10)
        if senders is None:
            for status in statuses:
                status["time"] = now
                stub.send_update(dict(status))
                sent += 1
        else:
            for i, sender in enumerate(senders):
                if now < next_due[i]:
                    continue
                status = statuses[i]
                status["time"] = now
                kind, payload = sender.encode(status)
                if kind == FULL:
                    stub.send_update(dict(payload))
                elif kind == DELTA:
                    stub.send_delta(status["node"], dict(payload))
                else:   # as the LRM delivers it: the one heartbeat
                    stub.heartbeat(status["node"])
                next_due[i] = now + sender.current_interval
                sent += 1
        if r % QUERY_EVERY == 0:
            grm.flush_updates()   # a consumer reads the Trader's view
    grm.flush_updates()
    return sent, time.perf_counter() - start


def _run(nodes, mode, rounds, meter=None):
    """Build a fresh plane, drive it, tear it down; ``meter`` (on the
    GRM's ORB) makes this the untimed pass that prices the requests."""
    server_orb, client_orb, grm, stub, statuses, senders, next_due = \
        build_plane(nodes, mode)
    if meter is not None:
        server_orb.add_server_interceptor(meter)
    try:
        sent, elapsed = drive(grm, stub, statuses, senders, next_due, rounds)
        assert grm.stats.updates_received == sent
        assert server_orb.stats()["bytes_received"] == 0   # all direct
        # Fold the GRM's final node view into a digest: both passes must
        # leave the information plane's *state* bit-identical.
        digest = hashlib.sha256()
        for node in sorted(grm._nodes):
            status = grm._nodes[node].last_status
            digest.update(f"{node}|{sorted(status.items())!r}".encode())
        return sent, elapsed, digest.hexdigest()
    finally:
        grm.stop()
        server_orb.shutdown()
        client_orb.shutdown()


def measure_mode(nodes, mode, rounds=ROUNDS):
    """One timed run plus one metered run; the S3 row for (nodes, mode)."""
    sent, elapsed, view_digest = _run(nodes, mode, rounds)
    meter = WireMeter()
    metered_sent, _, metered_digest = _run(nodes, mode, rounds, meter)
    assert (metered_sent, metered_digest) == (sent, view_digest)
    assert meter.requests == sent
    return {
        "nodes": nodes,
        "mode": mode,
        "rounds": rounds,
        "messages": sent,
        "updates_per_wall_s": round(sent / elapsed, 1),
        "wire_bytes": meter.bytes,
        "bytes_per_update": round(meter.bytes / sent, 1) if sent else 0.0,
        "plane_cost_s": round(elapsed, 4),
        "view_digest": view_digest,
    }


def run_experiment():
    table = Table(
        ["nodes", "mode", "messages", "updates/s (wall)",
         "bytes/update", "KB metered", "plane cost (s)"],
        title="S3: information-plane cost per 36 simulated intervals",
    )
    rows = []
    for nodes in SCALING_NODES:
        for mode in MODES:
            row = measure_mode(nodes, mode)
            rows.append(row)
            table.add_row(
                nodes, mode, row["messages"],
                f"{row['updates_per_wall_s']:,.0f}",
                f"{row['bytes_per_update']:,.0f}",
                f"{row['wire_bytes'] / 1024.0:,.0f}",
                f"{row['plane_cost_s']:.3f}",
            )
    return table, rows


def _row(rows, nodes, mode):
    return next(r for r in rows if r["nodes"] == nodes and r["mode"] == mode)


def test_s3_information_plane(benchmark):
    table, rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_result("s3_information_plane", table.render())
    save_json("S3", {
        "experiment": "s3_information_plane",
        "rounds": ROUNDS,
        "base_interval_s": BASE_INTERVAL,
        "churn_period": CHURN_PERIOD,
        "rows": rows,
    })
    for nodes in SCALING_NODES:
        full = _row(rows, nodes, "full")
        delta = _row(rows, nodes, "delta")
        # Throttling must actually shed messages...
        assert delta["messages"] < full["messages"] / 2
        # ...and deltas must shrink what the GRM absorbs per message.
        assert delta["bytes_per_update"] < full["bytes_per_update"]
    full = _row(rows, 10_000, "full")
    delta = _row(rows, 10_000, "delta")
    # The headline claims the CI smoke re-checks against the committed
    # baseline, bytes next to the CPU they cost: deltas + throttling cut
    # the modelled wire >= 3x without costing the plane more wall-clock
    # than the 4.5x fewer messages give back.
    assert full["wire_bytes"] / delta["wire_bytes"] >= 3.0
    assert full["plane_cost_s"] / delta["plane_cost_s"] >= 1.0
