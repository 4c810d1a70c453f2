"""E11 — ORB microbenchmarks.

Section 5: the prototype used UIC-CORBA, "a very small memory footprint
CORBA-compatible implementation", so client machines pay almost nothing
for the middleware.  These are the classic ORB numbers for our Python
substitute: marshalling throughput, invocation round-trip latency
in-process and over real TCP sockets, and the wire size of each
protocol message — the costs every other experiment builds on.
"""

import functools
import time

import pytest

from repro.analysis.metrics import Table
from repro.core.protocols import (
    CLUSTER_SUMMARY,
    LRM_INTERFACE,
    NODE_STATUS,
    RESERVATION_REQUEST,
    TASK_LAUNCH,
)
from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.core import Orb
from repro.orb.trading import TradingService
from repro.orb.transport import InProcDomain

from conftest import save_json, save_result
from tests.oracles.trading import query_linear

SAMPLE_STATUS = {
    "node": "node042", "time": 123456.789, "mips": 1000.0,
    "ram_mb": 256.0, "disk_mb": 10_000.0, "os": "linux", "arch": "x86",
    "cpu_free": 0.85, "mem_free_mb": 180.0, "disk_free_mb": 9_000.0,
    "net_mbps": 100.0, "net_free_mbps": 97.5,
    "owner_active": False, "sharing": True, "grid_tasks": 2,
}

SAMPLE_RESERVATION = {
    "task_id": "cluster0-job17.3", "cpu_fraction": 1.0, "mem_mb": 64.0,
    "disk_mb": 0.0, "lease_seconds": 120.0,
}

SAMPLE_LAUNCH = {
    "task_id": "cluster0-job17.3", "job_id": "cluster0-job17",
    "work_mips": 3.6e6, "initial_progress_mips": 0.0,
    "checkpoint_interval_s": 600.0, "payload": "",
}

SAMPLE_SUMMARY = {
    "cluster": "cluster0", "time": 123456.789, "nodes": 100,
    "sharing_nodes": 73, "free_cpu_total": 61.5,
    "free_mem_total_mb": 11_000.0, "max_node_mips": 3000.0,
    "pending_tasks": 4,
}


class EchoLrm:
    """A minimal LRM servant for round-trip measurements."""

    def ping(self):
        return True

    def get_status(self):
        return SAMPLE_STATUS

    def request_reservation(self, request):
        return {"accepted": True, "reason": "ok"}

    def cancel_reservation(self, task_id):
        pass

    def start_task(self, launch):
        return True

    def stop_task(self, task_id):
        return 0.0

    def set_work_limit(self, task_id, limit):
        pass

    def get_progress(self, task_id):
        return 0.0

    def rollback_task(self, task_id, progress):
        pass


def encode_status():
    enc = CdrEncoder()
    NODE_STATUS.encode(enc, SAMPLE_STATUS)
    return enc.getvalue()


def message_size_table():
    table = Table(
        ["protocol message", "CDR bytes"],
        title="E11: wire sizes of the protocol messages",
    )
    for name, idl_type, sample in (
        ("NodeStatus (Information Update)", NODE_STATUS, SAMPLE_STATUS),
        ("ReservationRequest", RESERVATION_REQUEST, SAMPLE_RESERVATION),
        ("TaskLaunch", TASK_LAUNCH, SAMPLE_LAUNCH),
        ("ClusterSummary (hierarchy)", CLUSTER_SUMMARY, SAMPLE_SUMMARY),
    ):
        enc = CdrEncoder()
        idl_type.encode(enc, sample)
        table.add_row(name, len(enc.getvalue()))
    return table


def test_e11_message_sizes(benchmark):
    table = benchmark(message_size_table)
    save_result("e11_orb_message_sizes", table.render(), table=table)
    sizes = {row[0]: int(row[1]) for row in table.rows}
    # All protocol messages fit comfortably in a single ethernet frame.
    assert all(size < 256 for size in sizes.values())


def test_e11_marshal_node_status(benchmark):
    data = benchmark(encode_status)
    assert len(data) > 0


def test_e11_unmarshal_node_status(benchmark):
    data = encode_status()
    result = benchmark(lambda: NODE_STATUS.decode(CdrDecoder(data)))
    assert result["node"] == "node042"


def test_e11_inproc_roundtrip(benchmark):
    domain = InProcDomain()
    server = Orb("server", domain=domain)
    client = Orb("client", domain=domain)
    try:
        ref = server.activate(EchoLrm(), LRM_INTERFACE)
        stub = client.stub(ref, LRM_INTERFACE)
        assert benchmark(stub.get_status)["node"] == "node042"
    finally:
        server.shutdown()
        client.shutdown()


def test_e11_tcp_roundtrip(benchmark):
    server = Orb("tcp-server", domain=InProcDomain(), tcp=True)
    client = Orb("tcp-client", domain=InProcDomain(), tcp=True)
    try:
        ref = server.activate(EchoLrm(), LRM_INTERFACE)
        stub = client.stub(ref, LRM_INTERFACE)
        stub.ping()   # establish the connection outside the timing loop
        assert benchmark(stub.get_status)["node"] == "node042"
    finally:
        server.shutdown()
        client.shutdown()


def test_e11_authenticated_roundtrip(benchmark):
    """The cost of HMAC request authentication on top of a call."""
    from repro.security.auth import Credentials, KeyRing

    ring = KeyRing()
    ring.add("grm", b"cluster-secret")
    domain = InProcDomain()
    server = Orb("auth-server", domain=domain, keyring=ring,
                 require_auth=True)
    client = Orb("auth-client", domain=domain,
                 credentials=Credentials("grm", b"cluster-secret"))
    try:
        ref = server.activate(EchoLrm(), LRM_INTERFACE)
        stub = client.stub(ref, LRM_INTERFACE)
        assert benchmark(stub.get_status)["node"] == "node042"
    finally:
        server.shutdown()
        client.shutdown()


def build_trader(offers=1000):
    """A trader loaded with a realistic mixed-node offer population, and
    its offers in export order (what the linear oracle scans)."""
    svc = TradingService()
    exported = [
        svc.offer(svc.export("node", f"ior:n{i:04}", {
            "node": f"n{i:04}",
            "mips": 500.0 + (i % 7) * 250.0,
            "cpu_free": (i % 10) / 10.0,
            "mem_free_mb": 64.0 + (i % 5) * 64.0,
            "os": "linux" if i % 3 else "solaris",
            "sharing": i % 4 != 0,
            "owner_active": i % 5 == 0,
        }))
        for i in range(offers)
    ]
    return svc, exported


TRADER_CONSTRAINT = (
    "sharing == true && !owner_active && mips >= 750 && mem_free_mb >= 128"
)
TRADER_PREFERENCE = "cpu_free * mips"


def _best_rate(fn, rounds=5, calls=20):
    """Best-of-N calls/second for ``fn`` (rides out machine noise)."""
    best = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        best = max(best, calls / elapsed)
    return best


def measure_collocated(rounds=5, calls=20_000):
    """Best-of-``rounds`` calls/s through a plain collocated stub — no
    interceptor, tracer or envelope, so every call after the first is
    bound to the servant method: two-way ``ping`` and oneway
    ``cancel_reservation``."""
    domain = InProcDomain()
    server = Orb("colloc-server", domain=domain)
    client = Orb("colloc-client", domain=domain)
    try:
        ref = server.activate(EchoLrm(), LRM_INTERFACE)
        stub = client.stub(ref, LRM_INTERFACE)
        twoway = _best_rate(stub.ping, rounds=rounds, calls=calls)
        oneway = _best_rate(functools.partial(stub.cancel_reservation, "t1"),
                            rounds=rounds, calls=calls)
        assert server.requests_handled == 2 * rounds * calls
    finally:
        server.shutdown()
        client.shutdown()
    return {"collocated_twoway_calls_per_s": round(twoway, 1),
            "collocated_oneway_calls_per_s": round(oneway, 1)}


def test_e11_trader_query_indexed(benchmark):
    svc, _ = build_trader()
    result = benchmark(
        svc.query, "node", TRADER_CONSTRAINT, TRADER_PREFERENCE, 10
    )
    assert len(result) == 10


def test_e11_trader_query_linear_oracle(benchmark):
    _, offers = build_trader()
    result = benchmark(
        query_linear, offers, "node", TRADER_CONSTRAINT, TRADER_PREFERENCE, 10
    )
    assert len(result) == 10


def test_e11_metrics_json(benchmark):
    """One self-contained pass producing every BENCH_E11.json metric:
    wire sizes, marshalling bytes/s, plain collocated call rates, and
    indexed-vs-linear trader query rates at 1000 offers."""
    def measure():
        sizes = {}
        for name, idl_type, sample in (
            ("node_status", NODE_STATUS, SAMPLE_STATUS),
            ("reservation_request", RESERVATION_REQUEST, SAMPLE_RESERVATION),
            ("task_launch", TASK_LAUNCH, SAMPLE_LAUNCH),
            ("cluster_summary", CLUSTER_SUMMARY, SAMPLE_SUMMARY),
        ):
            enc = CdrEncoder()
            idl_type.encode(enc, sample)
            sizes[name] = len(enc.getvalue())

        msg_bytes = len(encode_status())
        encodes_per_s = _best_rate(encode_status, rounds=5, calls=2000)
        collocated = measure_collocated()

        svc, offers = build_trader()
        args = ("node", TRADER_CONSTRAINT, TRADER_PREFERENCE, 10)
        assert svc.query(*args) == query_linear(offers, *args)
        indexed_qps = _best_rate(lambda: svc.query(*args))
        linear_qps = _best_rate(lambda: query_linear(offers, *args))
        return (sizes, msg_bytes, encodes_per_s, collocated, indexed_qps,
                linear_qps)

    (sizes, msg_bytes, enc_per_s, collocated, indexed_qps,
     linear_qps) = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_json("E11", {
        "experiment": "e11_orb",
        "message_bytes": sizes,
        "marshal_node_status_per_s": round(enc_per_s, 1),
        "marshal_bytes_per_s": round(enc_per_s * msg_bytes, 1),
        **collocated,
        "trader_offers": 1000,
        "trader_indexed_queries_per_s": round(indexed_qps, 1),
        "trader_linear_queries_per_s": round(linear_qps, 1),
        "trader_speedup": round(indexed_qps / linear_qps, 2),
    })
    assert indexed_qps > linear_qps


def test_e11_oneway_inproc(benchmark):
    domain = InProcDomain()
    server = Orb("ow-server", domain=domain)
    client = Orb("ow-client", domain=domain)
    try:
        ref = server.activate(EchoLrm(), LRM_INTERFACE)
        stub = client.stub(ref, LRM_INTERFACE)
        benchmark(stub.cancel_reservation, "t1")
    finally:
        server.shutdown()
        client.shutdown()
