"""Tests for transport-level oneway batching (Orb(batch_oneway=True)).

Batching is an opt-in TCP feature (collocated calls are dispatched
directly and never queue) and must be invisible except in frame counts:
the same calls arrive at the same servants in the same order, queues
drain at flush()/shutdown(), and a two-way call to a peer acts as an
ordering barrier for that peer's queued oneways.
"""

import time

from repro.orb.core import Orb
from repro.orb.cdr import Double, String, ULong, Void
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import InProcDomain

SINK_INTERFACE = InterfaceDef("test/Sink", [
    Operation("report", (
        Parameter("node", String),
        Parameter("seq", ULong),
        Parameter("load", Double),
    ), Void, oneway=True),
    Operation("poll", (), ULong),
])


class Sink:
    def __init__(self):
        self.reports = []

    def report(self, node, seq, load):
        self.reports.append((node, seq, load))

    def poll(self):
        return len(self.reports)


def make_pair(batch_server=True, batch_client=True, **server_kwargs):
    """Two ORBs joined only by a pipelined TCP connection (separate
    domains, like two processes).  ``stub.poll()`` is two-way, so it
    returns only after every oneway sent before it was dispatched."""
    server = Orb("server", domain=InProcDomain(), tcp=True,
                 tcp_pipelined=True, batch_oneway=batch_server,
                 **server_kwargs)
    client = Orb("client", domain=InProcDomain(), tcp=True,
                 tcp_pipelined=True, batch_oneway=batch_client)
    sink = Sink()
    ref = server.activate(sink, SINK_INTERFACE, key="test/sink")
    stub = client.stub(ref, SINK_INTERFACE)
    return server, client, sink, stub


class TestDefaultOff:
    def test_oneways_send_immediately_without_the_flag(self):
        server, client, sink, stub = make_pair(batch_server=False,
                                               batch_client=False)
        try:
            stub.report("n0", 0, 0.5)
            stub.report("n1", 1, 0.6)
            assert stub.poll() == 2
            # One frame per call (plus the poll), nothing queued.
            assert server.stats()["requests_received"] == 3
            assert client.batch_calls == 0
            assert client.batch_frames == 0
            client.flush()   # no-op
            assert server.stats()["requests_received"] == 3
        finally:
            client.shutdown()
            server.shutdown()

    def test_default_orb_does_not_advertise_batch(self):
        orb = Orb("plain", domain=InProcDomain())
        try:
            assert orb.accepts_batch is False
        finally:
            orb.shutdown()

    def test_collocated_oneways_never_queue(self):
        domain = InProcDomain()
        server = Orb("server", domain=domain, batch_oneway=True)
        client = Orb("client", domain=domain, batch_oneway=True)
        sink = Sink()
        stub = client.stub(
            server.activate(sink, SINK_INTERFACE), SINK_INTERFACE)
        stub.report("n0", 0, 0.5)
        assert sink.reports == [("n0", 0, 0.5)]   # delivered, not queued
        assert client.batch_calls == 0


class TestBatchedDelivery:
    def test_oneways_queue_until_flush(self):
        server, client, sink, stub = make_pair()
        try:
            for i in range(10):
                stub.report(f"n{i}", i, 0.1 * i)
            assert sink.reports == []   # still queued
            client.flush()
            assert stub.poll() == 10
            assert [r[1] for r in sink.reports] == list(range(10))
            # Ten calls rode one frame (the other is the poll).
            assert server.stats()["requests_received"] == 2
            assert client.batch_calls == 10
            assert client.batch_frames == 1
            assert client.batch_bytes_saved > 0
        finally:
            client.shutdown()
            server.shutdown()

    def test_single_queued_call_sends_a_plain_frame(self):
        # A lone request needs no envelope: the wire must carry exactly
        # the bytes the per-call path would have sent.
        server, client, sink, stub = make_pair()
        plain_server, plain_client, _, plain_stub = make_pair(
            batch_server=False, batch_client=False)
        try:
            stub.report("n0", 0, 0.5)
            client.flush()
            plain_stub.report("n0", 0, 0.5)
            assert stub.poll() == plain_stub.poll() == 1
            assert sink.reports == [("n0", 0, 0.5)]
            assert (server.stats()["bytes_received"]
                    == plain_server.stats()["bytes_received"])
        finally:
            for orb in (client, plain_client, server, plain_server):
                orb.shutdown()

    def test_two_way_call_is_an_ordering_barrier(self):
        server, client, sink, stub = make_pair()
        try:
            stub.report("n0", 0, 0.5)
            stub.report("n1", 1, 0.6)
            # The two-way poll() must observe both queued oneways: the
            # ORB flushes the peer's queue before the request goes out.
            assert stub.poll() == 2
        finally:
            client.shutdown()
            server.shutdown()

    def test_shutdown_flushes_queued_oneways(self):
        server, client, sink, stub = make_pair()
        stub.report("n0", 0, 0.5)
        client.shutdown()
        try:
            deadline = time.monotonic() + 10.0
            while not sink.reports and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sink.reports == [("n0", 0, 0.5)]
        finally:
            server.shutdown()


class TestCapabilityGating:
    def test_non_batching_server_gets_per_call_frames(self):
        # Client opts in, server does not: every oneway must go out as
        # its own frame because the peer never advertises the capability.
        server, client, sink, stub = make_pair(batch_server=False)
        try:
            stub.report("n0", 0, 0.5)
            assert stub.poll() == 1
            assert sink.reports == [("n0", 0, 0.5)]
            assert client.batch_calls == 0
        finally:
            client.shutdown()
            server.shutdown()

    def test_auth_requiring_server_never_advertises_batch(self):
        from repro.security.auth import KeyRing

        keyring = KeyRing()
        keyring.add("svc", b"secret")
        orb = Orb("auth-server", domain=InProcDomain(), batch_oneway=True,
                  keyring=keyring, require_auth=True)
        try:
            assert orb.accepts_batch is False
        finally:
            orb.shutdown()


class TestEquivalence:
    def test_batched_delivery_matches_per_call_order_and_content(self):
        import hashlib

        def run(batch):
            server, client, sink, stub = make_pair(
                batch_server=batch, batch_client=batch)
            digest = hashlib.sha256()
            server.add_server_interceptor(
                lambda key, op, args: digest.update(
                    f"{key}|{op.name}|{args!r}".encode())
            )
            try:
                for r in range(3):
                    for i in range(50):
                        stub.report(f"n{i:03}", r * 50 + i, 0.01 * i)
                    client.flush()
                assert stub.poll() == 150
                return digest.hexdigest(), list(sink.reports)
            finally:
                client.shutdown()
                server.shutdown()

        seed_digest, seed_reports = run(batch=False)
        batch_digest, batch_reports = run(batch=True)
        assert batch_digest == seed_digest
        assert batch_reports == seed_reports


class TestTcpNegotiatedBatching:
    def test_batches_ride_a_pipelined_connection(self):
        server = Orb("tcp-server", domain=InProcDomain(), tcp=True,
                     tcp_pipelined=True, batch_oneway=True)
        client = Orb("tcp-client", domain=InProcDomain(), tcp=True,
                     tcp_pipelined=True, batch_oneway=True)
        sink = Sink()
        ref = server.activate(sink, SINK_INTERFACE, key="test/sink")
        stub = client.stub(ref, SINK_INTERFACE)
        try:
            for i in range(100):
                stub.report(f"n{i:03}", i, 0.5)
            client.flush()
            # Drain via the two-way poll (itself an ordering barrier).
            assert stub.poll() == 100
            assert [r[1] for r in sink.reports] == list(range(100))
            # 100 oneways + 1 poll, but at most a couple of data frames.
            assert server._tcp.stats.requests_received <= 3
        finally:
            client.shutdown()
            server.shutdown()

    def test_legacy_tcp_peer_is_never_sent_batches(self):
        server = Orb("tcp-server", domain=InProcDomain(), tcp=True)
        client = Orb("tcp-client", domain=InProcDomain(), tcp=True,
                     tcp_pipelined=True, batch_oneway=True)
        sink = Sink()
        ref = server.activate(sink, SINK_INTERFACE, key="test/sink")
        stub = client.stub(ref, SINK_INTERFACE)
        try:
            stub.report("n0", 0, 0.5)
            client.flush()
            assert stub.poll() == 1
            assert client.batch_calls == 0   # fell back to per-call
        finally:
            client.shutdown()
            server.shutdown()
