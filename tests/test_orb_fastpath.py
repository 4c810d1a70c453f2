"""Parity tests for collocated (direct) dispatch.

Two ORBs in one ``InProcDomain`` with no auth envelope between them
talk without CDR: the ORB picks the path from what it can observe, not
from a flag.  Every *observable* behaviour of the marshalled path must
survive: interceptor order, exception translation, oneway swallowing,
message counts, auth gating, and failure modes.  The marshalled path — still taken by enveloped requests and
over TCP — is the reference each class compares against.
"""

import copy
import dataclasses
import sys
import threading

import pytest

from repro.apps.spec import ApplicationSpec
from repro.core.grid import Grid
from repro.orb.cdr import CdrDecoder, Double, Void
from repro.orb.core import Orb, _encode_request
from repro.orb.exceptions import (
    BadOperation,
    CommunicationError,
    RemoteInvocationError,
)
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import InProcDomain
from repro.security.auth import Credentials, KeyRing

ECHO = InterfaceDef(
    "test/Echo",
    [
        Operation("echo", (Parameter("x", Double),), Double),
        Operation("boom", (Parameter("x", Double),), Double),
        Operation("fire", (Parameter("x", Double),), Void, oneway=True),
        Operation("misfire", (Parameter("x", Double),), Void, oneway=True),
    ],
)


class EchoServant:
    def __init__(self):
        self.fired = []

    def echo(self, x):
        return x * 2

    def boom(self, x):
        raise ValueError(f"bad value {x}")

    def fire(self, x):
        self.fired.append(x)

    def misfire(self, x):
        raise RuntimeError("oneway failure")


def make_pair(enveloped=False, **server_kwargs):
    """A collocated client/server pair; ``enveloped=True`` signs every
    request, which is what keeps a same-domain call on the CDR path."""
    domain = InProcDomain()
    client_kwargs = {}
    if enveloped:
        ring = KeyRing()
        ring.add("alice", b"alice-key")
        server_kwargs.setdefault("keyring", ring)
        client_kwargs["credentials"] = Credentials("alice", b"alice-key")
    server = Orb("server", domain=domain, **server_kwargs)
    client = Orb("client", domain=domain, **client_kwargs)
    servant = EchoServant()
    ref = server.activate(servant, ECHO)
    stub = client.stub(ref, ECHO)
    return server, client, stub, servant


def marshalled_bytes(server):
    """Request bytes ``server`` had to unmarshal (0 when all were direct)."""
    return server.inproc_stats().bytes_received


class TestDirectDispatch:
    def test_result_parity_and_no_wire_bytes(self):
        server, client, stub, _ = make_pair()
        assert stub.echo(21.0) == 42.0
        assert server.requests_handled == 1
        sent = client.inproc_stats().snapshot()
        received = server.inproc_stats().snapshot()
        # The message is counted on both sides; nothing was marshalled.
        assert sent["requests_sent"] == 1
        assert sent["replies_received"] == 1
        assert received["requests_received"] == 1
        assert sent["bytes_sent"] == sent["bytes_received"] == 0
        assert received["bytes_sent"] == received["bytes_received"] == 0

    def test_counts_match_the_marshalled_path(self):
        direct = make_pair()
        wire = make_pair(enveloped=True)
        counts = []
        for server, client, stub, _ in (direct, wire):
            stub.echo(1.0)
            stub.fire(2.0)
            with pytest.raises(RemoteInvocationError):
                stub.boom(3.0)
            snapshot = {**client.stats(), "handled": server.requests_handled,
                        "received": server.stats()["requests_received"]}
            counts.append({k: v for k, v in snapshot.items()
                           if not k.startswith("bytes_")})
        assert counts[0] == counts[1]
        assert counts[0]["requests_sent"] == 3
        assert counts[0]["replies_received"] == 2   # the oneway has none
        assert marshalled_bytes(direct[0]) == 0
        assert marshalled_bytes(wire[0]) > 0

    def test_oneway_returns_none_and_reaches_servant(self):
        server, client, stub, servant = make_pair()
        assert stub.fire(3.0) is None
        assert servant.fired == [3.0]
        assert client.stats()["replies_received"] == 0

    def test_collocated_oneways_never_queue(self):
        server, client, stub, servant = make_pair()
        for x in (1.0, 2.0, 3.0):
            stub.fire(x)
            assert servant.fired[-1] == x   # delivered before fire() returns
        assert servant.fired == [1.0, 2.0, 3.0]
        assert server.requests_handled == 3

    def test_arg_count_still_checked(self):
        server, client, stub, _ = make_pair()
        with pytest.raises(TypeError):
            client.invoke(stub._ref, ECHO.operation("echo"), (1.0, 2.0))

    def test_route_survives_domain_membership_changes(self):
        server, client, stub, _ = make_pair()
        stub.echo(1.0)
        stub.echo(1.0)
        Orb("bystander", domain=client.domain)    # membership changed
        stub.echo(1.0)
        assert server.requests_handled == 3


class TestExceptionParity:
    def test_servant_exception_becomes_remote_invocation_error(self):
        server, client, stub, _ = make_pair()
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.boom(7.0)
        # Same type name and message the marshalled reply would carry.
        assert excinfo.value.remote_type == "ValueError"
        assert "bad value 7.0" in str(excinfo.value)
        assert marshalled_bytes(server) == 0

    def test_matches_marshalled_path_exactly(self):
        errors = []
        for server, client, stub, _ in (make_pair(),
                                        make_pair(enveloped=True)):
            with pytest.raises(RemoteInvocationError) as excinfo:
                stub.boom(1.5)
            errors.append((excinfo.value.remote_type, str(excinfo.value)))
        assert errors[0] == errors[1]

    def test_oneway_exception_swallowed(self):
        server, client, stub, _ = make_pair()
        assert stub.misfire(1.0) is None   # never surfaces, like the wire

    def test_unknown_servant_parity(self):
        import dataclasses
        server, client, stub, _ = make_pair()
        ghost = dataclasses.replace(stub._ref, key="no/such/servant")
        with pytest.raises(RemoteInvocationError) as excinfo:
            client.invoke(ghost, ECHO.operation("echo"), (1.0,))
        assert excinfo.value.remote_type == "ObjectNotFound"

    def test_shutdown_peer_fails_with_communication_error(self):
        server, client, stub, _ = make_pair()
        assert stub.echo(1.0) == 2.0       # the stub is now bound
        server.shutdown()
        with pytest.raises(CommunicationError):
            stub.echo(1.0)
        with pytest.raises(CommunicationError):
            stub.fire(1.0)


class TestInterceptors:
    def test_client_and_server_interceptors_fire_in_order(self,
                                                          unbound_calls):
        server, client, stub, _ = make_pair()
        order = []
        client.add_client_interceptor(
            lambda ref, op, args: order.append(("client", op.name,
                                                tuple(args))))
        server.add_server_interceptor(
            lambda key, op, args: order.append(("server", op.name,
                                                tuple(args))))
        stub.echo(4.0)
        assert order == [("client", "echo", (4.0,)),
                         ("server", "echo", (4.0,))]
        assert marshalled_bytes(server) == 0
        assert unbound_calls == []

    def test_client_interceptor_veto_prevents_dispatch(self):
        server, client, stub, _ = make_pair()

        def veto(ref, operation, args):
            raise PermissionError("denied by policy")

        client.add_client_interceptor(veto)
        with pytest.raises(PermissionError):
            stub.echo(1.0)
        assert server.requests_handled == 0

    def test_wire_meter_prices_direct_calls_like_the_wire(self,
                                                           unbound_calls):
        from repro.orb import WireMeter

        def metered_calls(client, server):
            client_meter, server_meter = WireMeter(), WireMeter()
            client.add_client_interceptor(client_meter)
            server.add_server_interceptor(server_meter)
            ref = server.activate(EchoServant(), ECHO, key="echo")
            stub = client.stub(ref, ECHO)
            stub.fire(2.0)
            stub.echo(1.0)    # two-way: the oneway before it has landed
            return client_meter, server_meter

        domain = InProcDomain()
        direct_client = Orb("client", domain=domain)
        direct = metered_calls(direct_client, Orb("server", domain=domain))
        assert unbound_calls == []
        # The reference: request bytes a real socket carried for the
        # same two calls.
        tcp_client = Orb("tcp-client", domain=InProcDomain(), tcp=True)
        tcp_server = Orb("tcp-server", domain=InProcDomain(), tcp=True)
        try:
            wire = metered_calls(tcp_client, tcp_server)
            on_the_wire = tcp_client._tcp.stats.bytes_sent
        finally:
            tcp_client.shutdown()
            tcp_server.shutdown()
        assert on_the_wire > 0
        for meter in (*direct, *wire):
            assert meter.bytes == on_the_wire
            assert meter.requests == 2
            assert set(meter.bytes_by_operation) == {"echo", "fire"}
        assert direct_client.stats()["bytes_sent"] == 0


def submission(instrumented: bool):
    """One ASCT submission on a 4-node grid, run to completion.  An
    instrumented grid records metrics and the journal and prices every
    request with the wire meter."""
    grid = Grid(seed=7, lupa_enabled=False)
    grid.add_cluster("c0")
    for i in range(4):
        grid.add_node("c0", f"n{i}")
    asct = grid.make_asct("c0")
    if instrumented:
        grid.enable_metrics()
        grid.enable_journal()
        grid.enable_wire_meter()
    job_id = asct.submit(ApplicationSpec(name="e2e", tasks=2))
    assert grid.wait_for_job(job_id, max_seconds=4 * 3600.0)
    return grid, job_id


class TestInstrumentsKeepThePath:
    def test_instrumented_grid_runs_the_same_requests(self, unbound_calls):
        plain, _ = submission(instrumented=False)
        instrumented, job_id = submission(instrumented=True)
        assert unbound_calls == []      # every call was bound, both runs
        assert instrumented.wire_meter.requests > 0
        assert instrumented.protocol_stats() == plain.protocol_stats()
        assert instrumented.protocol_stats()["bytes_sent"] == 0
        assert instrumented.loop.events_fired == plain.loop.events_fired
        # ... and the journal tells what happened to the job.
        journal = instrumented.journal
        assert len(journal.select(type="task_scheduled", job_id=job_id)) == 2
        assert len(journal.select(type="task_completed", job_id=job_id)) == 2


class TestAuthGating:
    def test_client_credentials_force_marshalled_path(self):
        server, client, stub, _ = make_pair(enveloped=True)
        assert stub.echo(1.0) == 2.0
        assert marshalled_bytes(server) > 0
        assert server.current_principal == "alice"

    def test_require_auth_target_forces_marshalled_path(self):
        ring = KeyRing()
        ring.add("alice", b"alice-key")
        server, client, stub, _ = make_pair(keyring=ring, require_auth=True)
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.echo(1.0)   # unauthenticated: rejected, not dispatched
        assert excinfo.value.remote_type == "AuthenticationError"
        assert marshalled_bytes(server) > 0

    def test_auth_requirement_is_read_per_call_not_cached(self):
        ring = KeyRing()
        ring.add("alice", b"alice-key")
        server, client, stub, _ = make_pair(keyring=ring)
        assert stub.echo(1.0) == 2.0
        server.require_auth = True
        with pytest.raises(RemoteInvocationError):
            stub.echo(1.0)


@pytest.fixture
def unbound_calls(monkeypatch):
    """Names of the operations that went through ``Orb.invoke``: a
    bound stub call never does."""
    calls = []
    invoke = Orb.invoke

    def counting(self, ref, operation, args):
        calls.append(operation.name)
        return invoke(self, ref, operation, args)

    monkeypatch.setattr(Orb, "invoke", counting)
    return calls


def bound_pair(**server_kwargs):
    """:func:`make_pair` after one bound call of each kind."""
    server, client, stub, servant = make_pair(**server_kwargs)
    assert stub.echo(1.0) == 2.0
    assert stub.fire(1.0) is None
    return server, client, stub, servant


class TripleServant(EchoServant):
    def echo(self, x):
        return x * 3


class TestBoundCalls:
    """A plain collocated stub call binds to the servant method; every
    change that could alter what a call does re-derives the binding on
    the very next call."""

    def test_plain_calls_bind_and_skip_invoke(self, unbound_calls):
        server, client, stub, servant = bound_pair()
        for x in (2.0, 3.0):
            assert stub.echo(x) == 2 * x
            stub.fire(x)
        assert unbound_calls == []
        assert servant.fired == [1.0, 2.0, 3.0]
        assert server.requests_handled == 6

    def test_arg_count_still_checked_on_a_bound_stub(self):
        server, client, stub, _ = bound_pair()
        with pytest.raises(TypeError):
            stub.echo(1.0, 2.0)
        with pytest.raises(TypeError):
            stub.fire()
        assert server.requests_handled == 2

    def test_counter_parity_with_the_marshalled_path(self, unbound_calls):
        direct = make_pair()
        wire = make_pair(enveloped=True)
        counts = []
        for server, client, stub, _ in (direct, wire):
            for i in range(25):
                stub.echo(float(i))
                stub.fire(float(i))
                with pytest.raises(RemoteInvocationError):
                    stub.boom(float(i))
                stub.misfire(float(i))
            snapshot = {**client.stats(), "handled": server.requests_handled,
                        "received": server.stats()["requests_received"]}
            counts.append({k: v for k, v in snapshot.items()
                           if not k.startswith("bytes_")})
        assert counts[0] == counts[1]
        assert counts[0]["requests_sent"] == 100
        assert counts[0]["replies_received"] == 50
        # Every direct call was bound; every enveloped one went through
        # invoke.
        assert len(unbound_calls) == 100

    def test_client_interceptor_added(self):
        server, client, stub, _ = bound_pair()
        seen = []
        client.add_client_interceptor(
            lambda ref, op, args: seen.append(op.name))
        stub.echo(1.0)
        assert seen == ["echo"]

    def test_server_interceptor_added(self):
        server, client, stub, _ = bound_pair()
        seen = []
        server.add_server_interceptor(
            lambda key, op, args: seen.append((op.name, type(args))))
        stub.fire(1.0)
        assert seen == [("fire", list)]

    def test_client_credentials_set(self):
        ring = KeyRing()
        ring.add("alice", b"alice-key")
        server, client, stub, _ = bound_pair(keyring=ring)
        assert marshalled_bytes(server) == 0
        client.credentials = Credentials("alice", b"alice-key")
        assert stub.echo(1.0) == 2.0
        assert marshalled_bytes(server) > 0
        assert server.current_principal == "alice"

    def test_server_require_auth_set(self):
        ring = KeyRing()
        ring.add("alice", b"alice-key")
        server, client, stub, _ = bound_pair(keyring=ring)
        server.require_auth = True
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.echo(1.0)
        assert excinfo.value.remote_type == "AuthenticationError"

    def test_deactivate(self):
        server, client, stub, servant = bound_pair()
        server.deactivate(stub.ref.key)
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.echo(1.0)
        assert excinfo.value.remote_type == "ObjectNotFound"
        assert stub.fire(2.0) is None           # swallowed, as on the wire
        assert servant.fired == [1.0]

    def test_deactivate_then_activate_at_the_same_key(self):
        server, client, stub, _ = bound_pair()
        server.deactivate(stub.ref.key)
        server.activate(TripleServant(), ECHO, key=stub.ref.key)
        assert stub.echo(1.0) == 3.0

    def test_peer_shut_down(self):
        server, client, stub, _ = bound_pair()
        server.shutdown()
        with pytest.raises(CommunicationError):
            stub.echo(1.0)
        with pytest.raises(CommunicationError):
            stub.fire(1.0)

    def test_another_orb_joins_the_domain(self, monkeypatch):
        server, client, stub, _ = bound_pair()
        binds = []
        bind = Orb._bind

        def counting(self, ref, operation):
            binds.append(operation.name)
            return bind(self, ref, operation)

        monkeypatch.setattr(Orb, "_bind", counting)
        assert stub.echo(1.0) == 2.0
        assert binds == []
        Orb("bystander", domain=client.domain)
        assert stub.echo(1.0) == 2.0
        assert stub.echo(1.0) == 2.0
        assert binds == ["echo"]

    def test_a_missing_servant_is_bound_to_its_refusal(self,
                                                       unbound_calls):
        server, client, stub, _ = make_pair()
        seen = []
        server.add_server_interceptor(
            lambda key, op, args: seen.append(key))
        late = client.stub(dataclasses.replace(stub.ref, key="late/echo"),
                           ECHO)
        with pytest.raises(RemoteInvocationError) as excinfo:
            late.echo(1.0)
        assert excinfo.value.remote_type == "ObjectNotFound"
        assert seen == []     # refused before any server instrument
        assert unbound_calls == []
        server.activate(EchoServant(), ECHO, key="late/echo")
        assert late.echo(1.0) == 2.0
        assert seen == ["late/echo"]
        assert unbound_calls == []

    def test_threads_calling_through_one_stub(self):
        server, client, stub, servant = make_pair()
        calls, threads_n = 2000, 4      # more threads than cores
        errors = []

        def worker(base):
            try:
                for i in range(calls):
                    assert stub.echo(float(i)) == 2.0 * i
                    stub.fire(base + i)
            except Exception as exc:    # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t * calls,))
                   for t in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        total = 2 * calls * threads_n
        assert sorted(servant.fired) == list(range(calls * threads_n))
        assert server.requests_handled == total
        assert server.stats()["requests_received"] == total
        assert client.stats()["requests_sent"] == total
        assert client.stats()["replies_received"] == total // 2


class TestShutdown:
    def test_a_shut_down_orb_dispatches_nothing(self):
        server, client, stub, servant = bound_pair()
        key, echo = stub.ref.key, ECHO.operation("echo")
        server.shutdown()
        reply = CdrDecoder(server.handle_request_bytes(
            _encode_request(key, echo, (1.0,))))
        assert reply.read_octet() == 1                  # exception status
        assert reply.read_string() == "ObjectNotFound"
        with pytest.raises(CommunicationError):
            stub.fire(2.0)          # bound before the shutdown
        assert servant.fired == [1.0]


class TestStubAttributes:
    def test_undeclared_operation_is_both_errors(self):
        _, _, stub, _ = make_pair()
        with pytest.raises(BadOperation):
            stub.no_such_operation
        with pytest.raises(AttributeError):
            stub.no_such_operation
        assert not hasattr(stub, "no_such_operation")
        assert getattr(stub, "no_such_operation", None) is None

    def test_private_names_never_consult_the_interface(self):
        _, _, stub, _ = make_pair()
        with pytest.raises(AttributeError) as excinfo:
            stub._no_such_attribute
        assert not isinstance(excinfo.value, BadOperation)

    def test_copy_of_a_bound_stub_calls_the_same_servant(self):
        server, _, stub, servant = bound_pair()
        twin = copy.copy(stub)
        assert twin.ref == stub.ref
        assert twin.echo(5.0) == 10.0
        twin.fire(6.0)
        assert servant.fired == [1.0, 6.0]
        assert server.requests_handled == 4
