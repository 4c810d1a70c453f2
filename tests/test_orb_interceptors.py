"""Tests for ORB request interceptors (accounting and policy hooks)."""

import pytest

from repro.orb.cdr import Double, Void
from repro.orb.core import Orb
from repro.orb.exceptions import RemoteInvocationError
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import InProcDomain

ECHO = InterfaceDef(
    "test/Echo",
    [
        Operation("echo", (Parameter("x", Double),), Double),
        Operation("fire", (Parameter("x", Double),), Void, oneway=True),
    ],
)


class EchoServant:
    def __init__(self):
        self.fired = []

    def echo(self, x):
        return x

    def fire(self, x):
        self.fired.append(x)


@pytest.fixture
def pair():
    domain = InProcDomain()
    server = Orb("server", domain=domain)
    client = Orb("client", domain=domain)
    yield server, client
    server.shutdown()
    client.shutdown()


def test_client_interceptor_sees_every_call(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)
    seen = []
    client.add_client_interceptor(
        lambda ref, op, args: seen.append((op.name, args))
    )
    stub.echo(1.0)
    stub.fire(2.0)
    assert seen == [("echo", (1.0,)), ("fire", (2.0,))]


def test_server_interceptor_sees_decoded_args(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)
    seen = []
    server.add_server_interceptor(
        lambda key, op, args: seen.append((key, op.name, list(args)))
    )
    stub.echo(7.0)
    assert seen == [(ref.key, "echo", [7.0])]


def test_multiple_interceptors_run_in_order(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)
    order = []
    client.add_client_interceptor(lambda *a: order.append("first"))
    client.add_client_interceptor(lambda *a: order.append("second"))
    stub.echo(0.0)
    assert order == ["first", "second"]


def test_client_interceptor_can_veto(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)

    def veto(ref, op, args):
        raise PermissionError("outbound calls forbidden in this test")

    client.add_client_interceptor(veto)
    with pytest.raises(PermissionError):
        stub.echo(1.0)
    assert server.stats()["requests_handled"] == 0


def test_server_interceptor_exception_becomes_remote_error(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)
    server.add_server_interceptor(
        lambda key, op, args: (_ for _ in ()).throw(ValueError("denied"))
    )
    with pytest.raises(RemoteInvocationError) as excinfo:
        stub.echo(1.0)
    assert excinfo.value.remote_type == "ValueError"


def test_interceptors_do_not_alter_results(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)
    client.add_client_interceptor(lambda *a: None)
    server.add_server_interceptor(lambda *a: None)
    assert stub.echo(42.0) == 42.0


def test_client_interceptors_run_before_server_interceptors(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)
    order = []
    client.add_client_interceptor(lambda *a: order.append("client"))
    server.add_server_interceptor(lambda *a: order.append("server"))
    stub.echo(1.0)
    assert order == ["client", "server"]


def test_second_client_interceptor_exception_prevents_send(pair):
    server, client = pair
    ref = server.activate(EchoServant(), ECHO)
    stub = client.stub(ref, ECHO)
    order = []
    client.add_client_interceptor(lambda *a: order.append("first"))

    def veto(ref, op, args):
        raise PermissionError("second interceptor vetoes")

    client.add_client_interceptor(veto)
    with pytest.raises(PermissionError):
        stub.echo(1.0)
    # The first interceptor already ran, but nothing reached the server.
    assert order == ["first"]
    assert server.stats()["requests_handled"] == 0


def test_interceptors_run_on_oneway_calls(pair):
    server, client = pair
    servant = EchoServant()
    ref = server.activate(servant, ECHO)
    stub = client.stub(ref, ECHO)
    seen_client, seen_server = [], []
    client.add_client_interceptor(
        lambda ref, op, args: seen_client.append(op.name)
    )
    server.add_server_interceptor(
        lambda key, op, args: seen_server.append(op.name)
    )
    assert stub.fire(3.0) is None
    assert seen_client == ["fire"]
    assert seen_server == ["fire"]
    assert servant.fired == [3.0]


def test_server_interceptor_exception_on_oneway_skips_servant(pair):
    # A oneway call has no reply channel: the server-side interceptor
    # exception cannot propagate to the client, but it must still stop
    # the servant from running (observe-or-veto semantics hold).
    server, client = pair
    servant = EchoServant()
    ref = server.activate(servant, ECHO)
    stub = client.stub(ref, ECHO)
    server.add_server_interceptor(
        lambda key, op, args: (_ for _ in ()).throw(ValueError("denied"))
    )
    assert stub.fire(9.0) is None   # client sees nothing
    assert servant.fired == []      # but the servant never ran


def test_server_interceptor_veto_skips_servant(pair):
    server, client = pair
    servant = EchoServant()
    ref = server.activate(servant, ECHO)
    stub = client.stub(ref, ECHO)
    calls = []
    servant.echo = lambda x: calls.append(x) or x
    server.add_server_interceptor(
        lambda key, op, args: (_ for _ in ()).throw(ValueError("denied"))
    )
    with pytest.raises(RemoteInvocationError):
        stub.echo(5.0)
    assert calls == []

