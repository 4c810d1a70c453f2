"""Unit and integration tests for the ORB core, IOR, and transports."""

import pytest

from repro.orb.cdr import (
    VARIANT,
    CdrDecoder,
    Double,
    Long,
    Sequence,
    String,
    Void,
)
from repro.orb.core import Orb, _encode_request
from repro.orb.exceptions import (
    BadOperation,
    CommunicationError,
    MarshalError,
    ObjectNotFound,
    RemoteInvocationError,
)
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.ior import ObjectRef
from repro.orb.transport import InProcDomain
from repro.security.auth import Credentials, KeyRing

CALC_INTERFACE = InterfaceDef(
    "test/Calculator",
    [
        Operation("add", (Parameter("a", Double), Parameter("b", Double)), Double),
        Operation("concat", (Parameter("parts", Sequence(String)),), String),
        Operation("boom", (), Void),
        Operation("notify", (Parameter("message", String),), Void, oneway=True),
    ],
)


class Calculator:
    def __init__(self):
        self.notifications = []

    def add(self, a, b):
        return a + b

    def concat(self, parts):
        return "".join(parts)

    def boom(self):
        raise RuntimeError("kaboom")

    def notify(self, message):
        self.notifications.append(message)


@pytest.fixture
def domain():
    return InProcDomain()


@pytest.fixture
def pair(domain):
    server = Orb("server", domain=domain)
    client = Orb("client", domain=domain)
    yield server, client
    server.shutdown()
    client.shutdown()


class TestInProcInvocation:
    def test_basic_call(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        assert stub.add(2.0, 3.0) == 5.0

    def test_sequence_argument(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        assert stub.concat(["a", "b", "c"]) == "abc"

    def test_remote_exception_propagates(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.boom()
        assert excinfo.value.remote_type == "RuntimeError"
        assert "kaboom" in excinfo.value.remote_message

    def test_oneway_returns_none_and_delivers(self, pair):
        server, client = pair
        servant = Calculator()
        ref = server.activate(servant, CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        assert stub.notify("ping") is None
        assert servant.notifications == ["ping"]

    def test_wrong_arity(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        with pytest.raises(TypeError):
            stub.add(1.0)

    def test_unknown_operation(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        with pytest.raises(BadOperation):
            stub.multiply

    def test_deactivated_servant(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        server.deactivate(ref.key)
        with pytest.raises(RemoteInvocationError) as excinfo:
            stub.add(1.0, 2.0)
        assert excinfo.value.remote_type == "ObjectNotFound"

    def test_self_invocation(self, domain):
        orb = Orb("solo", domain=domain)
        ref = orb.activate(Calculator(), CALC_INTERFACE)
        assert orb.stub(ref, CALC_INTERFACE).add(1.0, 1.0) == 2.0
        orb.shutdown()

    def test_stats_count_messages_and_marshalled_bytes(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        stub.add(1.0, 2.0)
        stats = client.stats()
        assert stats["requests_sent"] == 1
        assert stats["replies_received"] == 1
        # Collocated: the message is counted, but nothing was marshalled.
        assert stats["bytes_sent"] == stats["bytes_received"] == 0
        assert server.stats()["requests_received"] == 1
        assert server.stats()["requests_handled"] == 1

    def test_stats_count_bytes_over_tcp(self):
        server = Orb("tcp-server", domain=InProcDomain(), tcp=True)
        client = Orb("tcp-client", domain=InProcDomain(), tcp=True)
        try:
            ref = server.activate(Calculator(), CALC_INTERFACE)
            assert client.stub(ref, CALC_INTERFACE).add(1.0, 2.0) == 3.0
            stats = client.stats()
            assert stats["requests_sent"] == stats["replies_received"] == 1
            assert stats["bytes_sent"] > 0
            assert stats["bytes_received"] > 0
            assert server.stats()["bytes_received"] == stats["bytes_sent"]
        finally:
            client.shutdown()
            server.shutdown()


JUNK = b"\x00" * 8


class TestTrailingBytes:
    """A message with bytes after its last value is refused, on the
    server (requests) and on the client (replies) alike."""

    def test_request_with_trailing_bytes_is_refused(self, pair):
        server, _client = pair
        calculator = Calculator()
        ref = server.activate(calculator, CALC_INTERFACE)
        add = CALC_INTERFACE.operation("add")
        reply = CdrDecoder(server.handle_request_bytes(
            _encode_request(ref.key, add, (1.5, 1.5)) + JUNK))
        assert reply.read_octet() == 1                  # exception status
        assert reply.read_string() == "MarshalError"
        # The same request without the junk is served.
        reply = CdrDecoder(server.handle_request_bytes(
            _encode_request(ref.key, add, (1.5, 1.5))))
        assert reply.read_octet() == 0
        assert reply.read_double() == 3.0

    def test_oneway_with_trailing_bytes_is_not_dispatched(self, pair):
        server, _client = pair
        calculator = Calculator()
        ref = server.activate(calculator, CALC_INTERFACE)
        notify = CALC_INTERFACE.operation("notify")
        server.handle_request_bytes(
            _encode_request(ref.key, notify, ("hi",)) + JUNK)
        assert calculator.notifications == []

    @pytest.mark.parametrize("operation, args", [
        ("add", (1.5, 1.5)),     # a result
        ("boom", ()),            # an exception's two strings
    ])
    def test_reply_with_trailing_bytes_is_refused(self, pair, monkeypatch,
                                                  operation, args):
        server, client = pair
        # Signed requests marshal even between collocated ORBs.
        server.keyring = KeyRing()
        server.keyring.add("alice", b"alice-key")
        client.credentials = Credentials("alice", b"alice-key")
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref, CALC_INTERFACE)
        handle = server.handle_request_bytes
        monkeypatch.setattr(server, "handle_request_bytes",
                            lambda payload: handle(payload) + JUNK)
        with pytest.raises(MarshalError):
            getattr(stub, operation)(*args)


STATE_INTERFACE = InterfaceDef("test/State", [
    Operation("state", (), VARIANT),
])


class _State:
    def state(self):
        return {"ok": True}


#: Replies no honest ORB writes; each let a RecursionError or a
#: UnicodeDecodeError out of ``Orb.invoke`` before decoding was bounded.
HOSTILE_REPLIES = {
    # status ok, then 5,000 nested lists (tag 6 at offset 1: pad 2)
    "deep-variant": b"\x00\x06\x00\x00\x01\x00\x00\x00"
                    + b"\x06\x00\x00\x00\x01\x00\x00\x00" * 4_999 + b"\x00",
    # status ok, then {b"\xff\xfe": None}
    "key-not-utf8": b"\x00\x07\x00\x00\x01\x00\x00\x00\x03\x00\x00\x00"
                    b"\xff\xfe\x00\x00",
    # an exception reply whose type name is not UTF-8
    "exception-not-utf8": b"\x01\x00\x00\x00\x03\x00\x00\x00\xc3\x28\x00"
                          b"\x00\x01\x00\x00\x00\x00",
}


class TestHostileReplies:
    """A reply the client cannot decode raises :class:`MarshalError` —
    an :class:`OrbError`, which every caller of a remote operation
    handles — and nothing else."""

    @pytest.mark.parametrize("reply", HOSTILE_REPLIES.values(),
                             ids=HOSTILE_REPLIES.keys())
    def test_an_undecodable_reply_raises_marshal_error(self, pair,
                                                       monkeypatch, reply):
        server, client = pair
        ref = server.activate(_State(), STATE_INTERFACE)
        operation = STATE_INTERFACE.operation("state")
        assert client.invoke(ref, operation, ()) == {"ok": True}
        monkeypatch.setattr(server, "handle_request_bytes",
                            lambda payload: reply)
        with pytest.raises(MarshalError):
            client.invoke(ref, operation, ())

    def test_the_grm_survives_an_lrm_that_answers_garbage(self, monkeypatch):
        from repro.apps.spec import ApplicationSpec
        from repro.core.grid import Grid

        grid = Grid(seed=0, lupa_enabled=False, auth_secret=b"pin")
        grid.add_cluster("c")
        node = grid.add_node("c", "n0", dedicated=True)
        grid.run_for(60)
        monkeypatch.setattr(node.orb, "handle_request_bytes", lambda payload:
                            HOSTILE_REPLIES["exception-not-utf8"])
        job_id = grid.submit(ApplicationSpec(name="j", work_mips=1e3), "c")
        grid.run_for(60)        # negotiation fails; the loop carries on
        grm = grid.clusters["c"].grm
        assert grm.job_status(job_id)["state"] == "pending"
        assert grm.stats.negotiation_rounds > 0


class TestServantValidation:
    def test_incomplete_servant_rejected(self, domain):
        orb = Orb(domain=domain)

        class Partial:
            def add(self, a, b):
                return a + b

        with pytest.raises(BadOperation):
            orb.activate(Partial(), CALC_INTERFACE)
        orb.shutdown()

    def test_duplicate_key_rejected(self, domain):
        orb = Orb(domain=domain)
        orb.activate(Calculator(), CALC_INTERFACE, key="calc")
        with pytest.raises(ValueError):
            orb.activate(Calculator(), CALC_INTERFACE, key="calc")
        orb.shutdown()

    @pytest.mark.parametrize("key", ["\x00", "\x00batch", "\x00trace-ctx"])
    def test_nul_prefixed_key_rejected(self, domain, key):
        # Keys opening with NUL are reserved by the wire format: none is
        # ever served, so a request naming one is an unknown object.
        orb = Orb(domain=domain)
        with pytest.raises(ValueError):
            orb.activate(Calculator(), CALC_INTERFACE, key=key)
        add = CALC_INTERFACE.operation("add")
        dec = CdrDecoder(orb.handle_request_bytes(
            _encode_request(key, add, (1.0, 2.0))))
        assert dec.read_octet() == 1   # exception status
        assert dec.read_string() == "ObjectNotFound"
        orb.shutdown()

    def test_deactivate_unknown_key(self, domain):
        orb = Orb(domain=domain)
        with pytest.raises(ObjectNotFound):
            orb.deactivate("ghost")
        orb.shutdown()


class TestIor:
    def test_roundtrip(self):
        ref = ObjectRef("test/Calc", "calc/1", (("inproc", "server"),))
        text = ref.to_string()
        assert text.startswith("IOR:")
        assert ObjectRef.from_string(text) == ref

    def test_multi_endpoint_roundtrip(self):
        ref = ObjectRef(
            "x", "k", (("inproc", "a"), ("tcp", "127.0.0.1:9999"))
        )
        parsed = ObjectRef.from_string(ref.to_string())
        assert parsed.endpoint_of_kind("tcp") == ("tcp", "127.0.0.1:9999")

    def test_bad_ior_string(self):
        from repro.orb.exceptions import MarshalError
        with pytest.raises(MarshalError):
            ObjectRef.from_string("not-an-ior")
        with pytest.raises(MarshalError):
            ObjectRef.from_string("IOR:zzzz")

    def test_needs_endpoint(self):
        with pytest.raises(ValueError):
            ObjectRef("x", "k", ())

    def test_stub_from_ior_string(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref.to_string(), CALC_INTERFACE)
        assert stub.add(4.0, 5.0) == 9.0

    def test_registered_interface_lookup(self, pair):
        server, client = pair
        client.register_interface(CALC_INTERFACE)
        ref = server.activate(Calculator(), CALC_INTERFACE)
        stub = client.stub(ref.to_string())
        assert stub.add(1.0, 1.0) == 2.0

    def test_unregistered_interface_rejected(self, pair):
        server, client = pair
        ref = server.activate(Calculator(), CALC_INTERFACE)
        with pytest.raises(BadOperation):
            client.stub(ref.to_string())

    def test_interface_mismatch(self, pair):
        server, client = pair
        other = InterfaceDef("test/Other", [Operation("noop", (), Void)])
        ref = server.activate(Calculator(), CALC_INTERFACE)
        with pytest.raises(BadOperation):
            client.stub(ref, other)


class TestRouting:
    def test_unreachable_endpoint(self, domain):
        client = Orb("client", domain=domain)
        ref = ObjectRef("test/Calculator", "k", (("inproc", "ghost-orb"),))
        stub = client.stub(ref, CALC_INTERFACE)
        with pytest.raises(CommunicationError):
            stub.add(1.0, 2.0)
        client.shutdown()

    def test_tcp_endpoint_without_tcp_transport(self, domain):
        client = Orb("client", domain=domain)
        ref = ObjectRef("test/Calculator", "k", (("tcp", "127.0.0.1:1"),))
        stub = client.stub(ref, CALC_INTERFACE)
        with pytest.raises(CommunicationError):
            stub.add(1.0, 2.0)
        client.shutdown()


class TestTcpTransport:
    def test_call_over_real_sockets(self):
        server_domain = InProcDomain()
        client_domain = InProcDomain()   # disjoint: forces the TCP path
        server = Orb("server", domain=server_domain, tcp=True)
        client = Orb("client", domain=client_domain, tcp=True)
        try:
            servant = Calculator()
            ref = server.activate(servant, CALC_INTERFACE)
            stub = client.stub(ref, CALC_INTERFACE)
            assert stub.add(10.0, 32.0) == 42.0
            assert stub.concat(["x", "y"]) == "xy"
            with pytest.raises(RemoteInvocationError):
                stub.boom()
        finally:
            server.shutdown()
            client.shutdown()

    def test_oneway_over_tcp(self):
        server = Orb("s2", domain=InProcDomain(), tcp=True)
        client = Orb("c2", domain=InProcDomain(), tcp=True)
        try:
            servant = Calculator()
            ref = server.activate(servant, CALC_INTERFACE)
            stub = client.stub(ref, CALC_INTERFACE)
            stub.notify("over tcp")
            stub.add(0.0, 0.0)   # synchronous call flushes the oneway
            assert servant.notifications == ["over tcp"]
        finally:
            server.shutdown()
            client.shutdown()

    def test_oneways_send_immediately_one_frame_per_call(self):
        server = Orb("s5", domain=InProcDomain(), tcp=True)
        client = Orb("c5", domain=InProcDomain(), tcp=True)
        try:
            servant = Calculator()
            ref = server.activate(servant, CALC_INTERFACE)
            stub = client.stub(ref, CALC_INTERFACE)
            stub.notify("n0")
            stub.notify("n1")
            # The two-way call returns only after both oneways before it
            # on the connection were dispatched, in order.
            assert stub.add(1.0, 1.0) == 2.0
            assert servant.notifications == ["n0", "n1"]
            # One frame per call, nothing held back on the client.
            assert client.stats()["requests_sent"] == 3
            assert server.stats()["requests_received"] == 3
        finally:
            server.shutdown()
            client.shutdown()

    def test_connection_refused(self):
        client = Orb("c3", domain=InProcDomain(), tcp=True)
        try:
            ref = ObjectRef(
                "test/Calculator", "k", (("tcp", "127.0.0.1:1"),)
            )
            stub = client.stub(ref, CALC_INTERFACE)
            with pytest.raises(CommunicationError):
                stub.add(1.0, 2.0)
        finally:
            client.shutdown()

    def test_many_sequential_calls_reuse_connection(self):
        server = Orb("s4", domain=InProcDomain(), tcp=True)
        client = Orb("c4", domain=InProcDomain(), tcp=True)
        try:
            ref = server.activate(Calculator(), CALC_INTERFACE)
            stub = client.stub(ref, CALC_INTERFACE)
            for i in range(50):
                assert stub.add(float(i), 1.0) == i + 1.0
        finally:
            server.shutdown()
            client.shutdown()


class TestDomainIsolation:
    def test_same_name_in_different_domains(self):
        d1, d2 = InProcDomain(), InProcDomain()
        orb1 = Orb("grm", domain=d1)
        orb2 = Orb("grm", domain=d2)
        orb1.shutdown()
        orb2.shutdown()

    def test_duplicate_name_in_one_domain_rejected(self, domain):
        orb1 = Orb("grm", domain=domain)
        with pytest.raises(ValueError):
            Orb("grm", domain=domain)
        orb1.shutdown()
