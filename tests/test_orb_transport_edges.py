"""Edge-case tests for the TCP transport.

Malformed wire input (empty frames, oversized frames, connections cut
mid-frame, arbitrary bytes, requests for retired reserved keys) must
never kill a serving thread, dispatch anything or poison other callers;
frame-size limits are enforced in both directions; concurrent invokes
are serialised per peer by a lock that outlives any one socket; Nagle
is off on every socket; and a closed transport leaves no thread behind.
"""

import gc
import socket
import statistics
import struct
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.orb.cdr import CdrDecoder, CdrEncoder, String, Void
from repro.orb.core import Orb
from repro.orb.exceptions import CommunicationError
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import (
    MAX_FRAME_BYTES,
    InProcDomain,
    _send_frame,
)

ECHO_INTERFACE = InterfaceDef("test/Echo", [
    Operation("echo", (Parameter("text", String),), returns=String),
    Operation("note", (Parameter("text", String),), Void, oneway=True),
])


class Echo:
    def __init__(self):
        self.calls = []

    def echo(self, text):
        self.calls.append(text)
        return text

    def note(self, text):
        self.calls.append(text)


def make_server(servant=None):
    orb = Orb("edge-server", domain=InProcDomain(), tcp=True)
    ref = orb.activate(servant if servant is not None else Echo(),
                       ECHO_INTERFACE, key="test/echo")
    return orb, ref


def make_client():
    return Orb("edge-client", domain=InProcDomain(), tcp=True)


def raw_connect(orb):
    transport = orb._tcp
    return socket.create_connection((transport.host, transport.port),
                                    timeout=5)


def request_payload(key, operation, body=b""):
    enc = CdrEncoder()
    enc.write_string(key)
    enc.write_string(operation)
    return enc.getvalue() + body


def frame(payload, flag=1):
    """A hand-built frame (flag byte 1 = reply expected)."""
    return struct.pack(">I", len(payload) + 1) + bytes((flag,)) + payload


def echo_payload(text):
    enc = CdrEncoder()
    enc.write_string("test/echo")
    enc.write_string("echo")
    enc.write_string(text)
    return enc.getvalue()


def echo_frame(text):
    return frame(echo_payload(text))


def recv_reply(sock):
    header = sock.recv(4)
    (length,) = struct.unpack(">I", header)
    data = b""
    while len(data) < length:
        chunk = sock.recv(length - len(data))
        assert chunk, "server closed mid-reply"
        data += chunk
    dec = CdrDecoder(data)
    assert dec.read_octet() == 0   # status ok
    return dec.read_string()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestMalformedFrames:
    def test_empty_frame_is_dropped_and_connection_keeps_serving(self):
        server, _ = make_server()
        try:
            with raw_connect(server) as sock:
                sock.sendall(struct.pack(">I", 0))   # zero-length frame
                sock.sendall(echo_frame("hi"))
                assert recv_reply(sock) == "hi"
            assert server._tcp.frames_rejected == 1
        finally:
            server.shutdown()

    def test_unknown_flag_byte_is_dropped_undispatched(self):
        servant = Echo()
        server, _ = make_server(servant)
        enc = CdrEncoder()
        enc.write_string("dropped")
        try:
            with raw_connect(server) as sock:
                # A valid oneway request behind a flag that is neither
                # oneway (0) nor two-way (1).
                sock.sendall(frame(request_payload("test/echo", "note",
                                                   enc.getvalue()), flag=7))
                sock.sendall(echo_frame("hi"))
                assert recv_reply(sock) == "hi"
            assert servant.calls == ["hi"]
            assert server._tcp.frames_rejected == 1
        finally:
            server.shutdown()

    def test_oversized_inbound_frame_drops_the_connection(self):
        server, _ = make_server()
        try:
            with raw_connect(server) as sock:
                # A header claiming more than MAX_FRAME_BYTES must kill
                # the connection before any allocation happens.
                sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
                sock.settimeout(5)
                assert sock.recv(1) == b""   # server closed it
            # The transport itself survives: a well-formed connection
            # right after still gets served.
            with raw_connect(server) as sock:
                sock.sendall(echo_frame("ok"))
                assert recv_reply(sock) == "ok"
        finally:
            server.shutdown()

    def test_oversized_outbound_frame_fails_fast(self, monkeypatch):
        import repro.orb.transport as transport_mod

        monkeypatch.setattr(transport_mod, "MAX_FRAME_BYTES", 64)
        with pytest.raises(CommunicationError):
            # Rejected before the socket is touched (hence None works).
            _send_frame(None, b"x" * 65)

    def test_peer_close_mid_frame_does_not_kill_the_server(self):
        server, ref = make_server()
        client = make_client()
        try:
            with raw_connect(server) as sock:
                sock.sendall(struct.pack(">I", 100) + b"only ten b")
            # The half-written connection is gone; a real client on a
            # fresh connection is unaffected.
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("still alive") == "still alive"
        finally:
            client.shutdown()
            server.shutdown()


# -- hostile bytes -----------------------------------------------------------
#
# A hostile stream is a list of ``(kind, replies, bytes)`` pieces written
# raw to one connection.  "request", "old-batch" and "zero" pieces are
# complete frames the server must answer (or skip) and keep serving
# after; the rest leave the connection for the server's close to resolve.

_nul_keys = st.one_of(
    st.sampled_from(["\x00batch", "\x00pipe"]),
    st.text(max_size=12).map(lambda t: "\x00" + t)
    .filter(lambda k: k != "\x00trace-ctx"),
)

_nul_requests = st.builds(
    lambda key, op, body, flag: (
        "request", flag, frame(request_payload(key, op, body), flag)),
    _nul_keys,
    st.one_of(st.sampled_from(["negotiate", "echo"]), st.text(max_size=8)),
    st.binary(max_size=64),
    st.sampled_from([0, 1]),
)


def old_batch_payload(texts):
    """A PR 10 ``"\\x00batch"`` payload wrapping valid echo requests: a
    parser that still honoured the key would dispatch every one."""
    enc = CdrEncoder()
    enc.write_string("\x00batch")
    enc.write_ulong(len(texts))
    for text in texts:
        enc.write_octets(echo_payload(text))
    return enc.getvalue()


_old_batches = st.builds(
    lambda texts, flag: ("old-batch", flag,
                         frame(old_batch_payload(texts), flag)),
    st.lists(st.text(max_size=8), min_size=1, max_size=3),
    st.sampled_from([0, 1]),
)

_zero_frames = st.just(("zero", 0, struct.pack(">I", 0)))

_raw = st.binary(min_size=1, max_size=200).map(lambda b: ("raw", 0, b))

_truncated = st.builds(
    lambda piece, cut: ("truncated", 0, piece[2][:cut % len(piece[2])]),
    st.one_of(_nul_requests, _old_batches), st.integers(min_value=0),
)

_over_limit = st.builds(
    lambda length, tail: ("over-limit", 0, struct.pack(">I", length) + tail),
    st.integers(min_value=MAX_FRAME_BYTES + 1, max_value=2 ** 32 - 1),
    st.binary(max_size=32),
)

_streams = st.lists(
    st.one_of(_nul_requests, _old_batches, _zero_frames, _raw, _truncated,
              _over_limit),
    min_size=1, max_size=5,
)

_COMPLETE_FRAMES = ("request", "old-batch", "zero")


def exchange(server, data):
    """Write ``data`` raw, half-close, and return the frames the server
    sent before it closed its side — by which point the serving thread
    has consumed the whole stream."""
    received = b""
    with raw_connect(server) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except OSError:
            pass   # the server reset a connection it had given up on
    frames = []
    while received:
        (length,) = struct.unpack(">I", received[:4])
        frames.append(received[4:4 + length])
        received = received[4 + length:]
    return frames


def exception_type(reply):
    dec = CdrDecoder(reply)
    assert dec.read_octet() == 1   # exception status
    return dec.read_string()


class TestHostileBytes:
    def test_hostile_streams_dispatch_nothing_and_kill_nothing(
            self, monkeypatch):
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        servant = Echo()
        server, _ = make_server(servant)

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(stream=_streams)
        def attack(stream):
            dispatched = len(servant.calls)
            data = b"".join(piece for _kind, _replies, piece in stream)
            complete = all(kind in _COMPLETE_FRAMES
                           for kind, _replies, _piece in stream)
            if complete:
                # Every frame is whole, so the same connection must still
                # be serving when a valid request follows them.
                data += echo_frame("same-connection")
                dispatched += 1
            replies = exchange(server, data)
            if complete:
                answered = [kind for kind, expects_reply, _piece in stream
                            if expects_reply]
                assert len(replies) == len(answered) + 1
                for kind, reply in zip(answered, replies):
                    # A named retired key is an unknown object like any
                    # other; an old batch body may not even parse that far.
                    assert exception_type(reply) in (
                        ("ObjectNotFound",) if kind == "request"
                        else ("ObjectNotFound", "MarshalError"))
                dec = CdrDecoder(replies[-1])
                assert dec.read_octet() == 0
                assert dec.read_string() == "same-connection"
            with raw_connect(server) as sock:
                sock.sendall(echo_frame("fresh"))
                assert recv_reply(sock) == "fresh"
            assert len(servant.calls) == dispatched + 1
            assert server._tcp._accept_thread.is_alive()

        try:
            attack()
            assert wait_for(lambda: not server._tcp._server_conns)
            assert set(servant.calls) == {"same-connection", "fresh"}
            assert crashed == []
        finally:
            server.shutdown()

    def test_retired_reserved_keys_are_unknown_objects(self):
        servant = Echo()
        server, _ = make_server(servant)
        try:
            # PR 10's negotiation probe, byte for byte: no ack comes back.
            probe = frame(request_payload("\x00pipe", "negotiate"))
            (reply,) = exchange(server, probe)
            assert exception_type(reply) == "ObjectNotFound"
            (reply,) = exchange(server, frame(old_batch_payload(["a", "b"])))
            assert exception_type(reply) == "ObjectNotFound"
            assert servant.calls == []
        finally:
            server.shutdown()


class TestNagle:
    def test_nodelay_is_set_on_both_ends(self):
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("x") == "x"
            (client_sock,) = client._tcp._client_socks.values()
            (server_sock,) = server._tcp._server_conns
            for sock in (client_sock, server_sock):
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0
        finally:
            client.shutdown()
            server.shutdown()

    def test_two_way_after_oneway_does_not_stall(self):
        # With Nagle on, the two-way request sits behind the oneway's
        # unacknowledged segment until the peer's delayed ACK (~44 ms).
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            stub.echo("warm")
            samples = []
            for i in range(20):
                stub.note(f"n{i}")
                start = time.perf_counter()
                stub.echo("x")
                samples.append(time.perf_counter() - start)
            assert statistics.median(samples) < 0.020
        finally:
            client.shutdown()
            server.shutdown()


class TestConcurrentInvokes:
    def test_threaded_echo_storm(self):
        server, ref = make_server()
        client = make_client()
        errors = []

        def worker(tid):
            try:
                stub = client.stub(ref, ECHO_INTERFACE)
                for i in range(25):
                    text = f"t{tid}-{i}"
                    if stub.echo(text) != text:
                        raise AssertionError("echo mismatch")
            except Exception as exc:
                errors.append(exc)

        try:
            threads = [threading.Thread(target=worker, args=(tid,))
                       for tid in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert server.requests_handled >= 8 * 25
        finally:
            client.shutdown()
            server.shutdown()


    def test_replies_never_cross_while_connections_are_dropped(self):
        # Eight callers share one peer while a saboteur keeps killing
        # the socket under them.  A call may fail; a call that succeeds
        # must have read its own reply — which holds only if every
        # socket to the peer, old or new, is used under the same lock.
        server, ref = make_server()
        client = make_client()
        transport, address = client._tcp, server._tcp.address
        stop = threading.Event()
        crossed, completed = [], []

        def worker(tid):
            stub = client.stub(ref, ECHO_INTERFACE)
            i = 0
            while not stop.is_set():
                text = f"t{tid}-{i}"
                i += 1
                try:
                    if stub.echo(text) != text:
                        crossed.append(text)
                    completed.append(text)
                except CommunicationError:
                    pass   # this call's socket was shot; the next reconnects
                except Exception as exc:   # e.g. a garbled reply
                    crossed.append(exc)

        def saboteur():
            while not stop.is_set():
                sock = transport._client_socks.get(address)
                if sock is not None:
                    try:
                        sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                time.sleep(0.002)

        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(8)]
        threads.append(threading.Thread(target=saboteur))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert crossed == []
            assert completed
        finally:
            sys.setswitchinterval(interval)
            client.shutdown()
            server.shutdown()


class TestConnectionBookkeeping:
    def test_server_prunes_closed_connections(self):
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("x") == "x"
            assert wait_for(lambda: len(server._tcp._server_conns) == 1)
        finally:
            client.shutdown()
        try:
            # Closing the client must drain the server's connection list,
            # not leave a dead socket behind for the transport's lifetime.
            assert wait_for(lambda: len(server._tcp._server_conns) == 0)
        finally:
            server.shutdown()

    def test_peer_lock_outlives_a_failed_invoke(self):
        # The lock is what serialises a connection: if a failing caller
        # dropped it, a thread already waiting on the old lock and a
        # newcomer with a fresh one would share the next socket.
        server, ref = make_server()
        client = make_client()
        try:
            stub = client.stub(ref, ECHO_INTERFACE)
            assert stub.echo("x") == "x"
            transport = client._tcp
            address = server._tcp.address
            lock = transport._conn_locks[address]
            # Kill the socket under the client: the next invoke fails
            # and drops the connection, and must keep the lock.
            transport._client_socks[address].shutdown(socket.SHUT_RDWR)
            with pytest.raises(CommunicationError):
                stub.echo("lost")
            assert address not in transport._client_socks
            assert transport._conn_locks[address] is lock
            # And the client recovers by reconnecting transparently.
            assert stub.echo("y") == "y"
            assert transport._conn_locks[address] is lock
        finally:
            client.shutdown()
            server.shutdown()

    def test_lock_table_is_bounded_by_peers_not_by_drops(self):
        servers = [make_server() for _ in range(4)]
        client = make_client()
        try:
            stubs = [client.stub(ref, ECHO_INTERFACE) for _, ref in servers]
            transport = client._tcp
            for _ in range(3):
                for stub in stubs:
                    assert stub.echo("x") == "x"
                for orb, _ in servers:
                    transport._drop_connection(orb._tcp.address)
                assert transport._client_socks == {}
                assert len(transport._conn_locks) == len(servers)
        finally:
            client.shutdown()
            for orb, _ in servers:
                orb.shutdown()


class TestLifecycle:
    def test_shutdown_leaves_no_thread_and_no_orb_behind(self):
        def cycle():
            server, ref = make_server()
            client = make_client()
            assert client.stub(ref, ECHO_INTERFACE).echo("x") == "x"
            client.shutdown()
            server.shutdown()
            return weakref.ref(server), weakref.ref(client)

        before = threading.active_count()
        refs = [ref for _ in range(20) for ref in cycle()]
        # close() joins the accept thread; a connection's serving thread
        # exits on its own as soon as its socket is shut down.
        assert wait_for(lambda: threading.active_count() == before)
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
