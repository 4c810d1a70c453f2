"""ORB transports.

Two transports share one wire format (length-framed CDR payloads):

* **in-process** — delivers requests synchronously between ORBs in the
  same Python process via a registry ("domain").  Collocated calls that
  need no auth envelope never reach :meth:`InProcTransport.invoke`: the
  ORB dispatches them directly (see :meth:`repro.orb.core.Orb.invoke`),
  counting messages but no bytes, because nothing is marshalled.  Only
  enveloped requests still cross here as CDR payloads.
* **TCP** — real sockets with a 4-byte big-endian length prefix, used by
  integration tests and the TCP microbenchmarks.

TCP framing comes in two flavours.  The legacy (default) framing carries
one flag byte (1 = reply expected) and serializes one request/reply
exchange per connection at a time.  A transport created with
``pipelined=True`` additionally *negotiates* correlation-id framing per
connection: the first request on a connection is a probe whose payload
is a request for the reserved ``"\x00pipe"`` object key.  A pipelined
server intercepts the probe and answers with an ack frame (carrying
capability flags, e.g. whether its ORB accepts oneway batch frames),
after which both sides switch that connection to correlation-id frames
and a per-connection reader thread demultiplexes replies — concurrent
invokes no longer serialize a full round-trip under ``_conn_locks``.  A
legacy server just dispatches the probe like any request and answers
with an ``ObjectNotFound`` error reply, which the client takes as
"speak legacy framing to this peer" — so mixed deployments work and
non-pipelined wires are byte-identical to before.
"""

import itertools
import socket
import struct
import threading
from typing import Optional

from repro.orb.cdr import CdrEncoder
from repro.orb.exceptions import CommunicationError

_FRAME_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- pipelined-framing constants --------------------------------------------

#: Reserved object key requested by the negotiation probe.  Servant keys
#: never start with NUL (same convention as the ORB's "\x00trace-ctx"
#: and "\x00batch" header extensions), so the probe can never collide
#: with a real object and a legacy server simply fails it with
#: ObjectNotFound.
PIPE_KEY = "\x00pipe"

#: Frame types used after a successful negotiation (legacy frames use
#: flag bytes 0x00/0x01 in the same position).
_FT_ONEWAY = 0x10    # [type][payload]            no reply
_FT_REQUEST = 0x11   # [type][corr-id:4][payload] reply expected
_FT_REPLY = 0x12     # [type][corr-id:4][payload]

_PIPE_ACK_MAGIC = b"\x00pipe-ack"
_ACK_PIPELINED = 0x01
_ACK_BATCH_OK = 0x02

#: How long a pipelined caller waits for its demultiplexed reply.
_REPLY_TIMEOUT_S = 30.0


def _build_probe() -> bytes:
    enc = CdrEncoder()
    enc.write_string(PIPE_KEY)
    enc.write_string("negotiate")
    return enc.getvalue()


_PIPE_PROBE = _build_probe()


class TransportStats:
    """Message and byte counters, kept per transport."""

    def __init__(self):
        self.requests_sent = 0
        self.replies_received = 0
        self.requests_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def snapshot(self) -> dict:
        return {
            "requests_sent": self.requests_sent,
            "replies_received": self.replies_received,
            "requests_received": self.requests_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


class InProcDomain:
    """A namespace of co-located ORBs that can call each other directly."""

    def __init__(self):
        self._orbs: dict[str, object] = {}
        #: Bumped whenever membership changes; ORBs drop their cached
        #: routes when it moves, so a departed peer is never dialled.
        self.epoch = 0

    def register(self, name: str, orb) -> None:
        if name in self._orbs:
            raise ValueError(f"an ORB named {name!r} is already registered")
        self._orbs[name] = orb
        self.epoch += 1

    def unregister(self, name: str) -> None:
        if self._orbs.pop(name, None) is not None:
            self.epoch += 1

    def lookup(self, name: str):
        return self._orbs.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._orbs


DEFAULT_DOMAIN = InProcDomain()


class InProcTransport:
    """Synchronous delivery between ORBs registered in the same domain."""

    kind = "inproc"

    def __init__(self, orb_name: str, domain: InProcDomain):
        self.orb_name = orb_name
        self.domain = domain
        self.stats = TransportStats()

    @property
    def address(self) -> str:
        return self.orb_name

    def invoke(self, address: str, payload: bytes, oneway: bool) -> Optional[bytes]:
        target = self.domain.lookup(address)
        if target is None:
            raise CommunicationError(f"no in-process ORB named {address!r}")
        self.stats.requests_sent += 1
        self.stats.bytes_sent += len(payload)
        server_stats = target.inproc_stats()
        server_stats.requests_received += 1
        server_stats.bytes_received += len(payload)
        reply = target.handle_request_bytes(payload)
        if oneway:
            return None
        server_stats.bytes_sent += len(reply)
        self.stats.replies_received += 1
        self.stats.bytes_received += len(reply)
        return reply

    def close(self) -> None:
        self.domain.unregister(self.orb_name)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise CommunicationError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME_BYTES:
        # Mirror of the receive-side check: fail fast client-side with a
        # clear error instead of poisoning the peer connection.
        raise CommunicationError(
            f"frame of {len(payload)} bytes exceeds limit"
        )
    sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _FRAME_HEADER.unpack(_recv_exact(sock, _FRAME_HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise CommunicationError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


def _set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle on a pipelined connection.

    Pipelined framing streams many small frames without intervening
    round-trips, exactly the pattern Nagle's algorithm stalls behind
    delayed ACKs.  The legacy request/reply path is left untouched — it
    self-clocks on replies, and the seed's socket setup stays as-is.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass   # non-TCP or platform without the option; purely advisory


class _PipelinedConn:
    """Client side of one correlation-id framed connection.

    ``pending`` maps correlation id -> ``[event, reply]``; the reader
    thread fills the reply slot and sets the event.  A reply slot left
    ``None`` after the event fires means the connection died.
    """

    __slots__ = ("sock", "send_lock", "pending", "pending_lock",
                 "batch_ok", "closed", "reader", "_ids")

    def __init__(self, sock: socket.socket, batch_ok: bool):
        self.sock = sock
        self.send_lock = threading.Lock()
        self.pending: dict[int, list] = {}
        self.pending_lock = threading.Lock()
        self.batch_ok = batch_ok
        self.closed = False
        self.reader: Optional[threading.Thread] = None
        self._ids = itertools.count(1)

    def next_corr(self) -> int:
        return next(self._ids) & 0xFFFFFFFF


class TcpTransport:
    """A real-socket transport: server thread plus cached client connections.

    Legacy frames carry one flag byte (1 = reply expected) before the
    CDR payload so oneway requests do not generate replies.  With
    ``pipelined=True`` each connection is upgraded — when the peer
    agrees — to correlation-id framing (see the module docstring); peers
    that do not agree keep the legacy framing, unchanged.
    """

    kind = "tcp"

    def __init__(self, orb, host: str = "127.0.0.1", port: int = 0,
                 pipelined: bool = False):
        self._orb = orb
        self.stats = TransportStats()
        self._pipelined = pipelined
        #: Malformed frames dropped by the serving loops (diagnostic;
        #: not part of TransportStats, whose key set is fixed).
        self.frames_rejected = 0
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._closing = False
        self._client_socks: dict[str, socket.socket] = {}
        self._client_lock = threading.Lock()
        # One lock per destination: a request/reply exchange must not
        # interleave with another thread's frames on the same connection.
        # (On a pipelined connection the lock only guards negotiation;
        # after that, sends interleave freely under the conn's send_lock.)
        self._conn_locks: dict[str, threading.Lock] = {}
        self._pipelined_conns: dict[str, _PipelinedConn] = {}
        # Peers that answered the probe with an error reply speak legacy
        # framing; remembered so the probe is sent once per peer.
        self._legacy_addrs: set[str] = set()
        self._server_conns: list[socket.socket] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"orb-tcp-{self.port}", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- server side ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return   # server socket closed
            self._server_conns.append(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while not self._closing:
                    try:
                        frame = _recv_frame(conn)
                    except (CommunicationError, OSError):
                        return
                    if not frame:
                        # A zero-length frame has no flag byte; drop it
                        # and keep serving instead of letting IndexError
                        # silently kill this thread.
                        self.frames_rejected += 1
                        continue
                    expects_reply = frame[0] == 1
                    payload = frame[1:]
                    if (self._pipelined and expects_reply
                            and payload == _PIPE_PROBE):
                        # Framing negotiation: ack (with capability
                        # flags) and upgrade this connection.  Control
                        # traffic stays out of the request counters.
                        try:
                            _send_frame(conn, self._ack_payload())
                        except OSError:
                            return
                        self._serve_pipelined(conn)
                        return
                    self.stats.requests_received += 1
                    self.stats.bytes_received += len(payload)
                    reply = self._orb.handle_request_bytes(payload)
                    if expects_reply:
                        try:
                            _send_frame(conn, reply)
                            self.stats.bytes_sent += len(reply)
                        except OSError:
                            return
        finally:
            # Prune: a transport otherwise accumulates one dead socket
            # per connection ever accepted, for its whole lifetime.
            try:
                self._server_conns.remove(conn)
            except ValueError:
                pass

    def _ack_payload(self) -> bytes:
        flags = _ACK_PIPELINED
        if getattr(self._orb, "accepts_batch", False):
            flags |= _ACK_BATCH_OK
        return _PIPE_ACK_MAGIC + bytes((flags,))

    def _serve_pipelined(self, conn: socket.socket) -> None:
        """Serve correlation-id frames: requests are dispatched in arrival
        order, but the client never waits a round-trip between sends."""
        _set_nodelay(conn)
        send_lock = threading.Lock()
        handle = self._orb.handle_request_bytes
        while not self._closing:
            try:
                frame = _recv_frame(conn)
            except (CommunicationError, OSError):
                return
            if not frame:
                self.frames_rejected += 1
                continue
            ftype = frame[0]
            if ftype == _FT_ONEWAY:
                payload = memoryview(frame)[1:]
                self.stats.requests_received += 1
                self.stats.bytes_received += len(payload)
                handle(payload)
            elif ftype == _FT_REQUEST and len(frame) >= 5:
                corr = frame[1:5]
                payload = memoryview(frame)[5:]
                self.stats.requests_received += 1
                self.stats.bytes_received += len(payload)
                reply = handle(payload)
                try:
                    with send_lock:
                        _send_frame(
                            conn, bytes((_FT_REPLY,)) + corr + reply
                        )
                    self.stats.bytes_sent += len(reply)
                except (OSError, CommunicationError):
                    return
            else:
                self.frames_rejected += 1

    # -- client side ---------------------------------------------------------

    def _connection_to(self, address: str) -> socket.socket:
        with self._client_lock:
            sock = self._client_socks.get(address)
            if sock is None:
                host, _, port = address.rpartition(":")
                try:
                    sock = socket.create_connection((host, int(port)), timeout=10)
                except OSError as exc:
                    raise CommunicationError(
                        f"cannot connect to {address}: {exc}"
                    ) from exc
                self._client_socks[address] = sock
            return sock

    def _drop_connection(self, address: str) -> None:
        with self._client_lock:
            sock = self._client_socks.pop(address, None)
            # Drop the per-address lock with the socket: otherwise the
            # lock table grows by one entry per address ever contacted.
            self._conn_locks.pop(address, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- pipelined client path -----------------------------------------------

    def _negotiate(self, address: str) -> Optional[_PipelinedConn]:
        """Probe ``address`` for pipelined framing (caller holds the
        per-address lock).  Returns the upgraded connection, or None when
        the peer answered like a legacy server."""
        sock = self._connection_to(address)
        try:
            _send_frame(sock, b"\x01" + _PIPE_PROBE)
            reply = _recv_frame(sock)
        except (OSError, CommunicationError) as exc:
            self._drop_connection(address)
            raise CommunicationError(
                f"invoke on {address} failed: {exc}"
            ) from exc
        if not reply.startswith(_PIPE_ACK_MAGIC):
            # A legacy server dispatched the probe and sent back an
            # ObjectNotFound error reply: speak legacy framing to it.
            self._legacy_addrs.add(address)
            return None
        flags = reply[len(_PIPE_ACK_MAGIC)] if len(reply) > len(_PIPE_ACK_MAGIC) else 0
        # The pipelined conn owns the socket from here on; the reader
        # blocks indefinitely (reply timeouts are enforced per waiter).
        with self._client_lock:
            self._client_socks.pop(address, None)
        sock.settimeout(None)
        _set_nodelay(sock)
        conn = _PipelinedConn(sock, batch_ok=bool(flags & _ACK_BATCH_OK))
        conn.reader = threading.Thread(
            target=self._reader_loop, args=(conn,),
            name=f"orb-tcp-reader-{address}", daemon=True,
        )
        conn.reader.start()
        self._pipelined_conns[address] = conn
        return conn

    def _reader_loop(self, conn: _PipelinedConn) -> None:
        """Demultiplex reply frames to their waiting callers."""
        try:
            while True:
                frame = _recv_frame(conn.sock)
                if len(frame) >= 5 and frame[0] == _FT_REPLY:
                    corr = int.from_bytes(frame[1:5], "big")
                    with conn.pending_lock:
                        waiter = conn.pending.pop(corr, None)
                    if waiter is not None:
                        waiter[1] = frame[5:]
                        waiter[0].set()
        except (OSError, CommunicationError):
            pass
        finally:
            conn.closed = True
            with conn.pending_lock:
                waiters = list(conn.pending.values())
                conn.pending.clear()
            for waiter in waiters:
                waiter[0].set()   # reply slot stays None -> error
            try:
                conn.sock.close()
            except OSError:
                pass

    def _pipelined_conn(self, address: str) -> Optional[_PipelinedConn]:
        """The live upgraded connection for ``address``, negotiating on
        first use; None when the peer speaks legacy framing."""
        conn = self._pipelined_conns.get(address)
        if conn is not None and not conn.closed:
            return conn
        with self._client_lock:
            lock = self._conn_locks.setdefault(address, threading.Lock())
        with lock:
            conn = self._pipelined_conns.get(address)
            if conn is not None:
                if not conn.closed:
                    return conn
                self._pipelined_conns.pop(address, None)
            if address in self._legacy_addrs:
                return None
            return self._negotiate(address)

    def _drop_pipelined(self, address: str, conn: _PipelinedConn) -> None:
        conn.closed = True
        try:
            conn.sock.close()   # wakes the reader, which fails waiters
        except OSError:
            pass
        if self._pipelined_conns.get(address) is conn:
            self._pipelined_conns.pop(address, None)

    def _invoke_pipelined(
        self, conn: _PipelinedConn, address: str, payload: bytes, oneway: bool
    ) -> Optional[bytes]:
        if oneway:
            try:
                with conn.send_lock:
                    _send_frame(conn.sock, bytes((_FT_ONEWAY,)) + payload)
            except (OSError, CommunicationError) as exc:
                self._drop_pipelined(address, conn)
                raise CommunicationError(
                    f"invoke on {address} failed: {exc}"
                ) from exc
            self.stats.requests_sent += 1
            self.stats.bytes_sent += len(payload)
            return None
        corr = conn.next_corr()
        waiter = [threading.Event(), None]
        with conn.pending_lock:
            conn.pending[corr] = waiter
        header = bytes((_FT_REQUEST,)) + corr.to_bytes(4, "big")
        try:
            with conn.send_lock:
                _send_frame(conn.sock, header + payload)
        except (OSError, CommunicationError) as exc:
            with conn.pending_lock:
                conn.pending.pop(corr, None)
            self._drop_pipelined(address, conn)
            raise CommunicationError(
                f"invoke on {address} failed: {exc}"
            ) from exc
        self.stats.requests_sent += 1
        self.stats.bytes_sent += len(payload)
        if not waiter[0].wait(_REPLY_TIMEOUT_S):
            with conn.pending_lock:
                conn.pending.pop(corr, None)
            self._drop_pipelined(address, conn)
            raise CommunicationError(f"invoke on {address} timed out")
        reply = waiter[1]
        if reply is None:
            raise CommunicationError(
                f"invoke on {address} failed: connection lost"
            )
        self.stats.replies_received += 1
        self.stats.bytes_received += len(reply)
        return reply

    def peer_accepts_batch(self, address: str) -> bool:
        """Does the ORB behind ``address`` accept oneway batch frames?

        Only knowable — and only true — on a pipelined connection, whose
        negotiation ack carries the server's capability flags.
        """
        if not self._pipelined or self._closing:
            return False
        try:
            conn = self._pipelined_conn(address)
        except CommunicationError:
            return False
        return conn is not None and conn.batch_ok

    def invoke(self, address: str, payload: bytes, oneway: bool) -> Optional[bytes]:
        if self._pipelined and address not in self._legacy_addrs:
            conn = self._pipelined_conn(address)
            if conn is not None:
                return self._invoke_pipelined(conn, address, payload, oneway)
        with self._client_lock:
            lock = self._conn_locks.setdefault(address, threading.Lock())
        flag = b"\x00" if oneway else b"\x01"
        with lock:
            sock = self._connection_to(address)
            try:
                _send_frame(sock, flag + payload)
                self.stats.requests_sent += 1
                self.stats.bytes_sent += len(payload)
                if oneway:
                    return None
                reply = _recv_frame(sock)
            except (OSError, CommunicationError) as exc:
                self._drop_connection(address)
                raise CommunicationError(
                    f"invoke on {address} failed: {exc}"
                ) from exc
        self.stats.replies_received += 1
        self.stats.bytes_received += len(reply)
        return reply

    def close(self) -> None:
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        for conn in list(self._server_conns):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._server_conns.clear()
        for address, conn in list(self._pipelined_conns.items()):
            self._drop_pipelined(address, conn)
        with self._client_lock:
            for sock in self._client_socks.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._client_socks.clear()
            self._conn_locks.clear()
