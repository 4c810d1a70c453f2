"""ORB transports.

Two transports share one wire format (length-framed CDR payloads):

* **in-process** — delivers requests synchronously between ORBs in the
  same Python process via a registry ("domain").  Collocated calls that
  need no auth envelope never reach :meth:`InProcTransport.invoke`: a
  bound :class:`~repro.orb.core.Stub` dispatches them directly, counting
  messages but no bytes.  Only enveloped requests (and direct
  :meth:`~repro.orb.core.Orb.invoke` calls) cross here as CDR.
* **TCP** — real sockets with a 4-byte big-endian length prefix, used by
  integration tests and the TCP microbenchmarks.

There is exactly one TCP framing: each frame carries one flag byte
(1 = reply expected, 0 = oneway; any other frame is dropped undispatched)
before the CDR payload, and a per-peer lock keeps
one request/reply exchange on a connection at a time.  ``TCP_NODELAY``
is set on every socket the transport connects or accepts: a oneway
followed by a two-way call on the same connection otherwise waits out
Nagle's algorithm against the peer's delayed ACK (~44 ms on Linux).
"""

import socket
import struct
import threading
from typing import Optional

from repro.orb.exceptions import CommunicationError

_FRAME_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 64 * 1024 * 1024


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
        #: The one invalidation rule for everything cached against this
        #: domain: ORBs drop their routes and stubs their bindings when
        #: it moves.  Membership changes move it, and so does every
        #: member ORB change a binding depends on (servants,
        #: interceptors, credentials, ``require_auth``, shutdown), so a departed peer is never dialled and a stale
        #: binding is never used.
        self.epoch = 0

    def invalidate(self) -> None:
        """Move the epoch; call it *after* the change it announces."""
        self.epoch += 1

    def register(self, name: str, orb) -> None:
        if name in self._orbs:
            raise ValueError(f"an ORB named {name!r} is already registered")
        self._orbs[name] = orb
        self.invalidate()

    def unregister(self, name: str) -> None:
        if self._orbs.pop(name, None) is not None:
            self.invalidate()

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
    """Disable Nagle: frames are small and a caller is waiting on each."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass   # platform without the option; purely advisory


class TcpTransport:
    """A real-socket transport: server thread plus cached client connections.

    Frames carry one flag byte (1 = reply expected) before the CDR
    payload so oneway requests do not generate replies.
    """

    kind = "tcp"

    def __init__(self, orb, host: str = "127.0.0.1", port: int = 0):
        self._orb = orb
        self.stats = TransportStats()
        #: Malformed frames dropped by the serving loop (diagnostic;
        #: not part of TransportStats, whose key set is fixed).
        self.frames_rejected = 0
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._closing = False
        self._client_socks: dict[str, socket.socket] = {}
        self._client_lock = threading.Lock()
        # One lock per destination, kept for the transport's lifetime: it
        # is the only thing stopping two threads' frames (and replies)
        # interleaving on a connection, so it must outlive any one socket
        # to that peer.  The table is bounded by peers, not by calls.
        self._conn_locks: dict[str, threading.Lock] = {}
        self._server_conns: list[socket.socket] = []
        self._server_threads: list[threading.Thread] = []
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
            _set_nodelay(conn)
            self._server_conns.append(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            self._server_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                while not self._closing:
                    try:
                        frame = _recv_frame(conn)
                    except (CommunicationError, OSError):
                        return
                    if not frame or frame[0] > 1:
                        # No flag byte, or one that is neither oneway (0)
                        # nor two-way (1): drop the frame undispatched
                        # and keep serving.
                        self.frames_rejected += 1
                        continue
                    expects_reply = frame[0] == 1
                    payload = frame[1:]
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
            # and thread per connection ever accepted, for its lifetime.
            try:
                self._server_conns.remove(conn)
            except ValueError:
                pass
            try:
                self._server_threads.remove(threading.current_thread())
            except ValueError:
                pass

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
                _set_nodelay(sock)
                self._client_socks[address] = sock
            return sock

    def _drop_connection(self, address: str) -> None:
        with self._client_lock:
            sock = self._client_socks.pop(address, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def invoke(self, address: str, payload: bytes, oneway: bool) -> Optional[bytes]:
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
        # Closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down does.  Joining the thread
        # releases its references to this transport, the ORB and every
        # servant, and means no connection is accepted after this point.
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass   # platforms where close() alone wakes accept()
        try:
            self._server.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)
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
        # Each serving thread exits once its socket is shut down; join
        # them so none outlives close() (a servant calling close() from
        # its own serving thread cannot wait for itself).
        current = threading.current_thread()
        for thread in list(self._server_threads):
            if thread is not current:
                thread.join(timeout=5)
        with self._client_lock:
            for sock in self._client_socks.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._client_socks.clear()
            self._conn_locks.clear()
