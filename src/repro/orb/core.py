"""The ORB: servant registration, stubs, and request dispatch.

A stub call marshals only when it has to: over TCP, or inside an auth
envelope.  Two ORBs in the same :class:`InProcDomain` with no envelope
between them are *collocated* and their calls are dispatched directly
(arguments and results cross by reference) over the binding a
:class:`Stub` makes once per domain epoch: the servant's method with the
interceptors of both ORBs (a :class:`WireMeter` is one) composed around
:func:`_dispatch_direct`.  A plain call is one epoch compare, at most
three counter bumps and the method.  Every other call goes through
:meth:`Orb.invoke`, which always marshals.

Request wire format (after the transport's framing)::

    string key; string operation
    <arguments, encoded per the operation signature>

Reply wire format::

    octet status   # 0 = ok, 1 = exception
    <result per signature>            (status 0)
    string exc_type; string message   (status 1)

A request or reply with bytes after its last value is refused with a
:class:`MarshalError`.
"""

import itertools
from typing import Optional, Union

from repro.security.auth import AuthenticationError, is_authenticated

from repro.orb.cdr import CdrDecoder, CdrEncoder
from repro.orb.exceptions import (
    BadOperation,
    CommunicationError,
    MarshalError,
    ObjectNotFound,
    OrbError,
    RemoteInvocationError,
)
from repro.orb.idl import InterfaceDef, Operation
from repro.orb.ior import INPROC, TCP, ObjectRef
from repro.orb.transport import (
    DEFAULT_DOMAIN,
    InProcDomain,
    InProcTransport,
    TcpTransport,
)

_STATUS_OK = 0
_STATUS_EXCEPTION = 1


def _encode_request(key: str, operation: Operation, args) -> bytes:
    """The CDR payload of one request."""
    enc = CdrEncoder()
    enc.write_string(key)
    enc.write_string(operation.name)
    for param, arg in zip(operation.params, args):
        param.idl_type.encode(enc, arg)
    return enc.getvalue()


def _expect_end(dec: CdrDecoder, what: str) -> None:
    """Refuse a message with bytes after its last value."""
    if dec.remaining:
        raise MarshalError(
            f"{dec.remaining} trailing bytes after the {what}'s last value"
        )


class WireMeter:
    """Interceptor pricing each request in modelled wire bytes.

    Collocated calls marshal nothing, so ``bytes_sent`` / ``bytes_received``
    are 0 for them; an experiment that reports message sizes attaches a
    meter and pays for the encoding itself.  The same instance works as
    a client interceptor (``(ref, operation, args)``) or a server
    interceptor (``(key, operation, args)``) and sums the length of the
    un-enveloped request each call would put on a wire.
    """

    def __init__(self):
        self.requests = 0
        self.bytes = 0
        self.bytes_by_operation: dict[str, int] = {}

    def __call__(self, target, operation: Operation, args) -> None:
        key = target if isinstance(target, str) else target.key
        size = len(_encode_request(key, operation, args))
        self.requests += 1
        self.bytes += size
        by_op = self.bytes_by_operation
        by_op[operation.name] = by_op.get(operation.name, 0) + size


#: A binding is ``(generation, dispatch, peer, method, client stats,
#: server stats)``, valid while the domain epoch equals ``generation``;
#: a call runs ``dispatch(binding, oneway, args)`` (see :meth:`Orb._bind`).
#: An unbindable one is ``(generation, None)``: the call marshals
#: through :meth:`Orb.invoke`.
_UNBOUND = (-1, None)


def _dispatch_direct(binding: tuple, oneway: bool, args: tuple):
    """Run one collocated request: the only place that counts it and
    maps what the servant side raised.

    Counts the request (and, two-way, its reply) on both sides up front
    — a synchronous dispatch always produces its reply — resets the
    peer's principal, and calls the binding's method.  As on the wire,
    an exception becomes :class:`RemoteInvocationError` carrying its
    type name and message, and a oneway call drops result and exception.
    """
    _generation, _dispatch, peer, method, sent, received = binding
    sent.requests_sent += 1
    if not oneway:
        sent.replies_received += 1
    received.requests_received += 1
    peer.current_principal = None
    try:
        result = method(*args)
    except Exception as exc:
        if oneway:
            return None
        raise RemoteInvocationError(type(exc).__name__, str(exc)) from exc
    return None if oneway else result


def _raiser(exc: Exception):
    """The method a call to a servant or operation the peer lacks is
    bound to: it raises what the wire path's lookup would."""
    def missing(*args):
        raise exc

    return missing


class UndeclaredOperation(BadOperation, AttributeError):
    """A :class:`Stub` attribute its interface does not declare: a
    :class:`BadOperation` to ORB code, and an ``AttributeError`` so that
    ``hasattr`` / ``getattr(stub, name, default)`` work."""


class Stub:
    """Client-side proxy for the calls described by an InterfaceDef."""

    def __init__(self, orb: "Orb", interface: InterfaceDef, ref: ObjectRef):
        self._orb = orb
        self._interface = interface
        self._ref = ref

    @property
    def ref(self) -> ObjectRef:
        return self._ref

    def __getattr__(self, name: str):
        if name.startswith("_"):
            # Never an operation.  Answering without the interface also
            # serves copy and pickle, which probe before __init__ ran.
            raise AttributeError(name)
        try:
            operation = self._interface.operation(name)
        except BadOperation as exc:
            raise UndeclaredOperation(str(exc)) from None
        orb = self._orb
        ref = self._ref
        domain = orb.domain
        oneway = operation.oneway
        arity = len(operation.params)
        # One immutable tuple, replaced in a single store and read once
        # per call: a thread serving TCP requests through this stub
        # never sees half of one.
        binding = _UNBOUND

        def call(*args):
            nonlocal binding
            bound = binding
            if bound[0] != domain.epoch:
                bound = binding = orb._bind(ref, operation)
            if bound[1] is not None and len(args) == arity:
                return bound[1](bound, oneway, args)
            return orb.invoke(ref, operation, args)

        call.__name__ = name
        # Cache on the instance so later lookups skip __getattr__.
        object.__setattr__(self, name, call)
        return call

    def __repr__(self):
        return f"Stub({self._interface.name}, key={self._ref.key!r})"


class Orb:
    """One Object Request Broker endpoint.

    Every grid component (LRM, GRM, Trader, ...) owns an ORB; servants are
    activated on it and receive an :class:`ObjectRef` that peers can
    resolve into a :class:`Stub`.
    """

    _names = itertools.count()

    def __init__(
        self,
        name: Optional[str] = None,
        domain: Optional[InProcDomain] = None,
        tcp: bool = False,
        tcp_host: str = "127.0.0.1",
        tcp_port: int = 0,
        credentials=None,
        keyring=None,
        require_auth: bool = False,
    ):
        if require_auth and keyring is None:
            raise ValueError("require_auth needs a keyring to verify against")
        self.name = name if name is not None else f"orb{next(self._names)}"
        self.domain = domain if domain is not None else DEFAULT_DOMAIN
        self._servants: dict[str, tuple] = {}
        self._interfaces: dict[str, InterfaceDef] = {}
        self._key_counter = itertools.count()
        self._client_interceptors: list = []
        self._server_interceptors: list = []
        self._credentials = credentials
        self.keyring = keyring
        self._require_auth = require_auth
        #: Principal of the request currently being dispatched (if any).
        self.current_principal: Optional[str] = None
        self._inproc = InProcTransport(self.name, self.domain)
        # Registered once built (but for TCP): a peer that finds this ORB
        # in the domain may bind to it at once.
        self.domain.register(self.name, self)
        self._tcp = TcpTransport(self, tcp_host, tcp_port) if tcp else None

    @property
    def credentials(self):
        """Signs every outgoing request; set, it forces the wire path."""
        return self._credentials

    @credentials.setter
    def credentials(self, credentials) -> None:
        self._credentials = credentials
        self.domain.invalidate()

    @property
    def require_auth(self) -> bool:
        """Reject unsigned requests; set, callers must take the wire."""
        return self._require_auth

    @require_auth.setter
    def require_auth(self, required: bool) -> None:
        if required and self.keyring is None:
            raise ValueError("require_auth needs a keyring to verify against")
        self._require_auth = required
        self.domain.invalidate()

    # -- servant side ---------------------------------------------------------

    def activate(
        self,
        servant,
        interface: InterfaceDef,
        key: Optional[str] = None,
    ) -> ObjectRef:
        """Register a servant and return its reference.

        A key may not start with NUL: the wire format reserved that
        prefix, and a request to such a key is answered ObjectNotFound.
        """
        interface.validate_servant(servant)
        if key is None:
            key = f"{interface.name}/{next(self._key_counter)}"
        elif key.startswith("\x00"):
            raise ValueError(f"object key {key!r} starts with NUL")
        if key in self._servants:
            raise ValueError(f"object key {key!r} already active on {self.name}")
        self._servants[key] = (servant, interface)
        self.domain.invalidate()
        endpoints = [(INPROC, self._inproc.address)]
        if self._tcp is not None:
            endpoints.append((TCP, self._tcp.address))
        return ObjectRef(interface.name, key, tuple(endpoints))

    def deactivate(self, key: str) -> None:
        """Remove a servant; subsequent calls get ObjectNotFound."""
        if key not in self._servants:
            raise ObjectNotFound(f"no servant with key {key!r} on {self.name}")
        del self._servants[key]
        self.domain.invalidate()

    def register_interface(self, interface: InterfaceDef) -> None:
        """Make an interface resolvable by name (for stub construction)."""
        self._interfaces[interface.name] = interface

    # -- client side ------------------------------------------------------------

    def stub(
        self,
        ref: Union[ObjectRef, str],
        interface: Optional[InterfaceDef] = None,
    ) -> Stub:
        """Build a typed proxy for a reference (or stringified IOR)."""
        if isinstance(ref, str):
            ref = ObjectRef.from_string(ref)
        if interface is None:
            interface = self._interfaces.get(ref.interface)
            if interface is None:
                raise BadOperation(
                    f"interface {ref.interface!r} is not registered with "
                    f"{self.name}; pass it explicitly"
                )
        if interface.name != ref.interface:
            raise BadOperation(
                f"reference is for {ref.interface!r}, not {interface.name!r}"
            )
        return Stub(self, interface, ref)

    def add_client_interceptor(self, interceptor) -> None:
        """Observe outgoing requests: called with (ref, operation, args).

        Interceptors are the CORBA-style hook for tracing and accounting;
        they must not mutate the arguments.  Exceptions propagate to the
        caller (useful for policy enforcement in tests).
        """
        self._client_interceptors.append(interceptor)
        self.domain.invalidate()

    def add_server_interceptor(self, interceptor) -> None:
        """Observe dispatched requests: called with (key, operation, args)."""
        self._server_interceptors.append(interceptor)
        self.domain.invalidate()

    def invoke(self, ref: ObjectRef, operation: Operation, args: tuple):
        """Marshal one request, send it and unmarshal its reply.

        This is the path of every call a :class:`Stub` cannot bind
        (:meth:`_bind`): a target outside this ORB's domain (TCP), or a
        collocated one behind an auth envelope (``credentials`` on this
        ORB or ``require_auth`` on the target).  Called directly, it
        marshals even a collocated request, over the in-process
        transport.
        """
        if len(args) != len(operation.params):
            raise TypeError(
                f"{operation.name}() takes {len(operation.params)} "
                f"arguments ({len(args)} given)"
            )
        return self._client_side(ref, operation, args, self._send)

    def _client_side(self, ref: ObjectRef, operation: Operation, args: tuple,
                     send):
        """The caller's side of every request, on either path: the client
        interceptors, then ``send(ref, operation, args)``."""
        for interceptor in self._client_interceptors:
            interceptor(ref, operation, args)
        return send(ref, operation, args)

    def _send(self, ref: ObjectRef, operation: Operation, args: tuple):
        """Marshal, transmit and unmarshal the reply."""
        _peer, transport, address = self._route(ref)
        payload = _encode_request(ref.key, operation, args)
        if self._credentials is not None:
            payload = self._credentials.wrap(payload)
        reply = transport.invoke(address, payload, operation.oneway)
        if operation.oneway:
            return None
        dec = CdrDecoder(reply)
        if dec.read_octet() == _STATUS_OK:
            result = operation.returns.decode(dec)
            _expect_end(dec, "reply")
            return result
        exc_type = dec.read_string()
        message = dec.read_string()
        _expect_end(dec, "exception reply")
        raise RemoteInvocationError(exc_type, message)

    def _bind(self, ref: ObjectRef, operation: Operation) -> tuple:
        """A :class:`Stub`'s binding for one operation at the current
        domain epoch (see :data:`_UNBOUND`).

        A call binds when the route is collocated and no envelope is
        needed; else the stub takes :meth:`invoke` until the epoch moves.
        A servant or operation the peer lacks binds :func:`_raiser`,
        outside the peer's server interceptors, which never see a request
        the wire path's lookup refuses.  The peer's server interceptors
        wrap the method (:meth:`_serve`); this ORB's client interceptors
        wrap :func:`_dispatch_direct`, outside its counting and exception
        mapping.
        """
        generation = self.domain.epoch
        try:
            peer = self._route(ref)[0]
        except OrbError:
            return (generation, None)   # invoke raises it, as unbound
        if peer is None or peer._require_auth or self._credentials is not None:
            return (generation, None)
        stats = (self._inproc.stats, peer._inproc.stats)
        try:
            method, served = peer._servant_method(ref.key, operation.name)
        except OrbError as exc:
            method = _raiser(exc)
        else:
            if peer._server_interceptors:
                method = peer._serve(ref.key, served, method)
        bound = (generation, _dispatch_direct, peer, method) + stats
        if not self._client_interceptors:
            return bound

        def send(ref, operation, args):
            return _dispatch_direct(bound, operation.oneway, args)

        def dispatch(_binding, _oneway, args):
            return self._client_side(ref, operation, args, send)

        return (generation, dispatch) + bound[2:]

    def _route(self, ref: ObjectRef) -> tuple:
        """``(collocated peer or None, transport, address)`` for a
        reference: the in-process peer when the servant's ORB shares
        this domain, else a TCP endpoint both sides have."""
        inproc = ref.endpoint_of_kind(INPROC)
        if inproc is not None:
            peer = self.domain.lookup(inproc[1])
            if peer is not None:
                return peer, self._inproc, inproc[1]
        tcp = ref.endpoint_of_kind(TCP)
        if tcp is not None and self._tcp is not None:
            return None, self._tcp, tcp[1]
        if tcp is not None:
            raise CommunicationError(
                f"{self.name} has no TCP transport to reach {tcp[1]}"
            )
        raise CommunicationError(
            f"no usable endpoint for {ref.interface}:{ref.key}"
        )

    # -- dispatch (called by transports) ----------------------------------------

    def handle_request_bytes(self, payload: bytes) -> bytes:
        """Unmarshal, dispatch to the servant, marshal the reply.

        When a keyring is configured, authenticated envelopes are
        verified (and stripped) first; with ``require_auth`` every
        unauthenticated request is rejected before dispatch.
        """
        enc = CdrEncoder()
        try:
            self.current_principal = None
            if self.keyring is not None and is_authenticated(payload):
                principal, payload = self.keyring.unwrap(payload)
                self.current_principal = principal
            elif self._require_auth:
                raise AuthenticationError(
                    "this ORB only accepts authenticated requests"
                )
            dec = CdrDecoder(payload)
            key = dec.read_string()
            op_name = dec.read_string()
            method, operation = self._servant_method(key, op_name)
            args = [p.idl_type.decode(dec) for p in operation.params]
            _expect_end(dec, "request")
            if self._server_interceptors:
                method = self._serve(key, operation, method)
            result = method(*args)
            enc.write_octet(_STATUS_OK)
            operation.returns.encode(enc, result)
        except Exception as exc:   # marshalled back to the caller
            enc = CdrEncoder()
            enc.write_octet(_STATUS_EXCEPTION)
            enc.write_string(type(exc).__name__)
            enc.write_string(str(exc))
        return enc.getvalue()

    def _servant_method(self, key: str, op_name: str) -> tuple:
        """``(bound method, Operation)`` serving ``op_name`` on ``key``."""
        entry = self._servants.get(key)
        if entry is None:
            raise ObjectNotFound(f"no servant with key {key!r}")
        servant, interface = entry
        operation = interface.operation(op_name)
        return getattr(servant, operation.name), operation

    def _serve(self, key: str, operation: Operation, method):
        """``serve(*args)``: ``method(*args)`` inside this ORB's server
        interceptors, which see the argument list a decode yields."""
        interceptors = self._server_interceptors

        def serve(*args):
            args = list(args)
            for interceptor in interceptors:
                interceptor(key, operation, args)
            return method(*args)

        return serve

    # -- lifecycle / metrics ------------------------------------------------------

    @property
    def requests_handled(self) -> int:
        """Requests dispatched here: what this ORB's transports received."""
        return self.stats()["requests_received"]

    def inproc_stats(self):
        """The in-process transport's counters (server-side accounting)."""
        return self._inproc.stats

    def stats(self) -> dict:
        """Aggregated transport statistics for this ORB."""
        totals = self._inproc.stats.snapshot()
        if self._tcp is not None:
            for key, value in self._tcp.stats.snapshot().items():
                totals[key] += value
        totals["requests_handled"] = totals["requests_received"]
        return totals

    def to_metrics(self, registry, prefix: str = None) -> None:
        """Publish :meth:`stats` as a registry view (evaluated at snapshot)."""
        registry.view(prefix if prefix else f"orb.{self.name}", self.stats)

    def shutdown(self) -> None:
        """Close transports, unregister from the domain and drop every
        servant: any request that still arrives gets ObjectNotFound."""
        self._inproc.close()
        if self._tcp is not None:
            self._tcp.close()
        self._servants.clear()
        self.domain.invalidate()

    def __repr__(self):
        return f"Orb({self.name!r}, servants={len(self._servants)})"
