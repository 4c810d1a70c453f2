"""Tests for ORB request authentication (HMAC envelopes)."""

import pytest

from repro.orb.cdr import Double
from repro.orb.core import Orb
from repro.orb.exceptions import RemoteInvocationError
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.transport import InProcDomain
from repro.security.auth import (
    AuthenticationError,
    Credentials,
    KeyRing,
    is_authenticated,
)

ECHO = InterfaceDef(
    "test/Echo", [Operation("echo", (Parameter("x", Double),), Double)]
)


class EchoServant:
    def echo(self, x):
        return x


class TestEnvelope:
    def test_wrap_unwrap_roundtrip(self):
        ring = KeyRing()
        ring.add("alice", b"s3cret")
        credentials = Credentials("alice", b"s3cret")
        principal, payload = ring.unwrap(credentials.wrap(b"hello"))
        assert principal == "alice"
        assert payload == b"hello"

    def test_tampered_payload_rejected(self):
        ring = KeyRing()
        ring.add("alice", b"s3cret")
        envelope = bytearray(Credentials("alice", b"s3cret").wrap(b"hello"))
        envelope[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            ring.unwrap(bytes(envelope))

    def test_unknown_principal_rejected(self):
        ring = KeyRing()
        envelope = Credentials("mallory", b"x").wrap(b"hi")
        with pytest.raises(AuthenticationError):
            ring.unwrap(envelope)

    def test_wrong_secret_rejected(self):
        ring = KeyRing()
        ring.add("alice", b"right")
        envelope = Credentials("alice", b"wrong").wrap(b"hi")
        with pytest.raises(AuthenticationError):
            ring.unwrap(envelope)

    def test_unauthenticated_payload_detected(self):
        assert not is_authenticated(b"plain request bytes")
        assert is_authenticated(Credentials("a", b"k").wrap(b"x"))

    def test_truncated_envelope(self):
        ring = KeyRing()
        ring.add("alice", b"k")
        envelope = Credentials("alice", b"k").wrap(b"payload")
        with pytest.raises(AuthenticationError):
            ring.unwrap(envelope[:10])

    def test_empty_credentials_rejected(self):
        with pytest.raises(ValueError):
            Credentials("", b"k")
        with pytest.raises(ValueError):
            Credentials("a", b"")

    def test_keyring_management(self):
        ring = KeyRing()
        ring.add("a", b"k")
        assert "a" in ring
        credentials = ring.credentials_for("a")
        assert credentials.principal == "a"
        ring.remove("a")
        assert "a" not in ring
        with pytest.raises(AuthenticationError):
            ring.credentials_for("a")


class TestAuthenticatedOrb:
    def make_pair(self, client_credentials=None, require_auth=True):
        domain = InProcDomain()
        ring = KeyRing()
        ring.add("alice", b"alice-key")
        server = Orb("auth-server", domain=domain, keyring=ring,
                     require_auth=require_auth)
        client = Orb("auth-client", domain=domain,
                     credentials=client_credentials)
        ref = server.activate(EchoServant(), ECHO)
        stub = client.stub(ref, ECHO)
        return server, client, stub

    def test_signed_call_succeeds_and_identifies_caller(self):
        server, client, stub = self.make_pair(
            Credentials("alice", b"alice-key")
        )
        try:
            assert stub.echo(5.0) == 5.0
            assert server.current_principal == "alice"
        finally:
            server.shutdown()
            client.shutdown()

    def test_unsigned_call_rejected_when_required(self):
        server, client, stub = self.make_pair(client_credentials=None)
        try:
            with pytest.raises(RemoteInvocationError) as excinfo:
                stub.echo(1.0)
            assert excinfo.value.remote_type == "AuthenticationError"
        finally:
            server.shutdown()
            client.shutdown()

    def test_wrong_key_rejected(self):
        server, client, stub = self.make_pair(
            Credentials("alice", b"not-her-key")
        )
        try:
            with pytest.raises(RemoteInvocationError) as excinfo:
                stub.echo(1.0)
            assert excinfo.value.remote_type == "AuthenticationError"
        finally:
            server.shutdown()
            client.shutdown()

    def test_unknown_principal_rejected(self):
        server, client, stub = self.make_pair(
            Credentials("mallory", b"whatever")
        )
        try:
            with pytest.raises(RemoteInvocationError):
                stub.echo(1.0)
        finally:
            server.shutdown()
            client.shutdown()

    def test_optional_auth_accepts_both(self):
        server, client, stub = self.make_pair(
            client_credentials=None, require_auth=False
        )
        try:
            assert stub.echo(2.0) == 2.0
            assert server.current_principal is None
        finally:
            server.shutdown()
            client.shutdown()

    def test_require_auth_needs_keyring(self):
        with pytest.raises(ValueError):
            Orb("bad", domain=InProcDomain(), require_auth=True)

    def test_require_auth_setter_needs_keyring(self):
        orb = Orb("open", domain=InProcDomain())
        epoch = orb.domain.epoch
        with pytest.raises(ValueError, match="needs a keyring"):
            orb.require_auth = True
        assert orb.require_auth is False
        assert orb.domain.epoch == epoch
        orb.require_auth = False            # turning it off needs nothing

    def test_authenticated_grid_rejects_rogue_orb(self):
        from repro import ApplicationSpec, Grid
        from repro.core.protocols import GRM_INTERFACE

        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False,
                    auth_secret=b"cluster-token")
        grid.add_cluster("c0")
        grid.add_node("c0", "d0", dedicated=True)
        grid.run_for(120)
        # The legitimate path works end to end...
        job_id = grid.submit(ApplicationSpec(name="ok", work_mips=1e5))
        assert grid.wait_for_job(job_id, max_seconds=3600.0)
        # ...but a rogue ORB without the membership secret is refused.
        rogue = Orb("rogue", domain=grid.domain)
        try:
            stub = rogue.stub(grid.clusters["c0"].grm_ior, GRM_INTERFACE)
            with pytest.raises(RemoteInvocationError) as excinfo:
                stub.submit(ApplicationSpec(name="evil").to_dict())
            assert excinfo.value.remote_type == "AuthenticationError"
        finally:
            rogue.shutdown()

    def test_authenticated_call_over_tcp(self):
        ring = KeyRing()
        ring.add("bob", b"bob-key")
        server = Orb("tcp-auth-s", domain=InProcDomain(), tcp=True,
                     keyring=ring, require_auth=True)
        client = Orb("tcp-auth-c", domain=InProcDomain(), tcp=True,
                     credentials=Credentials("bob", b"bob-key"))
        try:
            ref = server.activate(EchoServant(), ECHO)
            stub = client.stub(ref, ECHO)
            assert stub.echo(9.0) == 9.0
            assert server.current_principal == "bob"
        finally:
            server.shutdown()
            client.shutdown()
