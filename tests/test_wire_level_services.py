"""Wire-level tests: GUPA over the ORB, naming-based bootstrap, and the
full Figure 1 control path crossing real marshalling end to end."""

import pytest

from repro import ApplicationSpec, Grid
from repro.core.gupa import Gupa
from repro.core.protocols import (
    ASCT_INTERFACE,
    GRM_INTERFACE,
    GUPA_INTERFACE,
    LRM_INTERFACE,
)
from repro.orb.core import Orb
from repro.orb.naming import NAMING_INTERFACE
from repro.orb.transport import InProcDomain
from repro.sim.clock import SECONDS_PER_DAY, SECONDS_PER_HOUR


class TestGupaOverTheWire:
    def make_pair(self):
        domain = InProcDomain()
        server = Orb("gupa-host", domain=domain)
        client = Orb("gupa-user", domain=domain)
        gupa = Gupa()
        ref = server.activate(gupa, GUPA_INTERFACE)
        stub = client.stub(ref, GUPA_INTERFACE)
        return server, client, gupa, stub

    def pattern(self, busy=0.0):
        return {"bins_per_day": 24, "weekly": [[busy] * 24] * 7}

    def test_upload_and_query(self):
        server, client, gupa, stub = self.make_pair()
        try:
            stub.upload_pattern("n0", self.pattern(0.2))
            assert stub.has_pattern("n0") is True
            p = stub.idle_probability("n0", 0.0, 3600.0)
            assert p == pytest.approx(0.8, rel=1e-6)
        finally:
            server.shutdown()
            client.shutdown()

    def test_none_pattern_survives_marshalling(self):
        server, client, gupa, stub = self.make_pair()
        try:
            stub.upload_pattern("n0", None)   # LUPA not learned yet
            assert stub.has_pattern("n0") is False
        finally:
            server.shutdown()
            client.shutdown()

    def test_unknown_node_sentinel_crosses_wire(self):
        server, client, gupa, stub = self.make_pair()
        try:
            assert stub.idle_probability("ghost", 0.0, 1.0) == -1.0
        finally:
            server.shutdown()
            client.shutdown()


class TestNamingBootstrap:
    def test_new_client_bootstraps_from_naming_alone(self):
        """A user node that only knows the naming service finds the GRM,
        submits, and monitors — the canonical CORBA bootstrap path."""
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grid.add_node("c0", "d0", dedicated=True)
        grid.run_for(120)
        handle = grid.clusters["c0"]
        # The only thing the new client holds: the naming servant's orb
        # name and key — everything else is resolved.
        client_orb = Orb("newcomer", domain=grid.domain)
        naming_ref = None
        # Resolve via the manager's naming service (activated at
        # "<cluster>/naming" on the manager orb).
        from repro.orb.ior import ObjectRef
        naming_ref = ObjectRef(
            NAMING_INTERFACE.name, "c0/naming",
            (("inproc", handle.orb.name),),
        )
        naming = client_orb.stub(naming_ref, NAMING_INTERFACE)
        grm_ior = naming.resolve("c0/grm")
        grm = client_orb.stub(grm_ior, GRM_INTERFACE)
        job_id = grm.submit(
            ApplicationSpec(name="bootstrapped", work_mips=1e5).to_dict()
        )
        grid.run_for(SECONDS_PER_HOUR)
        status = grm.job_status(job_id)
        assert status["state"] == "completed"
        client_orb.shutdown()

    def test_gupa_resolvable_from_naming(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        handle = grid.clusters["c0"]
        assert handle.naming.resolve("c0/gupa").startswith("IOR:")
        assert handle.naming.list("c0/") == ["c0/grm", "c0/gupa"]


class TestLupaToGupaOverTheWire:
    def test_pattern_upload_flows_through_orb(self):
        """The Grid wires LUPA -> GUPA through real stubs; after enough
        simulated history the GUPA must know every workstation."""
        from repro.sim.usage import OFFICE_WORKER
        grid = Grid(seed=6, policy="pattern_aware", lupa_enabled=True,
                    lupa_min_history_days=3,
                    update_interval=600.0)
        grid.add_cluster("c0")
        for i in range(2):
            grid.add_node("c0", f"ws{i}", profile=OFFICE_WORKER)
        grid.add_node("c0", "ded0", dedicated=True)
        grid.run_for(5 * SECONDS_PER_DAY)
        gupa = grid.clusters["c0"].gupa
        assert gupa.known_nodes == ["ws0", "ws1"]   # no LUPA on dedicated
        assert gupa.uploads >= 2
        # And the patterns are usable for scheduling decisions.
        p = gupa.idle_probability("ws0", grid.loop.now, SECONDS_PER_HOUR)
        assert 0.0 <= p <= 1.0
