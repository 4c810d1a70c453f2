"""Unit tests for the Naming and Trading services (local and remote)."""

import pytest

from repro.apps.constraints import ConstraintError
from repro.orb.core import Orb
from repro.orb.naming import (
    NameAlreadyBound,
    NameNotFound,
    NamingService,
    NAMING_INTERFACE,
)
from repro.orb.trading import (
    TradingService,
    TRADING_INTERFACE,
    UnknownOffer,
)
from repro.orb.transport import InProcDomain


class TestNamingLocal:
    def test_bind_resolve(self):
        ns = NamingService()
        ns.bind("cluster0/grm", "IOR:00")
        assert ns.resolve("cluster0/grm") == "IOR:00"

    def test_bind_refuses_overwrite(self):
        ns = NamingService()
        ns.bind("a", "IOR:00")
        with pytest.raises(NameAlreadyBound):
            ns.bind("a", "IOR:01")

    def test_rebind_overwrites(self):
        ns = NamingService()
        ns.bind("a", "IOR:00")
        ns.rebind("a", "IOR:01")
        assert ns.resolve("a") == "IOR:01"

    def test_resolve_missing(self):
        with pytest.raises(NameNotFound):
            NamingService().resolve("ghost")

    def test_unbind(self):
        ns = NamingService()
        ns.bind("a", "IOR:00")
        ns.unbind("a")
        assert not ns.bound("a")
        with pytest.raises(NameNotFound):
            ns.unbind("a")

    def test_list_by_prefix(self):
        ns = NamingService()
        ns.bind("cluster0/grm", "x")
        ns.bind("cluster0/gupa", "y")
        ns.bind("cluster1/grm", "z")
        assert ns.list("cluster0/") == ["cluster0/grm", "cluster0/gupa"]
        assert ns.list("") == ["cluster0/grm", "cluster0/gupa", "cluster1/grm"]

    @pytest.mark.parametrize("bad", ["", "/abs", "trail/"])
    def test_invalid_names(self, bad):
        with pytest.raises(ValueError):
            NamingService().bind(bad, "IOR:00")


class TestNamingRemote:
    def test_naming_over_orb(self):
        domain = InProcDomain()
        server = Orb("ns-host", domain=domain)
        client = Orb("ns-user", domain=domain)
        try:
            ref = server.activate(NamingService(), NAMING_INTERFACE)
            stub = client.stub(ref, NAMING_INTERFACE)
            stub.bind("cluster0/grm", "IOR:abcd")
            assert stub.resolve("cluster0/grm") == "IOR:abcd"
            assert stub.bound("cluster0/grm") is True
            assert stub.list("cluster0/") == ["cluster0/grm"]
            stub.unbind("cluster0/grm")
            assert stub.bound("cluster0/grm") is False
        finally:
            server.shutdown()
            client.shutdown()


def offer_props(**kwargs):
    props = {"mips": 1000.0, "ram_mb": 256.0, "cpu_free": 0.9, "os": "linux"}
    props.update(kwargs)
    return props


class TestTradingLocal:
    def test_export_and_query(self):
        trader = TradingService()
        trader.export("node", "IOR:1", offer_props())
        offers = trader.query("node")
        assert len(offers) == 1
        assert offers[0]["ior"] == "IOR:1"

    def test_constraint_filters(self):
        trader = TradingService()
        trader.export("node", "IOR:slow", offer_props(mips=300.0))
        trader.export("node", "IOR:fast", offer_props(mips=900.0))
        offers = trader.query("node", constraint="mips >= 500")
        assert [o["ior"] for o in offers] == ["IOR:fast"]

    def test_preference_ranks(self):
        trader = TradingService()
        trader.export("node", "IOR:a", offer_props(mips=300.0))
        trader.export("node", "IOR:b", offer_props(mips=900.0))
        trader.export("node", "IOR:c", offer_props(mips=600.0))
        offers = trader.query("node", preference="mips")
        assert [o["ior"] for o in offers] == ["IOR:b", "IOR:c", "IOR:a"]

    def test_max_offers(self):
        trader = TradingService()
        for i in range(10):
            trader.export("node", f"IOR:{i}", offer_props(mips=float(i)))
        offers = trader.query("node", preference="mips", max_offers=3)
        assert len(offers) == 3
        assert offers[0]["ior"] == "IOR:9"

    def test_service_type_isolation(self):
        trader = TradingService()
        trader.export("node", "IOR:n", offer_props())
        trader.export("printer", "IOR:p", {"dpi": 300})
        assert len(trader.query("node")) == 1
        assert len(trader.query("printer")) == 1
        assert trader.query("scanner") == []

    def test_modify_updates_properties(self):
        trader = TradingService()
        offer_id = trader.export("node", "IOR:1", offer_props(cpu_free=0.9))
        assert trader.query("node", constraint="cpu_free >= 0.5")
        trader.modify(offer_id, offer_props(cpu_free=0.1))
        assert not trader.query("node", constraint="cpu_free >= 0.5")

    def test_withdraw(self):
        trader = TradingService()
        offer_id = trader.export("node", "IOR:1", offer_props())
        trader.withdraw(offer_id)
        assert trader.query("node") == []
        with pytest.raises(UnknownOffer):
            trader.withdraw(offer_id)

    def test_modify_unknown_offer(self):
        with pytest.raises(UnknownOffer):
            TradingService().modify("ghost", {})

    def test_malformed_offer_never_matches(self):
        # An offer missing the constrained property is skipped, not an error.
        trader = TradingService()
        trader.export("node", "IOR:broken", {"os": "linux"})
        assert trader.query("node", constraint="mips >= 1") == []

    def test_deterministic_tie_order(self):
        trader = TradingService()
        trader.export("node", "IOR:first", offer_props(mips=500.0))
        trader.export("node", "IOR:second", offer_props(mips=500.0))
        offers = trader.query("node", preference="mips")
        assert [o["ior"] for o in offers] == ["IOR:first", "IOR:second"]

    def test_empty_service_type_rejected(self):
        with pytest.raises(ValueError):
            TradingService().export("", "IOR:1", {})

    @pytest.mark.parametrize("exported", [False, True])
    @pytest.mark.parametrize("max_offers", [-1, 0, 1])
    def test_malformed_query_text_refused_whatever_the_contents(
        self, exported, max_offers
    ):
        # Bad text is refused the same way on an empty trader, an
        # unknown service type and ``max_offers == 0`` as on a full scan.
        trader = TradingService()
        if exported:
            trader.export("node", "IOR:1", offer_props())
        for constraint, preference in (("mips >=", ""), ("", "mips *")):
            with pytest.raises(ConstraintError):
                trader.query("node", constraint, preference, max_offers)
            with pytest.raises(ConstraintError):
                trader.query("ghost", constraint, preference, max_offers)


class TestTradingRemote:
    def test_trader_over_orb(self):
        domain = InProcDomain()
        server = Orb("trader-host", domain=domain)
        client = Orb("trader-user", domain=domain)
        try:
            ref = server.activate(TradingService(), TRADING_INTERFACE)
            stub = client.stub(ref, TRADING_INTERFACE)
            offer_id = stub.export("node", "IOR:x", offer_props(mips=750.0))
            offers = stub.query("node", "mips >= 500", "mips", -1)
            assert len(offers) == 1
            assert offers[0]["offer_id"] == offer_id
            assert offers[0]["properties"]["mips"] == 750.0
            stub.withdraw(offer_id)
            assert stub.query("node", "", "", -1) == []
        finally:
            server.shutdown()
            client.shutdown()
