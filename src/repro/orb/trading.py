"""Trading service — the CORBA Trader equivalent.

The GRM "uses the JacORB Trader to store the information it receives from
the LRMs" (paper, Section 5).  An offer is a service type, a reference,
and a property list; queries filter offers with a constraint expression
and rank them with a preference expression, both in the language of
:mod:`repro.apps.constraints` (standing in for the OMG trader constraint
language).
"""

import itertools
from dataclasses import dataclass
from typing import Any, Mapping

from repro.apps.constraints import Constraint, Preference
from repro.orb.cdr import (
    Long,
    Sequence,
    String,
    Struct,
    VARIANT,
    Void,
)
from repro.orb.idl import InterfaceDef, Operation, Parameter

OFFER_STRUCT = Struct(
    "Offer",
    [
        ("offer_id", String),
        ("service_type", String),
        ("ior", String),
        ("properties", VARIANT),
    ],
)

TRADING_INTERFACE = InterfaceDef(
    "integrade/Trading",
    [
        Operation(
            "export",
            (
                Parameter("service_type", String),
                Parameter("ior", String),
                Parameter("properties", VARIANT),
            ),
            String,
        ),
        Operation(
            "modify",
            (Parameter("offer_id", String), Parameter("properties", VARIANT)),
            Void,
        ),
        Operation("withdraw", (Parameter("offer_id", String),), Void),
        Operation(
            "query",
            (
                Parameter("service_type", String),
                Parameter("constraint", String),
                Parameter("preference", String),
                Parameter("max_offers", Long),
            ),
            Sequence(OFFER_STRUCT),
        ),
    ],
)


class UnknownOffer(Exception):
    """The offer id does not exist (already withdrawn?)."""


@dataclass
class Offer:
    """One service offer held by the trader."""

    offer_id: str
    service_type: str
    ior: str
    properties: dict

    def as_dict(self) -> dict:
        return {
            "offer_id": self.offer_id,
            "service_type": self.service_type,
            "ior": self.ior,
            "properties": dict(self.properties),
        }


class TradingService:
    """An in-memory trader with constraint queries and preference ranking.

    Offers are kept per service type in export order.  A query is the
    constraint's compiled scan over that type's offers, then an optional
    preference sort; the seed interpreter and sort are the test tree's
    oracle for this method.
    """

    #: Always 0: no query is narrowed by an index.  Kept only because
    #: benchmarks/s0/workloads/grid_common.py reads it; ROADMAP item 1
    #: removes it.
    indexed_queries = 0

    def __init__(self):
        self._offers: dict[str, Offer] = {}
        # service type -> {offer_id: Offer}, in export order.
        self._by_type: dict[str, dict[str, Offer]] = {}
        self._ids = itertools.count()
        #: Accounting: total queries.  A plain int bump.
        self.queries = 0
        self._timed_query = self._query   # timed once metrics are bound

    def bind_metrics(self, registry, prefix: str = "trader") -> None:
        """Publish counters as registry views; time queries from now on."""
        registry.bind(prefix, self, ("queries", "offer_count"))
        from repro.obs.metrics import LATENCY_BOUNDS_S, timed
        self._timed_query = timed(registry.histogram(
            f"{prefix}.query_latency_s", LATENCY_BOUNDS_S
        ), self._query)

    # -- offer lifecycle ------------------------------------------------------

    def export(self, service_type: str, ior: str, properties: Mapping[str, Any]) -> str:
        """Register an offer; returns its id."""
        if not service_type:
            raise ValueError("service_type must be non-empty")
        offer_id = f"offer{next(self._ids)}"
        offer = Offer(offer_id, service_type, ior, dict(properties))
        self._offers[offer_id] = offer
        self._by_type.setdefault(service_type, {})[offer_id] = offer
        return offer_id

    def modify(self, offer_id: str, properties: Mapping[str, Any]) -> None:
        """Replace an offer's property list (the LRM's periodic update).

        The trader stores its own copy: the caller's mapping may have
        crossed the ORB by reference and stays the caller's.
        """
        offer = self._offers.get(offer_id)
        if offer is None:
            raise UnknownOffer(offer_id)
        offer.properties = dict(properties)

    def withdraw(self, offer_id: str) -> None:
        """Remove an offer."""
        offer = self._offers.pop(offer_id, None)
        if offer is None:
            raise UnknownOffer(offer_id)
        self._by_type[offer.service_type].pop(offer_id, None)

    # -- queries --------------------------------------------------------------

    def query(
        self,
        service_type: str,
        constraint: str = "",
        preference: str = "",
        max_offers: int = -1,
    ) -> list:
        """Matching offers as dicts, best-ranked first.

        ``max_offers`` < 0 means unlimited; ``max_offers == 0`` is an
        explicit "no offers" request and always returns ``[]`` (callers
        probing whether a match *exists* should pass 1).  Ties keep export
        order so results are deterministic.  Each dict carries a copy of
        the offer's properties.  Malformed constraint or preference text
        raises :class:`~repro.apps.constraints.ConstraintError` on every
        call.
        """
        self.queries += 1
        return [
            offer.as_dict() for offer in self._timed_query(
                service_type, constraint, preference, max_offers
            )
        ]

    def query_properties(
        self, service_type: str, constraint: str = ""
    ) -> list:
        """The property dicts of the offers ``constraint`` matches, in
        export order: the live dicts, for a collocated reader that only
        reads them (the GRM).  Counted and timed as a :meth:`query`."""
        self.queries += 1
        return [
            offer.properties for offer in self._timed_query(
                service_type, constraint, "", -1
            )
        ]

    def _query(
        self,
        service_type: str,
        constraint: str,
        preference: str,
        max_offers: int,
    ) -> list:
        # Parse both texts first: malformed input is refused even when
        # there is nothing to scan.  An empty preference ranks nothing.
        scan = Constraint(constraint).scan
        score = Preference(preference).score if preference.strip() else None
        if max_offers == 0:
            return []
        matched = scan(self._by_type.get(service_type, {}).values())
        if score is not None:
            # Stable: ties keep export order.
            matched.sort(key=lambda o: score(o.properties), reverse=True)
        if max_offers >= 0:
            matched = matched[:max_offers]
        return matched

    @property
    def offer_count(self) -> int:
        return len(self._offers)

    def offer(self, offer_id: str) -> Offer:
        """Direct lookup, mostly for tests and monitoring."""
        try:
            return self._offers[offer_id]
        except KeyError:
            raise UnknownOffer(offer_id) from None
