"""Trading service — the CORBA Trader equivalent.

The GRM "uses the JacORB Trader to store the information it receives from
the LRMs" (paper, Section 5).  An offer is a service type, a reference,
and a property list; queries filter offers with a constraint expression
and rank them with a preference expression, both in the language of
:mod:`repro.apps.constraints` (standing in for the OMG trader constraint
language).
"""

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.apps.constraints import (
    Constraint,
    Preference,
    compiled_match_without,
)
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


_MISSING = object()
_by_seq = operator.attrgetter("seq")


@dataclass
class Offer:
    """One service offer held by the trader."""

    offer_id: str
    service_type: str
    ior: str
    properties: dict
    #: Export sequence number; query ties keep ascending ``seq`` order.
    seq: int = 0

    def as_dict(self, copy_properties: bool = True) -> dict:
        return {
            "offer_id": self.offer_id,
            "service_type": self.service_type,
            "ior": self.ior,
            "properties": (
                dict(self.properties) if copy_properties else self.properties
            ),
        }


class TradingService:
    """An in-memory trader with constraint queries and preference ranking.

    Query evaluation is indexed: offers are partitioned by service type,
    and equality conjuncts of the constraint (``sharing == true``) narrow
    the scan to an incrementally-maintained bucket before the full matcher
    runs.  Buckets are built lazily the first time a query needs an
    attribute, so exports and modifies on never-queried attributes cost
    nothing extra.  The original unindexed scan is the test tree's
    oracle for this method.
    """

    def __init__(self):
        self._offers: dict[str, Offer] = {}
        # service type -> {offer_id: Offer}, in export order.
        self._by_type: dict[str, dict[str, Offer]] = {}
        # service type -> attr -> property value -> {offer_id: Offer}.
        # Offers whose value is missing or unhashable are simply absent:
        # under ClassAd semantics they can never satisfy ``attr == literal``.
        self._indexes: dict[str, dict[str, dict[Any, dict[str, Offer]]]] = {}
        self._ids = itertools.count()
        self._seq = itertools.count()
        #: Accounting: total queries, and how many took the equality-
        #: bucket-indexed path vs the full linear scan.  Plain int bumps.
        self.queries = 0
        self.indexed_queries = 0
        self.linear_queries = 0
        self._timed_query = self._query   # timed once metrics are bound

    def bind_metrics(self, registry, prefix: str = "trader") -> None:
        """Publish counters as registry views; time queries from now on."""
        registry.bind(prefix, self,
                      ("queries", "indexed_queries", "linear_queries",
                       "offer_count"))
        from repro.obs.metrics import LATENCY_BOUNDS_S, timed
        self._timed_query = timed(registry.histogram(
            f"{prefix}.query_latency_s", LATENCY_BOUNDS_S
        ), self._query)

    # -- index maintenance ----------------------------------------------------

    def _index_insert(self, index: dict, value, offer: Offer) -> None:
        if value is _MISSING:
            return
        try:
            bucket = index.setdefault(value, {})
        except TypeError:       # unhashable value: cannot match a literal
            return
        bucket[offer.offer_id] = offer

    def _index_remove(self, index: dict, value, offer: Offer) -> None:
        if value is _MISSING:
            return
        try:
            bucket = index.get(value)
        except TypeError:
            return
        if bucket is not None:
            bucket.pop(offer.offer_id, None)
            if not bucket:
                del index[value]

    def _index_for(self, service_type: str, attr: str) -> dict:
        """The value->bucket map for one attribute, built on first use."""
        per_type = self._indexes.setdefault(service_type, {})
        index = per_type.get(attr)
        if index is None:
            index = per_type[attr] = {}
            for offer in self._by_type.get(service_type, {}).values():
                self._index_insert(
                    index, offer.properties.get(attr, _MISSING), offer
                )
        return index

    # -- offer lifecycle ------------------------------------------------------

    def export(self, service_type: str, ior: str, properties: Mapping[str, Any]) -> str:
        """Register an offer; returns its id."""
        if not service_type:
            raise ValueError("service_type must be non-empty")
        offer_id = f"offer{next(self._ids)}"
        offer = Offer(
            offer_id, service_type, ior, dict(properties), seq=next(self._seq)
        )
        self._offers[offer_id] = offer
        self._by_type.setdefault(service_type, {})[offer_id] = offer
        for attr, index in self._indexes.get(service_type, {}).items():
            self._index_insert(index, properties.get(attr, _MISSING), offer)
        return offer_id

    def modify(self, offer_id: str, properties: Mapping[str, Any]) -> None:
        """Replace an offer's property list (the LRM's periodic update).

        The trader stores its own copy: the caller's mapping may have
        crossed the ORB by reference and stays the caller's.
        """
        offer = self._offers.get(offer_id)
        if offer is None:
            raise UnknownOffer(offer_id)
        old = offer.properties
        offer.properties = dict(properties)
        for attr, index in self._indexes.get(offer.service_type, {}).items():
            before = old.get(attr, _MISSING)
            after = properties.get(attr, _MISSING)
            if before != after:     # an unchanged value keeps its bucket
                self._index_remove(index, before, offer)
                self._index_insert(index, after, offer)

    def withdraw(self, offer_id: str) -> None:
        """Remove an offer."""
        offer = self._offers.pop(offer_id, None)
        if offer is None:
            raise UnknownOffer(offer_id)
        self._by_type[offer.service_type].pop(offer_id, None)
        for attr, index in self._indexes.get(offer.service_type, {}).items():
            self._index_remove(index, offer.properties.get(attr, _MISSING),
                               offer)

    # -- queries --------------------------------------------------------------

    def query(
        self,
        service_type: str,
        constraint: str = "",
        preference: str = "",
        max_offers: int = -1,
        copy_properties: bool = True,
    ) -> list:
        """Matching offers as dicts, best-ranked first.

        ``max_offers`` < 0 means unlimited; ``max_offers == 0`` is an
        explicit "no offers" request and always returns ``[]`` (callers
        probing whether a match *exists* should pass 1).  Ties keep export
        order so results are deterministic.  ``copy_properties=False``
        returns property dicts aliasing the live offers — read-only use
        only.
        """
        self.queries += 1
        return self._timed_query(
            service_type, constraint, preference, max_offers,
            copy_properties,
        )

    def _query(
        self,
        service_type: str,
        constraint: str,
        preference: str,
        max_offers: int,
        copy_properties: bool,
    ) -> list:
        if max_offers == 0:
            return []
        pool = self._by_type.get(service_type)
        if not pool:
            return []
        matcher = Constraint(constraint)

        # Narrow to the smallest equality bucket before the full matcher.
        bucket = None
        bucket_conjunct = None
        for attr, literal in matcher.equality_conjuncts:
            index = self._index_for(service_type, attr)
            found = index.get(literal)
            if not found:        # a necessary conjunct no offer satisfies
                self.indexed_queries += 1
                return []
            if bucket is None or len(found) < len(bucket):
                bucket = found
                bucket_conjunct = (attr, literal)
        if bucket is None:
            self.linear_queries += 1
            matches_fn = matcher._match_fn
            matched = [o for o in pool.values() if matches_fn(o.properties)]
        else:
            self.indexed_queries += 1
            # Bucket members satisfy the equality conjunct by construction,
            # so match against the constraint with that conjunct removed.
            matches_fn = compiled_match_without(constraint, *bucket_conjunct)
            matched = [o for o in bucket.values() if matches_fn(o.properties)]
            # Bucket order drifts as modifies re-file offers; sort the
            # (smaller) match set back to export order for determinism.
            matched.sort(key=_by_seq)

        if preference.strip():
            score = Preference(preference)._constraint._score_fn
            if 0 <= max_offers < len(matched):
                # Equivalent to the stable descending sort + slice below,
                # in O(n log k) instead of O(n log n).  The index tiebreak
                # makes tuple comparison total, so no key callback needed.
                keyed = [
                    (-score(o.properties), i) for i, o in enumerate(matched)
                ]
                top = heapq.nsmallest(max_offers, keyed)
                matched = [matched[i] for _, i in top]
            else:
                matched.sort(key=lambda o: score(o.properties), reverse=True)
        if max_offers >= 0:
            matched = matched[:max_offers]
        return [offer.as_dict(copy_properties) for offer in matched]

    @property
    def offer_count(self) -> int:
        return len(self._offers)

    def offer(self, offer_id: str) -> Offer:
        """Direct lookup, mostly for tests and monitoring."""
        try:
            return self._offers[offer_id]
        except KeyError:
            raise UnknownOffer(offer_id) from None
