"""The seed Trader query: scan every offer, interpret, stable sort.

``TradingService.query`` answers with one compiled scan over the
service type's offers and a sort on the compiled preference score;
``tests/test_trader_equivalence.py`` and ``benchmarks/bench_e11_orb.py``
hold it to this.
"""

from tests.oracles import constraints


def query_linear(
    offers,
    service_type: str,
    constraint: str = "",
    preference: str = "",
    max_offers: int = -1,
) -> list:
    """Matching offers as dicts, best-ranked first, ties in export order.

    ``offers`` are the trader's live :class:`~repro.orb.trading.Offer`
    objects in export order (``[trader.offer(i) for i in ids]``).
    """
    candidates = [
        offer for offer in offers
        if offer.service_type == service_type
        and constraints.matches(constraint, offer.properties)
    ]
    if preference.strip():
        candidates.sort(
            key=lambda o: constraints.score(preference, o.properties),
            reverse=True,
        )
    if max_offers >= 0:
        candidates = candidates[:max_offers]
    return [offer.as_dict() for offer in candidates]
