"""Equivalence suite: the Trader's compiled scan vs the linear oracle.

:meth:`TradingService.query` answers with the constraint's compiled
scan, one comprehension over the service type's offers in export
order, and a stable sort on the compiled preference score.
``tests/oracles/trading.py::query_linear`` is the
seed implementation — interpreted evaluator, full scan, stable sort.
The two must return *identical offers in identical rank order* for
every constraint, preference, and ``max_offers``; hypothesis drives
randomized offer populations (including missing, oddly-typed, and
unhashable property values) and randomized expression trees through
both paths, interleaved with modify/withdraw churn so export order must
survive it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.orb.trading import TradingService

from tests.oracles.trading import query_linear

# Finite value pools force the True/1/1.0 equality unification the
# compiled matcher must mirror.  ``tags`` is sometimes unhashable (a
# list) — such offers can never satisfy ``attr == literal`` and must be
# skipped, not crash the scan; against a number it is unorderable, and
# both paths must raise.  NaN and the infinities reach the arithmetic
# and the preference scores (a NaN score ranks as undefined).  One NaN
# object is shared, so answers that carry it compare equal.
NAN = float("nan")
INF = float("inf")
ATTR_VALUES = {
    "mips": [250, 500.0, 750.0, 1000.0, True, NAN, INF],
    "os": ["linux", "solaris", "irix", 5],
    "sharing": [True, False, 0, 1],
    "cpu_free": [0.0, 0.25, 0.5, 1.0, -INF, NAN],
    "tags": [[1, 2], "x", 1],
}

ATOMS = [
    "mips == 500",
    "mips == true",
    "mips >= 500",
    "mips < 750",
    "500 <= mips",
    'os == "linux"',
    'os != "linux"',
    "sharing == true",
    "sharing == 1",
    "sharing",
    "cpu_free > 0.2",
    "cpu_free == 0.25",
    "tags == 1",
    "missing == 1",
    "missing >= 2",
    # Arithmetic, negation and division: the value paths the
    # preferences alone used to reach.
    "mips * cpu_free >= 250",
    "mips + cpu_free > 500",
    "mips - 2 * cpu_free <= 999",
    "-mips < -600",
    "-(cpu_free) == 0",
    "mips / cpu_free >= 1000",
    "1 / cpu_free > 1",
    "(cpu_free < mips) + 1 == 2",
    # Property against property.
    "mips > cpu_free",
    "mips == sharing",
    "os != tags",
    "tags < os",
]

PREFERENCES = [
    "",
    "mips",
    "cpu_free * mips",
    "mips / cpu_free",       # division by zero -> UNDEFINED -> ranked last
    "os",                    # string score -> ranked last
    "missing",               # UNDEFINED score -> ranked last
    "mips - cpu_free",
    "cpu_free > 0.2",        # boolean score
    "-mips",
    "mips * cpu_free - mips",   # inf - inf, NaN * x: NaN -> ranked last
]

properties = st.fixed_dictionaries(
    {}, optional={k: st.sampled_from(v) for k, v in ATTR_VALUES.items()}
)

constraints = st.one_of(
    st.just(""),
    st.recursive(
        st.sampled_from(ATOMS),
        lambda c: st.one_of(
            st.tuples(c, c).map(lambda t: f"({t[0]}) && ({t[1]})"),
            st.tuples(c, c).map(lambda t: f"({t[0]}) || ({t[1]})"),
            c.map(lambda s: f"!({s})"),
        ),
        max_leaves=4,
    ),
)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    offers=st.lists(properties, max_size=12),
    constraint=constraints,
    preference=st.sampled_from(PREFERENCES),
    max_offers=st.sampled_from([-1, 0, 1, 3, 10]),
    churn=st.lists(st.tuples(st.integers(0, 11), properties), max_size=4),
)
def test_query_matches_linear_oracle(
    offers, constraint, preference, max_offers, churn
):
    svc = TradingService()
    ids = [svc.export("node", f"ior:{i}", props)
           for i, props in enumerate(offers)]

    def check():
        args = ("node", constraint, preference, max_offers)
        try:
            expected = query_linear([svc.offer(i) for i in ids], *args)
        except TypeError:
            # Unorderable operands (list >= float) raise in the
            # interpreter; the compiled path must raise identically.
            with pytest.raises(TypeError):
                svc.query(*args)
            return
        assert svc.query(*args) == expected

    check()
    for slot, props in churn:
        if not ids:
            break
        offer_id = ids[slot % len(ids)]
        if slot % 3 == 0:
            svc.withdraw(offer_id)
            ids.remove(offer_id)
        else:
            svc.modify(offer_id, props)
    check()   # modify/withdraw churn must keep export order


def test_max_offers_zero_is_explicit_empty():
    """``max_offers == 0`` is a contract: always [], never a scan."""
    svc = TradingService()
    svc.export("node", "ior:a", {"mips": 1000.0})
    assert svc.query("node", max_offers=0) == []
    assert svc.query("node", "mips >= 0", "mips", max_offers=0) == []
    assert svc.query("nothing-registered", max_offers=0) == []


def test_rank_order_ties_keep_export_order():
    svc = TradingService()
    offers = [
        svc.offer(svc.export("node", f"ior:{i}", {"mips": 100.0, "n": i}))
        for i in range(6)
    ]
    result = svc.query("node", "mips == 100", "mips", max_offers=4)
    assert [o["properties"]["n"] for o in result] == [0, 1, 2, 3]
    assert result == query_linear(offers, "node", "mips == 100", "mips", 4)


def test_refiled_offers_keep_export_order():
    """A modify keeps an offer's place: an unranked query still answers
    in export order."""
    svc = TradingService()
    offers = [
        svc.offer(svc.export("node", f"ior:{i}", {"sharing": True, "n": i}))
        for i in range(4)
    ]
    svc.query("node", "sharing == true")
    for offer in offers[:2]:
        svc.modify(offer.offer_id, dict(offer.properties))
    result = svc.query("node", "sharing == true")
    assert [o["properties"]["n"] for o in result] == [0, 1, 2, 3]
    assert result == query_linear(offers, "node", "sharing == true")


def test_index_survives_unhashable_and_missing_values():
    svc = TradingService()
    a = svc.export("node", "ior:a", {"tags": [1, 2], "mips": 500.0})
    b = svc.export("node", "ior:b", {"mips": 500.0})
    c = svc.export("node", "ior:c", {"tags": 1, "mips": 250.0})
    assert [o["offer_id"] for o in svc.query("node", "tags == 1")] == [c]
    svc.modify(c, {"tags": [3], "mips": 250.0})
    assert svc.query("node", "tags == 1") == []
    svc.withdraw(a)
    assert [o["offer_id"] for o in svc.query("node", "mips == 500")] == [b]


@pytest.mark.parametrize("terms", [3, 990])
def test_long_chain_query_equals_its_strongest_term(terms):
    """A flat chain of any length compiles to one scan; its answer is the
    answer of the one term that decides it."""
    svc = TradingService()
    offers = [svc.offer(svc.export("node", f"ior:{i}", {"mips": float(i)}))
              for i in range(terms + 2)]
    conj = " && ".join(f"mips >= {i}" for i in range(terms))
    disj = " || ".join(f"mips == {i}" for i in range(terms))
    for constraint, decider in ((conj, f"mips >= {terms - 1}"),
                                (disj, f"mips < {terms}")):
        for preference, k in (("", -1), ("mips", 3)):
            args = ("node", constraint, preference, k)
            assert svc.query(*args) == query_linear(
                offers, "node", decider, preference, k)
        assert svc.query_properties("node", constraint) == [
            offer["properties"] for offer
            in query_linear(offers, "node", decider)]
