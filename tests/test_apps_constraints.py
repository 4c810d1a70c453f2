"""Unit tests for the constraint/preference expression language."""

import pytest

from repro import ApplicationSpec, Grid
from repro.apps.constraints import (
    _COMPILED_CACHE,
    MAX_DEPTH,
    Constraint,
    ConstraintError,
    Preference,
    UNDEFINED,
    evaluate,
    parse,
)
from repro.apps.spec import ResourceRequirements
from repro.core.scheduler import ScheduleContext
from repro.orb.core import Orb, RemoteInvocationError
from repro.orb.trading import TRADING_INTERFACE, TradingService
from repro.orb.transport import InProcDomain

from tests.oracles import constraints as constraint_oracle


class TestBasics:
    def test_numeric_comparison(self):
        assert evaluate("mips >= 500", {"mips": 800})
        assert not evaluate("mips >= 500", {"mips": 200})

    @pytest.mark.parametrize("expr,expected", [
        ("1 < 2", True),
        ("2 < 1", False),
        ("2 <= 2", True),
        ("3 > 2", True),
        ("2 >= 3", False),
        ("2 == 2", True),
        ("2 != 2", False),
    ])
    def test_all_comparison_operators(self, expr, expected):
        assert evaluate(expr, {}) is expected

    @pytest.mark.parametrize("number", [1e-05, 1.5e+16, 2.5e-300, 1e+22])
    def test_repr_of_a_float_reads_back_exactly(self, number):
        assert evaluate(f"x == {number!r}", {"x": number})
        assert not evaluate(f"x > {number!r}", {"x": number})

    def test_string_equality(self):
        assert evaluate("os == 'linux'", {"os": "linux"})
        assert not evaluate('os == "windows"', {"os": "linux"})

    def test_boolean_literals(self):
        assert evaluate("true", {})
        assert not evaluate("false", {})

    def test_empty_expression_matches_everything(self):
        assert evaluate("", {"anything": 1})
        assert evaluate("   ", {})


class TestLogical:
    def test_and(self):
        props = {"mips": 800, "ram_mb": 32}
        assert evaluate("mips >= 500 && ram_mb >= 16", props)
        assert not evaluate("mips >= 500 && ram_mb >= 64", props)

    def test_or(self):
        assert evaluate("a == 1 || b == 2", {"a": 0, "b": 2})

    def test_not(self):
        assert evaluate("!(a == 1)", {"a": 2})
        assert not evaluate("not (a == 1)", {"a": 1})

    def test_keyword_aliases(self):
        assert evaluate("a == 1 and b == 2", {"a": 1, "b": 2})
        assert evaluate("a == 1 or b == 9", {"a": 1, "b": 2})

    def test_precedence_and_over_or(self):
        # a || b && c must parse as a || (b && c)
        assert evaluate("true || false && false", {})

    def test_a_chain_is_one_node(self):
        a, b, c = ("ident", "a"), ("ident", "b"), ("ident", "c")
        assert parse("a && b and c") == ("and", a, b, c)
        assert parse("(a || b) || c") == ("or", a, b, c)
        assert parse("a || b && c || a") == ("or", a, ("and", b, c), a)
        assert parse("a && (b && c)") == ("and", a, ("and", b, c))


class TestArithmetic:
    def test_addition_in_comparison(self):
        assert evaluate("free_mb + reserved_mb >= 100", {
            "free_mb": 60, "reserved_mb": 50,
        })

    def test_multiplication_precedence(self):
        assert evaluate("2 + 3 * 4 == 14", {})

    def test_parentheses(self):
        assert evaluate("(2 + 3) * 4 == 20", {})

    def test_unary_minus(self):
        assert evaluate("-x < 0", {"x": 5})

    def test_division_by_zero_is_undefined(self):
        assert not evaluate("1 / 0 > 0", {})
        assert not evaluate("1 / 0 < 1", {})


class TestUndefinedSemantics:
    def test_missing_property_comparison_is_false(self):
        assert not evaluate("mips >= 500", {})
        assert not evaluate("mips < 500", {})

    def test_missing_property_inequality_is_false_too(self):
        # ClassAd semantics: UNDEFINED != x is also false.
        assert not evaluate("os != 'linux'", {})

    def test_undefined_propagates_through_arithmetic(self):
        assert not evaluate("mips * 2 >= 100", {})

    def test_or_can_rescue_undefined(self):
        assert evaluate("mips >= 500 || ram_mb >= 16", {"ram_mb": 32})

    def test_undefined_is_falsy(self):
        assert not UNDEFINED
        assert not evaluate("ghost", {})

    def test_mixed_type_comparison_not_equal(self):
        assert evaluate("os != 5", {"os": "linux"})
        assert not evaluate("os == 5", {"os": "linux"})


class TestErrors:
    @pytest.mark.parametrize("expr", [
        "mips >=", "&& a", "(a == 1", "a == 1)", "a @ b", "1 2",
    ])
    def test_syntax_errors(self, expr):
        with pytest.raises(ConstraintError):
            Constraint(expr)


class TestPreference:
    def test_numeric_score(self):
        assert Preference("mips").score({"mips": 1200}) == 1200.0

    def test_expression_score(self):
        pref = Preference("mips / 100 + ram_mb")
        assert pref.score({"mips": 500, "ram_mb": 64}) == pytest.approx(69.0)

    def test_undefined_ranks_below_everything(self):
        pref = Preference("mips")
        assert pref.score({}) == float("-inf")
        assert pref.score({"mips": 1}) > pref.score({})

    def test_boolean_preference(self):
        pref = Preference("os == 'linux'")
        assert pref.score({"os": "linux"}) == 1.0
        assert pref.score({"os": "windows"}) == 0.0

    def test_empty_preference_is_constant(self):
        pref = Preference("")
        assert pref.score({"mips": 1}) == pref.score({"mips": 1000})


class TestReuse:
    def test_constraint_reusable_across_property_sets(self):
        constraint = Constraint("mips >= 500")
        assert constraint.matches({"mips": 600})
        assert not constraint.matches({"mips": 400})

    def test_dotted_identifiers(self):
        assert evaluate("node.mips >= 500", {"node.mips": 900})


class TestNanScore:
    """A NaN score ranks as undefined: below every defined score."""

    MIPS = [3.0, float("nan"), 1.0, 5.0, 2.0, 4.0]

    def test_nan_scores_minus_infinity(self):
        pref = Preference("mips")
        assert pref.score({"mips": float("nan")}) == float("-inf")
        assert Preference("a * b").score({"a": 0.0, "b": float("inf")}) \
            == float("-inf")
        assert Preference("a - b").score(
            {"a": float("inf"), "b": float("inf")}) == float("-inf")

    def trader(self):
        trader = TradingService()
        for i, mips in enumerate(self.MIPS):
            trader.export("node", f"IOR:{i}", {"mips": mips, "n": i})
        return trader

    def test_trader_top_k_is_the_top_k(self):
        offers = self.trader().query("node", "", "mips", 3)
        assert [o["properties"]["mips"] for o in offers] == [5.0, 4.0, 3.0]

    def test_trader_full_sort_puts_nan_last(self):
        offers = self.trader().query("node", "", "mips")
        assert [o["properties"]["n"] for o in offers] == [3, 5, 0, 4, 2, 1]

    def test_top_k_and_full_sort_agree_and_ties_keep_export_order(self):
        trader = TradingService()
        for i, mips in enumerate([float("nan"), 1.0, float("nan")]):
            trader.export("node", f"IOR:{i}", {"mips": mips, "n": i})
        trader.export("node", "IOR:3", {"n": 3})     # undefined
        for k in (1, 2, 3, 4, -1):
            offers = trader.query("node", "", "mips", k)
            assert [o["properties"]["n"] for o in offers] \
                == [1, 0, 2, 3][:k if k >= 0 else None]

    def test_grm_rank_puts_nan_last(self):
        grid = Grid(seed=1, policy="first_fit", lupa_enabled=False)
        grid.add_cluster("c0")
        grm = grid.clusters["c0"].grm
        spec = ApplicationSpec(name="t", work_mips=1e5, preference="mips")
        ctx = ScheduleContext(spec=spec, remaining_mips=1e5, now=0.0)
        offers = [{"node": f"n{i}", "mips": m}
                  for i, m in enumerate(self.MIPS)]
        ranked = grm._rank(offers, ctx, spec)
        assert [o["node"] for o in ranked] \
            == ["n3", "n5", "n0", "n4", "n2", "n1"]


class TestLiterals:
    def test_a_literal_past_the_float_range_is_infinity(self):
        assert evaluate("x < 1e999", {"x": 1e308})
        assert Constraint("1e999").value({}) == float("inf")
        assert Constraint("-1e999 < x").matches({"x": -1e308})


class TestNestingBound:
    """Deep text fails cleanly at parse; long flat chains compile."""

    REFUSED = {
        "989-term + chain": " + ".join(["a"] * 989) + " > 0",
        "985 !": "!" * 985 + "a",
        "140 parentheses": "(" * 140 + "a" + ")" * 140,
        "98 right-nested &&": "a && (" * 97 + "a" + ")" * 97,
        "a bound's worth of unary minus, plus one":
            "-" * (MAX_DEPTH + 1) + "a",
        "a left + chain one past the bound":
            " + ".join(["a"] * (MAX_DEPTH + 1)) + " > 0",
    }

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_too_deep_raises_constraint_error(self, name):
        text = self.REFUSED[name]
        with pytest.raises(ConstraintError, match="nests deeper"):
            Constraint(text)
        with pytest.raises(ConstraintError, match="nests deeper"):
            Preference(text)
        with pytest.raises(ConstraintError, match="nests deeper"):
            ResourceRequirements(extra=text)

    @pytest.mark.parametrize("text", [
        "-" * MAX_DEPTH + "a",
        "!" * MAX_DEPTH + "a",
        "(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH,
        " + ".join(["a"] * MAX_DEPTH) + " > 0",
        "a + (" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1),
        "(a < b) == (" * (MAX_DEPTH - 1) + "a < b" + ")" * (MAX_DEPTH - 1),
    ])
    def test_the_bound_itself_compiles_and_agrees(self, text):
        props = {"a": 1.5, "b": 2.0}
        constraint = Constraint(text)
        assert repr(constraint.value(props)) \
            == repr(constraint_oracle.value(text, props))
        assert Preference(text).score(props) \
            == constraint_oracle.score(text, props)

    @pytest.mark.parametrize("terms", [990, 10_000])
    def test_long_flat_chains_compile(self, terms):
        conj = " && ".join(f"x >= {i}" for i in range(terms))
        disj = " || ".join(f"x == {i}" for i in range(terms))
        for x in (-1, 0, terms - 1, terms):
            props = {"x": float(x)}
            assert Constraint(conj).matches(props) is (x >= terms - 1)
            assert Constraint(disj).matches(props) is (0 <= x < terms)
        reqs = ResourceRequirements(extra=conj)
        assert reqs.satisfied_by({"x": terms})

    def test_extra_is_refused_when_its_parentheses_pass_the_bound(self):
        text = "(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH
        Constraint(text)
        with pytest.raises(ConstraintError, match="nests deeper"):
            ResourceRequirements(extra=text)
        # One level less fits, and the GRM's query text built on it too.
        inner = text[1:-1]
        reqs = ResourceRequirements(extra=inner)
        Constraint(f"sharing == true && cpu_free >= 1.0 && "
                   f"{reqs.constraint}")

    def test_marshalled_query_names_constraint_error(self):
        domain = InProcDomain()
        server = Orb("trader-host", domain=domain)
        client = Orb("trader-user", domain=domain)
        query = TRADING_INTERFACE.operation("query")
        try:
            ref = server.activate(TradingService(), TRADING_INTERFACE)
            client.stub(ref, TRADING_INTERFACE).export(
                "node", "IOR:x", {"x": 988.0})

            def marshalled(constraint):
                return client.invoke(ref, query, ("node", constraint, "", -1))

            chain = " && ".join(f"x >= {i}" for i in range(990))
            assert marshalled(chain) == []
            assert len(marshalled(chain.replace("x >= 989", "x >= 0"))) == 1
            with pytest.raises(RemoteInvocationError, match="ConstraintError"):
                marshalled("!" * 985 + "x")
        finally:
            server.shutdown()
            client.shutdown()


class TestFormsCompileOnFirstUse:
    def test_each_form_compiles_when_first_used(self):
        text = "lazy_a >= 1 && lazy_b < 2"
        constraint = Constraint(text)
        forms = _COMPILED_CACHE[text]
        assert set(vars(forms)) == {"node"}
        constraint.scan([])
        assert set(vars(forms)) == {"node", "scan"}
        constraint.matches({})
        constraint.value({})
        Preference(text).score({})
        assert set(vars(forms)) == {"node", "scan", "match", "value", "score"}

    def test_a_trader_query_compiles_only_the_scan(self):
        trader = TradingService()
        trader.export("node", "IOR:1", {"lazy_c": 2.0})
        trader.query_properties("node", "lazy_c >= 1")
        trader.query("node", "lazy_c >= 2", "lazy_c * 2")
        assert set(vars(_COMPILED_CACHE["lazy_c >= 1"])) == {"node", "scan"}
        assert set(vars(_COMPILED_CACHE["lazy_c >= 2"])) == {"node", "scan"}
        assert set(vars(_COMPILED_CACHE["lazy_c * 2"])) == {"node", "score"}

    def test_an_empty_preference_builds_no_preference(self, monkeypatch):
        import repro.orb.trading as trading

        built = []
        monkeypatch.setattr(trading, "Preference",
                            lambda text: built.append(text) or Preference(text))
        trader = TradingService()
        trader.export("node", "IOR:1", {"mips": 1.0})
        assert len(trader.query("node", "mips > 0", "", 5)) == 1
        assert len(trader.query("node", "mips > 0", "   ", -1)) == 1
        assert len(trader.query_properties("node", "mips > 0")) == 1
        assert built == []
        trader.query("node", "mips > 0", "mips", 5)
        assert built == ["mips"]

    def test_unknown_attributes_are_not_forms(self):
        with pytest.raises(AttributeError):
            Constraint("a")._forms.no_such_form
