"""Unit tests for the constraint/preference expression language."""

import pytest

from repro.apps.constraints import (
    Constraint,
    ConstraintError,
    Preference,
    UNDEFINED,
    evaluate,
)


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
