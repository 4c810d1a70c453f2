"""The seed constraint evaluator: walk the AST one node at a time.

``Constraint`` compiles each expression to one Python expression
instead; ``tests/test_property_based.py`` holds the compiled value,
match, score and scan to these, and ``tests/oracles/trading.py``
matches and ranks offers with them.
"""

from typing import Any, Mapping

from repro.apps.constraints import UNDEFINED, ConstraintError, parse


def _truthy(value: Any) -> bool:
    if value is UNDEFINED:
        return False
    return bool(value)


def evaluate(node, props: Mapping[str, Any]) -> Any:
    """Value of a parsed expression over ``props`` (ClassAd semantics)."""
    kind = node[0]
    if kind in ("num", "str", "bool"):
        return node[1]
    if kind == "ident":
        return props.get(node[1], UNDEFINED)
    if kind == "neg":
        value = evaluate(node[1], props)
        if value is UNDEFINED or isinstance(value, str):
            return UNDEFINED
        return -value
    if kind == "not":
        return not _truthy(evaluate(node[1], props))
    if kind == "and":       # one node per chain, terms left to right
        return all(_truthy(evaluate(term, props)) for term in node[1:])
    if kind == "or":
        return any(_truthy(evaluate(term, props)) for term in node[1:])
    if kind == "arith":
        op = node[1]
        lhs, rhs = evaluate(node[2], props), evaluate(node[3], props)
        if lhs is UNDEFINED or rhs is UNDEFINED:
            return UNDEFINED
        # Arithmetic on non-numbers is UNDEFINED, never an error at
        # matchmaking time.
        if isinstance(lhs, str) or isinstance(rhs, str):
            return UNDEFINED
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if rhs == 0:
            return UNDEFINED
        return lhs / rhs
    if kind == "cmp":
        op = node[1]
        lhs, rhs = evaluate(node[2], props), evaluate(node[3], props)
        if lhs is UNDEFINED or rhs is UNDEFINED:
            return False
        if isinstance(lhs, str) != isinstance(rhs, str):
            return op == "!="
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        if op == "<":
            return lhs < rhs
        if op == ">":
            return lhs > rhs
        if op == "<=":
            return lhs <= rhs
        return lhs >= rhs
    raise ConstraintError(f"unknown AST node {kind!r}")


def value(text: str, props: Mapping[str, Any]) -> Any:
    """What ``Constraint(text).value(props)`` must return."""
    return evaluate(parse(text), props)


def matches(text: str, props: Mapping[str, Any]) -> bool:
    """What ``Constraint(text).matches(props)`` must return."""
    return _truthy(value(text, props))


def score(text: str, props: Mapping[str, Any]) -> float:
    """What ``Preference(text).score(props)`` must return."""
    result = value(text if text.strip() else "0", props)
    if result is UNDEFINED or isinstance(result, str):
        return float("-inf")
    if isinstance(result, bool):
        return 1.0 if result else 0.0
    # NaN ranks with the undefined: below every defined score, so a
    # heap top-k and a full sort agree and ties keep export order.
    score = float(result)
    return score if score == score else float("-inf")
