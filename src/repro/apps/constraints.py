"""A small constraint/preference expression language.

Used in three places, mirroring the original system's use of the CORBA
Trader constraint language and Condor's ClassAds:

* the Trading service evaluates offer constraints (``"mips >= 500 &&
  ram_mb >= 16"``),
* the ASCT expresses application requirements and preferences,
* the Condor-style baseline uses it for matchmaking.

Semantics follow ClassAds where it matters: referencing a property the
offer does not define yields ``UNDEFINED``, and any comparison against
``UNDEFINED`` is false, so malformed offers are never matched rather than
raising at matchmaking time.

Grammar::

    expr   := or
    or     := and  (("||" | "or")  and)*
    and    := not  (("&&" | "and") not)*
    not    := ("!" | "not") not | cmp
    cmp    := sum  (("=="|"!="|"<="|">="|"<"|">") sum)?
    sum    := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := NUMBER | STRING | IDENT | "true" | "false"
            | "(" expr ")" | "-" factor

A NUMBER may carry an exponent (``1e-05``), so the ``repr`` of any
finite non-negative float reads back as exactly that float.
"""

import re
from typing import Any, Mapping, Optional


class ConstraintError(Exception):
    """Raised for syntax errors in a constraint expression."""


class _Undefined:
    """ClassAd-style undefined value: comparisons are false, not errors."""

    _instance: Optional["_Undefined"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()

_TOKEN_RE = re.compile(
    r"""
    (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/()<>!])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)

_KEYWORDS = {"and": "&&", "or": "||", "not": "!", "true": True, "false": False}


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ConstraintError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        pos = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":
            continue
        if kind == "number":
            tokens.append(("num", float(value)))
        elif kind == "string":
            tokens.append(("str", value[1:-1]))
        elif kind == "ident":
            lowered = value.lower()
            if lowered in ("true", "false"):
                tokens.append(("bool", _KEYWORDS[lowered]))
            elif lowered in ("and", "or", "not"):
                tokens.append(("op", _KEYWORDS[lowered]))
            else:
                tokens.append(("ident", value))
        else:
            tokens.append(("op", value))
    return tokens


class _Parser:
    """Recursive-descent parser producing a nested-tuple AST."""

    def __init__(self, tokens: list):
        self._tokens = tokens
        self._pos = 0

    def parse(self):
        node = self._or()
        if self._pos != len(self._tokens):
            kind, value = self._tokens[self._pos]
            raise ConstraintError(f"trailing input at token {value!r}")
        return node

    def _peek_op(self, *ops) -> Optional[str]:
        if self._pos < len(self._tokens):
            kind, value = self._tokens[self._pos]
            if kind == "op" and value in ops:
                return value
        return None

    def _or(self):
        node = self._and()
        while self._peek_op("||"):
            self._pos += 1
            node = ("or", node, self._and())
        return node

    def _and(self):
        node = self._not()
        while self._peek_op("&&"):
            self._pos += 1
            node = ("and", node, self._not())
        return node

    def _not(self):
        if self._peek_op("!"):
            self._pos += 1
            return ("not", self._not())
        return self._cmp()

    def _cmp(self):
        node = self._sum()
        op = self._peek_op("==", "!=", "<=", ">=", "<", ">")
        if op:
            self._pos += 1
            node = ("cmp", op, node, self._sum())
        return node

    def _sum(self):
        node = self._term()
        while True:
            op = self._peek_op("+", "-")
            if not op:
                return node
            self._pos += 1
            node = ("arith", op, node, self._term())

    def _term(self):
        node = self._factor()
        while True:
            op = self._peek_op("*", "/")
            if not op:
                return node
            self._pos += 1
            node = ("arith", op, node, self._factor())

    def _factor(self):
        if self._pos >= len(self._tokens):
            raise ConstraintError("unexpected end of expression")
        kind, value = self._tokens[self._pos]
        if kind == "num":
            self._pos += 1
            return ("num", value)
        if kind == "str":
            self._pos += 1
            return ("str", value)
        if kind == "bool":
            self._pos += 1
            return ("bool", value)
        if kind == "ident":
            self._pos += 1
            return ("ident", value)
        if kind == "op" and value == "(":
            self._pos += 1
            node = self._or()
            if not self._peek_op(")"):
                raise ConstraintError("missing closing parenthesis")
            self._pos += 1
            return node
        if kind == "op" and value == "-":
            self._pos += 1
            return ("neg", self._factor())
        raise ConstraintError(f"unexpected token {value!r}")


def parse(text: str) -> tuple:
    """The nested-tuple AST of an expression; empty text is TRUE."""
    stripped = text.strip()
    if not stripped:
        return ("bool", True)
    return _Parser(_tokenize(stripped)).parse()


class _CodeGen:
    """Translate an AST into the body of a real Python function.

    The generated function evaluates a whole expression in one call
    frame — constants are inlined, short-circuits become ``if``
    statements, and the hot ``ident <op> literal`` comparison collapses
    to two or three bytecode tests.  This is what makes a cached
    Constraint ~10x cheaper per offer than walking the AST; the seed
    AST-walking evaluator lives on in the test tree as the oracle the
    property suites hold this code to.
    """

    def __init__(self):
        self.lines: list[str] = []
        self._n = 0

    def _tmp(self) -> str:
        self._n += 1
        return f"v{self._n}"

    def _emit(self, text: str, indent: int) -> None:
        self.lines.append("    " * indent + text)

    def gen(self, node, indent: int) -> str:
        """Emit statements computing ``node``; returns the result expression."""
        kind = node[0]
        if kind in ("num", "str", "bool"):
            # Bind to a temp so downstream ``is _U`` guards test a variable
            # (comparing a literal with ``is`` is a SyntaxWarning).
            v = self._tmp()
            self._emit(f"{v} = {node[1]!r}", indent)
            return v
        if kind == "ident":
            v = self._tmp()
            self._emit(f"{v} = props.get({node[1]!r}, _U)", indent)
            return v
        if kind == "neg":
            a = self.gen(node[1], indent)
            v = self._tmp()
            self._emit(f"if {a} is _U or isinstance({a}, str):", indent)
            self._emit(f"{v} = _U", indent + 1)
            self._emit("else:", indent)
            self._emit(f"{v} = -{a}", indent + 1)
            return v
        if kind == "not":
            a = self.gen(node[1], indent)
            v = self._tmp()
            self._emit(f"{v} = not ({a} is not _U and bool({a}))", indent)
            return v
        if kind in ("and", "or"):
            a = self.gen(node[1], indent)
            v = self._tmp()
            self._emit(f"{v} = {a} is not _U and bool({a})", indent)
            self._emit(f"if {'' if kind == 'and' else 'not '}{v}:", indent)
            b = self.gen(node[2], indent + 1)
            self._emit(f"{v} = {b} is not _U and bool({b})", indent + 1)
            return v
        if kind == "arith":
            op = node[1]
            a = self.gen(node[2], indent)
            b = self.gen(node[3], indent)
            v = self._tmp()
            self._emit(
                f"if {a} is _U or {b} is _U "
                f"or isinstance({a}, str) or isinstance({b}, str):",
                indent,
            )
            self._emit(f"{v} = _U", indent + 1)
            if op == "/":
                self._emit(f"elif {b} == 0:", indent)
                self._emit(f"{v} = _U", indent + 1)
            self._emit("else:", indent)
            self._emit(f"{v} = {a} {op} {b}", indent + 1)
            return v
        if kind == "cmp":
            return self._gen_cmp(node, indent)
        raise ConstraintError(f"unknown AST node {kind!r}")

    def _gen_cmp(self, node, indent: int) -> str:
        op, lhs, rhs = node[1], node[2], node[3]
        # Hot path: <expr> <op> <literal> with the literal's str-ness known
        # at compile time, so the mixed-type branch folds away.
        for left, right, swap in ((lhs, rhs, False), (rhs, lhs, True)):
            if right[0] not in ("num", "str", "bool"):
                continue
            a = self.gen(left, indent)
            lit = repr(right[1])
            if swap and op in ("<", ">", "<=", ">="):
                op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[op]
            v = self._tmp()
            if right[0] == "str":
                if op == "!=":
                    self._emit(
                        f"{v} = {a} is not _U and "
                        f"(not isinstance({a}, str) or {a} != {lit})",
                        indent,
                    )
                else:
                    self._emit(
                        f"{v} = isinstance({a}, str) and {a} {op} {lit}",
                        indent,
                    )
            else:
                if op == "!=":
                    self._emit(
                        f"{v} = {a} is not _U and "
                        f"(isinstance({a}, str) or {a} != {lit})",
                        indent,
                    )
                else:
                    self._emit(
                        f"{v} = {a} is not _U and "
                        f"not isinstance({a}, str) and {a} {op} {lit}",
                        indent,
                    )
            return v
        a = self.gen(lhs, indent)
        b = self.gen(rhs, indent)
        v = self._tmp()
        self._emit(f"if {a} is _U or {b} is _U:", indent)
        self._emit(f"{v} = False", indent + 1)
        self._emit(f"elif isinstance({a}, str) != isinstance({b}, str):", indent)
        self._emit(f"{v} = {op == '!='}", indent + 1)
        self._emit("else:", indent)
        self._emit(f"{v} = {a} {op} {b}", indent + 1)
        return v


def _compile(node) -> tuple:
    """Compile an AST to ``(value_fn, match_fn, score_fn)``.

    ``match_fn(props)`` is "``value_fn(props)`` is defined and truthy"
    fused into the same generated function, so the Trader's per-offer
    matching is one call; ``score_fn`` is the ranking score likewise.
    """
    gen = _CodeGen()
    result = gen.gen(node, 1)
    body = "\n".join(gen.lines) if gen.lines else "    pass"
    source = (
        "def _constraint_fn(props, _U=_U, isinstance=isinstance):\n"
        f"{body}\n"
        f"    return {result}\n"
        "def _constraint_match(props, _U=_U, isinstance=isinstance):\n"
        f"{body}\n"
        f"    return {result} is not _U and bool({result})\n"
        "def _constraint_score(props, _U=_U, isinstance=isinstance,"
        " float=float):\n"
        f"{body}\n"
        f"    if {result} is _U:\n"
        "        return _NEG_INF\n"
        f"    if isinstance({result}, bool):\n"
        f"        return 1.0 if {result} else 0.0\n"
        f"    if isinstance({result}, str):\n"
        "        return _NEG_INF\n"
        f"    return float({result})\n"
    )
    namespace = {"_U": UNDEFINED, "_NEG_INF": float("-inf")}
    exec(compile(source, "<constraint>", "exec"), namespace)
    return (
        namespace["_constraint_fn"],
        namespace["_constraint_match"],
        namespace["_constraint_score"],
    )


# text -> (value fn, match fn, score fn).  Cleared wholesale if it ever
# grows past the cap (constraint strings interpolate numbers, so the
# population is bounded in practice but not in principle).
_COMPILED_CACHE: dict = {}
_COMPILED_CACHE_MAX = 4096


def _compiled_entry(stripped: str) -> tuple:
    entry = _COMPILED_CACHE.get(stripped)
    if entry is None:
        entry = _compile(parse(stripped))
        if len(_COMPILED_CACHE) >= _COMPILED_CACHE_MAX:
            _COMPILED_CACHE.clear()
        _COMPILED_CACHE[stripped] = entry
    return entry


class Constraint:
    """A parsed boolean constraint, reusable across many property sets.

    Parsing and closure-compilation happen once per distinct expression
    string (module-level cache); constructing a Constraint for a text seen
    before is a dict lookup.
    """

    __slots__ = ("text", "_fn", "_match_fn", "_score_fn")

    def __init__(self, text: str):
        self.text = text
        fn, match_fn, score_fn = _compiled_entry(text.strip())
        self._fn = fn
        #: Single-call ``props -> bool`` matcher.
        self._match_fn = match_fn
        #: Single-call ``props -> float`` ranking score.
        self._score_fn = score_fn

    def matches(self, props: Mapping[str, Any]) -> bool:
        """True iff the expression is truthy over ``props``."""
        return self._match_fn(props)

    def value(self, props: Mapping[str, Any]) -> Any:
        """Raw expression value (may be a number or UNDEFINED)."""
        return self._fn(props)

    def __repr__(self):
        return f"Constraint({self.text!r})"


class Preference:
    """A numeric ranking expression: higher values are preferred.

    Mirrors the paper's "preferences, like rather executing on a faster
    CPU than on a slower one" — e.g. ``Preference("mips")``.  Offers for
    which the expression is undefined, or a string, rank below all
    defined ones; a boolean scores 1.0 or 0.0.
    """

    def __init__(self, text: str):
        self.text = text
        self._constraint = Constraint(text if text.strip() else "0")

    def score(self, props: Mapping[str, Any]) -> float:
        """Numeric score for ranking; -inf when undefined."""
        return self._constraint._score_fn(props)

    def __repr__(self):
        return f"Preference({self.text!r})"


def evaluate(text: str, props: Mapping[str, Any]) -> bool:
    """One-shot convenience: parse and match in a single call."""
    return Constraint(text).matches(props)
