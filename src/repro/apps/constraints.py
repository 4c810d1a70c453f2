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

Parentheses, ``!`` and unary ``-`` may nest :data:`MAX_DEPTH` deep,
and so may operators (``&&`` / ``||`` chains count once, whatever their
length); deeper text raises :class:`ConstraintError` at parse.  A text
compiles to one Python expression, wrapped in each form its callers use
(``value``, ``match``, ``score``, ``scan``) when first used.
"""

import re
from collections import namedtuple
from typing import Any, Mapping, Optional

#: How deep parentheses, ``!``, unary ``-`` and operators may nest.
MAX_DEPTH = 32


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
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<str>"[^"]*"|'[^']*')
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
        if kind == "num":
            value = float(value)
        elif kind == "str":
            value = value[1:-1]
        elif kind == "ident" and value.lower() in _KEYWORDS:
            value = _KEYWORDS[value.lower()]
            kind = "bool" if type(value) is bool else "op"
        tokens.append((kind, value))
    return tokens


_CHAINS = {"||": "or", "&&": "and"}


_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


class _Parser:
    """Recursive-descent parser producing a nested-tuple AST."""

    def __init__(self, tokens: list):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    def _nested(self, parse):
        """``parse()`` one level deeper, refused past :data:`MAX_DEPTH`."""
        if self._depth == MAX_DEPTH:
            raise ConstraintError(_TOO_DEEP)
        self._depth += 1
        node = parse()
        self._depth -= 1
        return node

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

    def _left(self, ops, operand):
        """A left-associative chain of ``operand()`` joined by ``ops``:
        one n-ary node per ``&&`` / ``||`` chain, of any length."""
        node = operand()
        while op := self._peek_op(*ops):
            self._pos += 1
            rhs = operand()
            if op not in _CHAINS:
                node = ("arith", op, node, rhs)
            elif node[0] == _CHAINS[op]:
                node += (rhs,)
            else:
                node = (_CHAINS[op], node, rhs)
        return node

    def _or(self):
        return self._left(("||",), self._and)

    def _and(self):
        return self._left(("&&",), self._not)

    def _not(self):
        if self._peek_op("!"):
            self._pos += 1
            return ("not", self._nested(self._not))
        return self._cmp()

    def _cmp(self):
        node = self._sum()
        if op := self._peek_op("==", "!=", "<=", ">=", "<", ">"):
            self._pos += 1
            node = ("cmp", op, node, self._sum())
        return node

    def _sum(self):
        return self._left(("+", "-"), self._term)

    def _term(self):
        return self._left(("*", "/"), self._factor)

    def _factor(self):
        if self._pos >= len(self._tokens):
            raise ConstraintError("unexpected end of expression")
        kind, value = self._tokens[self._pos]
        if kind != "op":        # a literal or an identifier
            self._pos += 1
            return (kind, value)
        if value == "(":
            self._pos += 1
            node = self._nested(self._or)
            if not self._peek_op(")"):
                raise ConstraintError("missing closing parenthesis")
            self._pos += 1
            return node
        if value == "-":
            self._pos += 1
            return ("neg", self._nested(self._factor))
        raise ConstraintError(f"unexpected token {value!r}")


def parse(text: str) -> tuple:
    """The nested-tuple AST of an expression; empty text is TRUE."""
    stripped = text.strip()
    if not stripped:
        return ("bool", True)
    root = _Parser(_tokenize(stripped)).parse()
    # Operators along each path (iterative: a left-nested chain may be
    # thousands of terms long).
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        depth += node[0] in _OPERATORS
        if depth > MAX_DEPTH:
            raise ConstraintError(_TOO_DEEP)
        stack += [(child, depth) for child in node[1:] if type(child) is tuple]
    return root


_LITERALS = ("num", "str", "bool")
_OPERATORS = ("not", "neg", "arith", "cmp")
#: Is an operand a string: known for a literal, asked (None) for a property.
_IS_STR = {"num": False, "str": True, "bool": False, "ident": None}
_INF = float("inf")

#: Generated text (an atom or parenthesized), its AST kind, whether it may
#: be UNDEFINED and whether it is always exactly True or False.
_Expr = namedtuple("_Expr", "text kind undef boolean", defaults=(False, False))


class _ExprGen:
    """Translate an AST into one Python expression over ``props``, with
    the seed interpreter's (the test tree's oracle) evaluation order,
    UNDEFINED guards, string rules and division-by-zero rule; ``&&`` /
    ``||`` chains become one flat ``and`` / ``or`` of truth tests."""

    def __init__(self):
        self._n = 0

    def tmp(self) -> str:
        self._n += 1
        return f"e{self._n}"

    def gen(self, node, test: bool = False) -> _Expr:
        """``node`` as an expression; with ``test``, only its truth counts."""
        kind = node[0]
        if kind in _LITERALS:
            text = "1e999" if node[1] == _INF else repr(node[1])
            return _Expr(text, kind, boolean=kind == "bool")
        if kind == "ident":
            return _Expr(f"props.get({node[1]!r}, _U)", kind, undef=True)
        if kind == "not":
            return _Expr(f"(not {self.gen(node[1], True).text})", kind,
                         boolean=True)
        if kind in ("and", "or"):
            terms = [self.gen(child, True) for child in node[1:]]
            text = f" {kind} ".join(term.text for term in terms)
            boolean = all(term.boolean for term in terms)
            if test or boolean:
                return _Expr(f"({text})", kind, boolean=boolean)
            return _Expr(f"(True if {text} else False)", kind, boolean=True)
        op = "-" if kind == "neg" else node[1]
        ops = [self.gen(n) for n in node[1:] if type(n) is tuple]
        if op == "==" and any(e.kind in _LITERALS for e in ops):
            # UNDEFINED equals no literal, a string no non-string.
            return _Expr(f"({ops[0].text} == {ops[1].text})", kind,
                         boolean=True)
        if kind == "cmp":
            names, guard = self._operands(ops, "is not")
            final = f"{names[0]} {op} {names[1]}"
            sa, sb = (_IS_STR.get(e.kind, False) for e in ops)
            if op in ("==", "!=") or (sa is not None and sa == sb):
                pass    # unequal types are simply unequal
            elif sa is not None and sb is not None:
                final = "False"     # a string orders against no non-string
            elif sa is None and sb is None:
                final = (f"({final} if isinstance({names[0]}, str) is "
                         f"isinstance({names[1]}, str) else False)")
            else:   # a property read against an operand of known type
                i, known = (0, sb) if sa is None else (1, sa)
                final = (f"{'' if known else 'not '}isinstance({names[i]}, "
                         f"str) and {final}")
                if ops[1 - i].kind in ("num", "bool"):
                    # A float orders against a number as it is.
                    return _Expr(
                        f"({names[0]} {op} {names[1]} if type({names[i]} := "
                        f"{ops[i].text}) is float else {names[i]} is not _U "
                        f"and {final})", kind, boolean=True)
            return _Expr(f"({guard} and {final})" if guard else f"({final})",
                         kind, boolean=True)
        names, guard = self._operands(ops, "is")
        bad = [guard] * bool(guard) + [     # any UNDEFINED or string
            "True" if e.kind == "str" else f"isinstance({name}, str)"
            for e, name in zip(ops, names) if e.kind in ("ident", "str")]
        if op == "/" and not (node[3][0] in ("num", "bool") and node[3][1]):
            bad.append(f"{names[1]} == 0")
        value = f" {op} ".join(names) if kind == "arith" else f"-{names[0]}"
        if not bad:
            return _Expr(f"({value})", kind)
        return _Expr(f"(_U if {' or '.join(bad)} else {value})", kind, True)

    def _operands(self, ops: list, test: str):
        """The names ``ops`` are read by, and the guard (``<x> is _U`` or
        ``is not``) that binds each non-literal to a walrus temporary.
        Property reads are pure, so their guards short-circuit; a derived
        operand (it may raise, like an unorderable comparison) makes the
        guard evaluate every operand, in order, with ``|`` / ``&``."""
        names, guards = [], []
        for e in ops:
            if e.kind in _LITERALS:
                names.append(e.text)
                continue
            names.append(self.tmp())
            guards.append(f"({names[-1]} := {e.text}) {test} _U")
        if any(e.kind not in _LITERALS + ("ident",) for e in ops):
            joiner = " | " if test == "is" else " & "
            return names, joiner.join(f"({g})" for g in guards)
        return names, (" or " if test == "is" else " and ").join(guards)


_HEADER = "_U=_U, isinstance=isinstance, str=str, float=float, type=type"


def _compile(node, form: str):
    """One form of ``node``: a one-line function around its expression.

    ``value(props)`` is its value (may be UNDEFINED); ``match(props)``
    whether that is defined and truthy; ``score(props)`` the ranking
    score (UNDEFINED, a string and NaN are -inf, a boolean 1.0 or 0.0,
    a number itself as a float); ``scan(offers)`` the offers whose
    ``properties`` match, in order.
    """
    gen = _ExprGen()
    if form == "value":
        body = gen.gen(node).text
    elif form == "match":
        test = gen.gen(node, True)
        body = test.text if test.boolean else f"True if {test.text} else False"
    elif form == "scan":
        body = (f"[o for o in offers for props in [o.properties] if "
                f"{gen.gen(node, True).text}]")
    elif (result := gen.gen(node)).boolean:
        body = f"1.0 if {result.text} else 0.0"
    else:   # a float is itself (NaN aside) with no guard or call
        x, f = gen.tmp(), gen.tmp()
        bad = [f"{x} is _U"] * result.undef + [f"isinstance({x}, str)"] * (
            result.kind in ("ident", "str"))
        body = f"{f} if ({f} := float({x})) == {f} else _NEG_INF"
        if bad:
            body = f"_NEG_INF if {' or '.join(bad)} else ({body})"
        body = (f"({x} if {x} == {x} else _NEG_INF) if type({x} := "
                f"{result.text}) is float else {body}")
    arg = "offers" if form == "scan" else "props"
    source = f"def {form}({arg}, {_HEADER}):\n    return {body}"
    namespace = {"_U": UNDEFINED, "_NEG_INF": -_INF}
    exec(compile(source, "<constraint>", "exec"), namespace)
    return namespace[form]


class _Forms:
    """One text's AST; each form compiles on first use, so a Trader query
    text never builds its score, nor a preference its scan."""

    def __init__(self, node):
        self.node = node

    def __getattr__(self, form: str):
        if form not in ("value", "match", "score", "scan"):
            raise AttributeError(form)
        fn = _compile(self.node, form)
        setattr(self, form, fn)
        return fn


# text -> _Forms.  Cleared wholesale if it ever grows past the cap
# (constraint strings interpolate numbers, so the population is bounded
# in practice but not in principle).
_COMPILED_CACHE: dict = {}
_COMPILED_CACHE_MAX = 4096


def _forms(stripped: str) -> _Forms:
    forms = _COMPILED_CACHE.get(stripped)
    if forms is None:
        forms = _Forms(parse(stripped))
        if len(_COMPILED_CACHE) >= _COMPILED_CACHE_MAX:
            _COMPILED_CACHE.clear()
        _COMPILED_CACHE[stripped] = forms
    return forms


class Constraint:
    """A parsed boolean constraint, reusable across many property sets.

    Parsing happens once per distinct expression string (module-level
    cache), when the first Constraint for it is built, so bad text is
    refused there; constructing a Constraint for a text seen before is
    a dict lookup.
    """

    __slots__ = ("text", "_forms")

    def __init__(self, text: str):
        self.text = text
        self._forms = _forms(text.strip())

    def matches(self, props: Mapping[str, Any]) -> bool:
        """True iff the expression is truthy over ``props``."""
        return self._forms.match(props)

    def value(self, props: Mapping[str, Any]) -> Any:
        """Raw expression value (may be a number or UNDEFINED)."""
        return self._forms.value(props)

    def scan(self, offers) -> list:
        """The ``offers`` whose ``properties`` match, in order."""
        return self._forms.scan(offers)

    def __repr__(self):
        return f"Constraint({self.text!r})"


class Preference:
    """A numeric ranking expression: higher values are preferred.

    Mirrors the paper's "preferences, like rather executing on a faster
    CPU than on a slower one" — e.g. ``Preference("mips")``.  Offers for
    which the expression is undefined, a string or NaN rank below all
    defined ones; a boolean scores 1.0 or 0.0.
    """

    def __init__(self, text: str):
        self.text = text
        self._forms = _forms(text.strip() or "0")

    @property
    def score(self):
        """``score(props)``, the numeric score for ranking (-inf when
        undefined, a string or NaN): the compiled function itself, so a
        sort key costs no extra call."""
        return self._forms.score

    def __repr__(self):
        return f"Preference({self.text!r})"


def evaluate(text: str, props: Mapping[str, Any]) -> bool:
    """One-shot convenience: parse and match in a single call."""
    return Constraint(text).matches(props)
