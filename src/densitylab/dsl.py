"""Text syntax for index sets, streams, and finite permutations.

Sets: ``finite{1,2,3}``, ``ap(a,d)``, ``nat``, ``factorials(BASE)`` (BASE
defaults to nat), ``fintervals[(e1,e2);(e3,e4);...]`` with bounds as
factorial expressions such as ``5! - 5!/4!`` (a pair mentioning the block
variable ``k``, e.g. ``((2k-1)!, (2k)!)``, generates an infinite family
and must come last; ``@n`` after it shifts the starting index),
``interval(a,b)``, ``union(A,B)``, ``inter(A,B)``, ``compl(A)``,
``diff(A,B)``.

Streams: ``const(v)``, ``piecewise(default=v; S1:v1; S2:v2)``,
``rankfill(U)`` or ``rankfill(U, fill)``.  Permutations:
``perm[N](1->3,3->1)``.  Rationals are written ``p/q``.  Whitespace is
insignificant; parse errors report the offending position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from . import indexsets as ix
from .indexsets import IndexSet
from .streams import FinitePermutation, Permuted, Piecewise, RankFill, Stream

__all__ = [
    "DslError",
    "parse_set",
    "parse_stream",
    "parse_permutation",
    "parse_rational",
    "format_set",
    "format_stream",
    "format_permutation",
]


class DslError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# Brackets nested deeper than this are a parse error: deeper input would
# exhaust the recursion of the parser and of the set analyses.
MAX_NESTING = 256

# One token: an integer, a word, an arrow, or any other single character,
# which the parser reads as punctuation or rejects as unexpected.
_TOKEN_RE = re.compile(r"\d+|[a-z_]+|->|\S")
# A character that no token of the syntax takes.
_BAD_RE = re.compile(r"[^\s\da-z_{}()\[\],;:=+\-*/!@>]|(?<!-)>")
_WORD_START = frozenset("abcdefghijklmnopqrstuvwxyz_")
# Distinct texts whose parse each parser keeps; its values are immutable.
_CACHE_SIZE = 4096
# Equal rationals of any text are one object, fetched faster than built.
_fraction = lru_cache(maxsize=_CACHE_SIZE)(Fraction)


def _shown(tok: str):
    """A token as error messages show it: an int, a string, or None at the end."""
    return int(tok) if tok.isdecimal() else tok or None


def _check_lexemes(text: str) -> None:
    """Raise the text's first lexical error, if any: an unexpected character,
    brackets nested deeper than MAX_NESTING, or an int past the int-string limit."""
    bad = _BAD_RE.search(text)
    end = bad.start() if bad else len(text)
    deep = sum(map(text.count, "([{")) > MAX_NESTING
    depth = 0
    for m in _TOKEN_RE.finditer(text, 0, end):
        tok = m[0]
        if tok.isdecimal():
            int(tok)  # raises past sys.get_int_max_str_digits()
        elif deep and (depth := depth + (tok in "([{") - (tok in ")]}")) > MAX_NESTING:
            raise DslError(f"brackets nested deeper than {MAX_NESTING}", m.start())
    if bad:
        raise DslError(f"unexpected character {bad[0]!r}", end)


class _Parser:
    """Recursive descent over the token strings of one text."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [""]  # "" stands for the end
        self.i = 0

    def fail(self, message, i=None):
        """Raise at token i (default: the current one), located by a re-scan."""
        m = next(islice(_TOKEN_RE.finditer(self.text), self.i if i is None else i, None), None)
        raise DslError(message, len(self.text) if m is None else m.start())

    def accept(self, value: str) -> bool:
        ok = self.tokens[self.i] == value
        self.i += ok
        return ok

    def expect(self, *values: str) -> None:
        for value in values:
            tok = self.tokens[self.i]
            if tok != value:
                self.fail(f"expected {'arrow' if value == '->' else value!r}, found {_shown(tok)!r}")
            self.i += 1

    def integer(self) -> int:
        tok = self.tokens[self.i]
        if not tok.isdecimal():
            self.fail(f"expected 'int', found {_shown(tok)!r}")
        self.i += 1
        return int(tok)

    def word(self) -> str:
        tok = self.tokens[self.i]
        if tok[:1] not in _WORD_START:
            self.fail(f"expected 'word', found {_shown(tok)!r}")
        self.i += 1
        return tok

    # -- rationals ----------------------------------------------------------

    def rational(self) -> Fraction:
        num = -self.integer() if self.accept("-") else self.integer()
        den = self.integer() if self.accept("/") else 1
        if den == 0:
            self.fail("zero denominator")
        return _fraction(num, den)

    # -- bound expressions ---------------------------------------------------

    def bound_expr(self):
        node = self.bound_term()
        while True:
            if self.accept("+"):
                node = ix.Add(node, self.bound_term())
            elif self.accept("-"):
                node = ix.Sub(node, self.bound_term())
            else:
                return node

    def bound_term(self):
        node = self.bound_factor()
        while True:
            if self.accept("*"):
                node = ix.Mul(node, self.bound_factor())
            elif self.accept("/"):
                node = ix.Div(node, self.bound_factor())
            else:
                return node

    def bound_factor(self):
        tok = self.tokens[self.i]
        if tok.isdecimal():
            node = ix.Num(self.integer())
            if self.accept("k"):
                node = ix.Mul(node, ix.Var())
        elif self.accept("k"):
            node = ix.Var()
        elif self.accept("("):
            node = self.bound_expr()
            self.expect(")")
        else:
            self.fail(f"expected a bound expression, found {_shown(tok)!r}")
        while self.accept("!"):
            node = ix.Fact(node)
        return node

    # -- sets -----------------------------------------------------------------

    def index_set(self) -> IndexSet:
        at = self.i
        name = self.word()
        if name == "finite":
            self.expect("{")
            elems = []
            if not self.accept("}"):
                elems.append(self.integer())
                while self.accept(","):
                    elems.append(self.integer())
                self.expect("}")
            return ix.Finite(tuple(elems))
        if name in ("ap", "interval"):
            self.expect("(")
            a = self.integer()
            self.expect(",")
            b = self.integer()
            self.expect(")")
            return (ix.ArithProg if name == "ap" else ix.Interval)(a, b)
        if name == "nat":
            return ix.NAT
        if name == "factorials":
            if self.accept("("):
                base = self.index_set()
                self.expect(")")
            else:
                base = ix.NAT
            return ix.FactorialPoints(base)
        if name == "fintervals":
            return self.fintervals()
        if name in ("union", "inter", "diff"):
            self.expect("(")
            left = self.index_set()
            self.expect(",")
            right = self.index_set()
            self.expect(")")
            return {"union": ix.Union, "inter": ix.Inter, "diff": ix.Diff}[name](left, right)
        if name == "compl":
            self.expect("(")
            arg = self.index_set()
            self.expect(")")
            return ix.Compl(arg)
        self.fail(f"unknown set form {name!r}", at)

    def fintervals(self) -> ix.FactorialIntervals:
        self.expect("[")
        blocks = []
        pattern = None
        while True:
            pair_at = self.i
            self.expect("(")
            lo = self.bound_expr()
            self.expect(",")
            hi = self.bound_expr()
            self.expect(")")
            start = 1
            if self.accept("@"):
                start = self.integer()
            if "k" in self.tokens[pair_at:self.i]:  # a bound names the block variable
                if pattern is not None:
                    self.fail("only one block pattern is allowed", pair_at)
                pattern = ix.BlockPattern(lo=lo, hi=hi, start=start)
            else:
                if pattern is not None:
                    self.fail("explicit blocks must precede the pattern", pair_at)
                blocks.append((ix.eval_bound(lo), ix.eval_bound(hi)))
            if not self.accept(";"):
                break
        self.expect("]")
        return ix.FactorialIntervals(tuple(blocks), pattern)

    # -- streams ---------------------------------------------------------------

    def stream(self) -> Stream:
        at = self.i
        name = self.word()
        if name == "const":
            self.expect("(")
            v = self.rational()
            self.expect(")")
            return Piecewise(v)
        if name == "piecewise":
            self.expect("(", "default", "=")
            default = self.rational()
            clauses = []
            while self.accept(";"):
                s = self.index_set()
                self.expect(":")
                clauses.append((s, self.rational()))
            self.expect(")")
            return Piecewise(default, tuple(clauses))
        if name == "rankfill":
            self.expect("(")
            u = self.index_set()
            fill = Fraction(1)
            if self.accept(","):
                fill = self.rational()
            self.expect(")")
            return RankFill(u, fill)
        self.fail(f"unknown stream form {name!r}", at)

    # -- permutations ------------------------------------------------------------

    def permutation(self) -> FinitePermutation:
        self.expect("perm", "[")
        bound = self.integer()
        self.expect("]", "(")
        pairs = {}
        if not self.accept(")"):
            while True:
                src = self.integer()
                self.expect("->")
                dst = self.integer()
                if src in pairs:
                    self.fail(f"duplicate source {src}")
                pairs[src] = dst
                if not self.accept(","):
                    break
            self.expect(")")
        return FinitePermutation.from_pairs(pairs, bound)


def _parse(text: str, production: str):
    """Parse the text; a lexical error wins over any the parser or a constructor meets."""
    if sum(map(text.count, "([{")) > MAX_NESTING:
        _check_lexemes(text)
    p = _Parser(text)
    try:
        node = getattr(p, production)()
        if p.tokens[p.i]:
            p.fail(f"trailing input {_shown(p.tokens[p.i])!r}")
    except Exception:
        _check_lexemes(text)
        raise
    return node


@lru_cache(maxsize=_CACHE_SIZE)
def parse_set(text: str) -> IndexSet:
    return _parse(text, "index_set")


@lru_cache(maxsize=_CACHE_SIZE)
def parse_stream(text: str) -> Stream:
    return _parse(text, "stream")


@lru_cache(maxsize=_CACHE_SIZE)
def parse_permutation(text: str) -> FinitePermutation:
    return _parse(text, "permutation")


@lru_cache(maxsize=_CACHE_SIZE)
def parse_rational(text: str) -> Fraction:
    return _parse(text, "rational")


# ---------------------------------------------------------------------------
# Formatting (parse(format(x)) reproduces x)
# ---------------------------------------------------------------------------

_PREC_SUM, _PREC_PROD, _PREC_FACT, _PREC_ATOM = 1, 2, 3, 4


def _format_bound(e, context: int) -> str:
    if isinstance(e, ix.Num):
        if e.value < 0:
            raise DslError("negative literals are not representable", 0)
        return str(e.value)
    if isinstance(e, ix.Var):
        return "k"
    if isinstance(e, (ix.Add, ix.Sub)):
        op = "+" if isinstance(e, ix.Add) else "-"
        body = f"{_format_bound(e.left, _PREC_SUM)}{op}{_format_bound(e.right, _PREC_PROD)}"
        return f"({body})" if context > _PREC_SUM else body
    if isinstance(e, (ix.Mul, ix.Div)):
        op = "*" if isinstance(e, ix.Mul) else "/"
        body = f"{_format_bound(e.left, _PREC_PROD)}{op}{_format_bound(e.right, _PREC_FACT)}"
        return f"({body})" if context > _PREC_PROD else body
    if isinstance(e, ix.Fact):
        return f"{_format_bound(e.arg, _PREC_ATOM)}!"
    raise TypeError(f"not a bound expression: {e!r}")


def format_set(s: IndexSet) -> str:
    if isinstance(s, ix.Finite):
        return "finite{" + ",".join(str(e) for e in s.elements) + "}"
    if isinstance(s, ix.ArithProg):
        return f"ap({s.a},{s.d})"
    if isinstance(s, ix.Interval):
        return f"interval({s.lo},{s.hi})"
    if isinstance(s, ix.FactorialPoints):
        return f"factorials({format_set(s.base)})"
    if isinstance(s, ix.FactorialIntervals):
        parts = [f"({lo},{hi})" for lo, hi in s.blocks]
        if s.pattern is not None:
            pat = f"({_format_bound(s.pattern.lo, 1)},{_format_bound(s.pattern.hi, 1)})"
            if s.pattern.start != 1:
                pat += f"@{s.pattern.start}"
            parts.append(pat)
        return "fintervals[" + ";".join(parts) + "]"
    if isinstance(s, (ix.Union, ix.Inter, ix.Diff)):
        return f"{type(s).__name__.lower()}({format_set(s.left)},{format_set(s.right)})"
    if isinstance(s, ix.Compl):
        return f"compl({format_set(s.arg)})"
    raise TypeError(f"not an index set: {s!r}")


def format_stream(x: Stream) -> str:
    if isinstance(x, Piecewise):
        if not x.clauses:
            return f"const({x.default})"
        clauses = ";".join(f"{format_set(s)}:{v}" for s, v in x.clauses)
        return f"piecewise(default={x.default};{clauses})"
    if isinstance(x, RankFill):
        if x.truncated:
            raise DslError("truncated rank-fill streams have no text form", 0)
        if x.fill == 1:
            return f"rankfill({format_set(x.fill_on)})"
        return f"rankfill({format_set(x.fill_on)},{x.fill})"
    if isinstance(x, Permuted):
        raise DslError("permuted streams have no text form", 0)
    raise TypeError(f"not a stream: {x!r}")


def format_permutation(p: FinitePermutation) -> str:
    moved = ",".join(f"{t}->{p(t)}" for t in p.moved_points())
    return f"perm[{p.bound}]({moved})"
