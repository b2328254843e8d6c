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

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-z_]+)|(->)|([{}()\[\],;:=+\-*/!@]))")


def _tokenize(text: str):
    tokens = []
    pos = depth = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise DslError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        num, word, arrow, punct = m.groups()
        tok_pos = m.end() - len(m.group().lstrip())
        if num is not None:
            tokens.append(("int", int(num), tok_pos))
        elif word is not None:
            tokens.append(("word", word, tok_pos))
        elif arrow is not None:
            tokens.append(("arrow", "->", tok_pos))
        else:
            depth += (punct in "([{") - (punct in ")]}")
            if depth > MAX_NESTING:
                raise DslError(f"brackets nested deeper than {MAX_NESTING}", tok_pos)
            tokens.append(("punct", punct, tok_pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message):
        raise DslError(message, self.peek()[2])

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise DslError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            self.i += 1
            return True
        return False

    def at_end(self):
        return self.peek()[0] == "end"

    # -- rationals ----------------------------------------------------------

    def rational(self) -> Fraction:
        sign = -1 if self.accept("punct", "-") else 1
        num = self.expect("int")[1]
        if self.accept("punct", "/"):
            den = self.expect("int")[1]
            if den == 0:
                self.error("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # -- bound expressions ---------------------------------------------------

    def bound_expr(self):
        node = self.bound_term()
        while True:
            if self.accept("punct", "+"):
                node = ix.Add(node, self.bound_term())
            elif self.accept("punct", "-"):
                node = ix.Sub(node, self.bound_term())
            else:
                return node

    def bound_term(self):
        node = self.bound_factor()
        while True:
            if self.accept("punct", "*"):
                node = ix.Mul(node, self.bound_factor())
            elif self.accept("punct", "/"):
                node = ix.Div(node, self.bound_factor())
            else:
                return node

    def bound_factor(self):
        tok = self.peek()
        if tok[0] == "int":
            self.next()
            node = ix.Num(tok[1])
            if self.peek()[0] == "word" and self.peek()[1] == "k":
                self.next()
                node = ix.Mul(node, ix.Var())
        elif tok[0] == "word" and tok[1] == "k":
            self.next()
            node = ix.Var()
        elif tok[0] == "punct" and tok[1] == "(":
            self.next()
            node = self.bound_expr()
            self.expect("punct", ")")
        else:
            self.error(f"expected a bound expression, found {tok[1]!r}")
        while self.accept("punct", "!"):
            node = ix.Fact(node)
        return node

    # -- sets -----------------------------------------------------------------

    def index_set(self) -> IndexSet:
        tok = self.expect("word")
        name = tok[1]
        if name == "finite":
            self.expect("punct", "{")
            elems = []
            if not self.accept("punct", "}"):
                elems.append(self.expect("int")[1])
                while self.accept("punct", ","):
                    elems.append(self.expect("int")[1])
                self.expect("punct", "}")
            return ix.Finite(tuple(elems))
        if name == "ap":
            self.expect("punct", "(")
            a = self.expect("int")[1]
            self.expect("punct", ",")
            d = self.expect("int")[1]
            self.expect("punct", ")")
            return ix.ArithProg(a, d)
        if name == "nat":
            return ix.NAT
        if name == "interval":
            self.expect("punct", "(")
            lo = self.expect("int")[1]
            self.expect("punct", ",")
            hi = self.expect("int")[1]
            self.expect("punct", ")")
            return ix.Interval(lo, hi)
        if name == "factorials":
            if self.accept("punct", "("):
                base = self.index_set()
                self.expect("punct", ")")
            else:
                base = ix.NAT
            return ix.FactorialPoints(base)
        if name == "fintervals":
            return self.fintervals()
        if name in ("union", "inter", "diff"):
            self.expect("punct", "(")
            left = self.index_set()
            self.expect("punct", ",")
            right = self.index_set()
            self.expect("punct", ")")
            return {"union": ix.Union, "inter": ix.Inter, "diff": ix.Diff}[name](left, right)
        if name == "compl":
            self.expect("punct", "(")
            arg = self.index_set()
            self.expect("punct", ")")
            return ix.Compl(arg)
        raise DslError(f"unknown set form {name!r}", tok[2])

    def fintervals(self) -> ix.FactorialIntervals:
        self.expect("punct", "[")
        blocks = []
        pattern = None
        while True:
            pair_pos = self.peek()[2]
            self.expect("punct", "(")
            lo = self.bound_expr()
            self.expect("punct", ",")
            hi = self.bound_expr()
            self.expect("punct", ")")
            start = 1
            if self.accept("punct", "@"):
                start = self.expect("int")[1]
            if ix.bound_uses_var(lo) or ix.bound_uses_var(hi):
                if pattern is not None:
                    raise DslError("only one block pattern is allowed", pair_pos)
                pattern = ix.BlockPattern(lo=lo, hi=hi, start=start)
            else:
                if pattern is not None:
                    raise DslError("explicit blocks must precede the pattern", pair_pos)
                blocks.append((ix.eval_bound(lo), ix.eval_bound(hi)))
            if not self.accept("punct", ";"):
                break
        self.expect("punct", "]")
        return ix.FactorialIntervals(tuple(blocks), pattern)

    # -- streams ---------------------------------------------------------------

    def stream(self) -> Stream:
        tok = self.expect("word")
        name = tok[1]
        if name == "const":
            self.expect("punct", "(")
            v = self.rational()
            self.expect("punct", ")")
            return Piecewise(v)
        if name == "piecewise":
            self.expect("punct", "(")
            self.expect("word", "default")
            self.expect("punct", "=")
            default = self.rational()
            clauses = []
            while self.accept("punct", ";"):
                s = self.index_set()
                self.expect("punct", ":")
                clauses.append((s, self.rational()))
            self.expect("punct", ")")
            return Piecewise(default, tuple(clauses))
        if name == "rankfill":
            self.expect("punct", "(")
            u = self.index_set()
            fill = Fraction(1)
            if self.accept("punct", ","):
                fill = self.rational()
            self.expect("punct", ")")
            return RankFill(u, fill)
        raise DslError(f"unknown stream form {name!r}", tok[2])

    # -- permutations ------------------------------------------------------------

    def permutation(self) -> FinitePermutation:
        self.expect("word", "perm")
        self.expect("punct", "[")
        bound = self.expect("int")[1]
        self.expect("punct", "]")
        self.expect("punct", "(")
        pairs = {}
        if not self.accept("punct", ")"):
            while True:
                src = self.expect("int")[1]
                self.expect("arrow")
                dst = self.expect("int")[1]
                if src in pairs:
                    self.error(f"duplicate source {src}")
                pairs[src] = dst
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        return FinitePermutation.from_pairs(pairs, bound)


def _parse(text: str, production: str):
    p = _Parser(text)
    node = getattr(p, production)()
    if not p.at_end():
        p.error(f"trailing input {p.peek()[1]!r}")
    return node


def parse_set(text: str) -> IndexSet:
    return _parse(text, "index_set")


def parse_stream(text: str) -> Stream:
    return _parse(text, "stream")


def parse_permutation(text: str) -> FinitePermutation:
    return _parse(text, "permutation")


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
    if isinstance(s, ix.Union):
        return f"union({format_set(s.left)},{format_set(s.right)})"
    if isinstance(s, ix.Inter):
        return f"inter({format_set(s.left)},{format_set(s.right)})"
    if isinstance(s, ix.Compl):
        return f"compl({format_set(s.arg)})"
    if isinstance(s, ix.Diff):
        return f"diff({format_set(s.left)},{format_set(s.right)})"
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
