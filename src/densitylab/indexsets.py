"""Symbolic subsets of the positive integers with exact structural counting.

An index set is an immutable AST built from finite sets, arithmetic
progressions, integer intervals, factorial point sets, factorial interval
families, and boolean combinators.  One walk reads every boolean set: it
goes through the run boundaries of the set's leaves in order, each leaf's
runs built lazily.  ``count`` walks the non-periodic leaves and counts each
piece in closed form from the residues of its profile, never by
brute-force scanning; ``segments`` and ``intervals`` walk every leaf and
read the set's own runs and gaps from the pieces.
"""

from __future__ import annotations

import enum
import heapq
import math
from bisect import bisect_right
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, repeat

__all__ = [
    "IndexSet",
    "IndexSetError",
    "NthElementError",
    "Finite",
    "ArithProg",
    "Interval",
    "FactorialPoints",
    "FactorialIntervals",
    "BlockPattern",
    "Union",
    "Inter",
    "Compl",
    "Diff",
    "BoundExpr",
    "Num",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Fact",
    "NAT",
    "Profile",
    "count",
    "member",
    "nth_element",
    "elements_up_to",
    "intervals",
    "segments",
    "eval_bound",
    "bound_uses_var",
    "periodic_profile",
    "profile_period",
    "finiteness",
    "is_finite",
    "INFINITE",
    "provably_empty",
    "provably_nonempty",
    "provably_disjoint",
    "inverse_factorial",
    "DEFAULT_HORIZON",
]

# The scan, probe and construction-check bound shared by every module.
DEFAULT_HORIZON = 5040

_FACT_ARG_CAP = 100_000
_BLOCK_ITER_CAP = 10_000


class IndexSetError(ValueError):
    """Raised when an index-set constructor invariant is violated."""


# ---------------------------------------------------------------------------
# Bound expressions: integer expressions in factorials, optionally in a
# single variable ``k`` (used by FactorialIntervals block patterns).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    """The block index variable ``k``."""


@dataclass(frozen=True)
class Add:
    left: "BoundExpr"
    right: "BoundExpr"


@dataclass(frozen=True)
class Sub:
    left: "BoundExpr"
    right: "BoundExpr"


@dataclass(frozen=True)
class Mul:
    left: "BoundExpr"
    right: "BoundExpr"


@dataclass(frozen=True)
class Div:
    """Exact integer division; evaluation fails on a nonzero remainder."""

    left: "BoundExpr"
    right: "BoundExpr"


@dataclass(frozen=True)
class Fact:
    arg: "BoundExpr"


BoundExpr = Num | Var | Add | Sub | Mul | Div | Fact


def eval_bound(expr: BoundExpr, k: int | None = None) -> int:
    """Evaluate a bound expression to an exact integer."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if k is None:
            raise IndexSetError("bound expression contains k but no k was given")
        return k
    if isinstance(expr, Add):
        return eval_bound(expr.left, k) + eval_bound(expr.right, k)
    if isinstance(expr, Sub):
        return eval_bound(expr.left, k) - eval_bound(expr.right, k)
    if isinstance(expr, Mul):
        return eval_bound(expr.left, k) * eval_bound(expr.right, k)
    if isinstance(expr, Div):
        num = eval_bound(expr.left, k)
        den = eval_bound(expr.right, k)
        if den == 0:
            raise IndexSetError("division by zero in bound expression")
        q, r = divmod(num, den)
        if r != 0:
            raise IndexSetError(f"inexact division {num}/{den} in bound expression")
        return q
    if isinstance(expr, Fact):
        v = eval_bound(expr.arg, k)
        if v < 0:
            raise IndexSetError(f"factorial of negative value {v}")
        if v > _FACT_ARG_CAP:
            raise IndexSetError(f"factorial argument {v} exceeds cap {_FACT_ARG_CAP}")
        return math.factorial(v)
    raise TypeError(f"not a bound expression: {expr!r}")


def bound_uses_var(expr: BoundExpr) -> bool:
    if isinstance(expr, Var):
        return True
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return bound_uses_var(expr.left) or bound_uses_var(expr.right)
    if isinstance(expr, Fact):
        return bound_uses_var(expr.arg)
    return False


# ---------------------------------------------------------------------------
# Index-set AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finite:
    """An explicit finite set, stored strictly increasing."""

    elements: tuple[int, ...]

    def __init__(self, elements=()):
        elems = tuple(elements)
        for e in elems:
            if not isinstance(e, int) or e < 1:
                raise IndexSetError(f"finite set elements must be naturals >= 1, got {e!r}")
        if any(elems[i] >= elems[i + 1] for i in range(len(elems) - 1)):
            raise IndexSetError("finite set elements must be strictly increasing")
        object.__setattr__(self, "elements", elems)


@dataclass(frozen=True)
class ArithProg:
    """{a, a+d, a+2d, ...} with a >= 1, d >= 1."""

    a: int
    d: int

    def __post_init__(self):
        if self.a < 1 or self.d < 1:
            raise IndexSetError(f"arithmetic progression needs a >= 1, d >= 1, got ({self.a}, {self.d})")


@dataclass(frozen=True)
class Interval:
    """The integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise IndexSetError(f"interval needs 1 <= lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class FactorialPoints:
    """{n! : n in base}."""

    base: "IndexSet"


@dataclass(frozen=True)
class BlockPattern:
    """A family of blocks [lo(k), hi(k)] for k = start, start+1, ..."""

    lo: BoundExpr
    hi: BoundExpr
    start: int = 1


@dataclass(frozen=True)
class FactorialIntervals:
    """A union of disjoint, increasing integer intervals.

    ``blocks`` holds explicit [lo, hi] pairs; ``pattern``, when present,
    generates infinitely many further blocks from bound expressions in the
    index variable k.  Pattern validity (integrality, lo < hi, disjoint and
    increasing) is checked for the first 32 instances at construction.
    """

    blocks: tuple[tuple[int, int], ...] = ()
    pattern: BlockPattern | None = None

    def __post_init__(self):
        prev_hi = 0
        for lo, hi in self.blocks:
            if lo < 1 or hi <= lo:
                raise IndexSetError(f"interval block needs 1 <= lo < hi, got [{lo}, {hi}]")
            if lo <= prev_hi:
                raise IndexSetError("interval blocks must be disjoint and increasing")
            prev_hi = hi
        if self.pattern is not None:
            _check_pattern(self.pattern, prev_hi)


@lru_cache(maxsize=1024)
def _check_pattern(pattern: BlockPattern, prev_hi: int) -> None:
    """Validate a pattern's first 32 blocks after explicit blocks ending at
    prev_hi.  Only a pass is cached, so an invalid pattern raises every time."""
    for k in range(pattern.start, pattern.start + 32):
        lo = eval_bound(pattern.lo, k)
        hi = eval_bound(pattern.hi, k)
        if lo < 1 or hi <= lo:
            raise IndexSetError(f"pattern block at k={k} is not a valid interval: [{lo}, {hi}]")
        if lo <= prev_hi:
            raise IndexSetError(f"pattern block at k={k} overlaps the previous block")
        prev_hi = hi


@dataclass(frozen=True)
class Union:
    left: "IndexSet"
    right: "IndexSet"


@dataclass(frozen=True)
class Inter:
    left: "IndexSet"
    right: "IndexSet"


@dataclass(frozen=True)
class Compl:
    """Complement relative to {1, 2, 3, ...}."""

    arg: "IndexSet"


@dataclass(frozen=True)
class Diff:
    left: "IndexSet"
    right: "IndexSet"


IndexSet = (
    Finite
    | ArithProg
    | Interval
    | FactorialPoints
    | FactorialIntervals
    | Union
    | Inter
    | Compl
    | Diff
)

NAT = ArithProg(1, 1)


# ---------------------------------------------------------------------------
# Factorial helpers
# ---------------------------------------------------------------------------


def inverse_factorial(n: int) -> int | None:
    """Return j >= 1 with j! == n (1 maps to j = 1), or None if n is not a factorial."""
    j = _max_factorial_index(n)
    return j if j and math.factorial(j) == n else None


def _max_factorial_index(n: int) -> int:
    """Largest j >= 1 with j! <= n (0 when n < 1)."""
    if n < 1:
        return 0
    j, f = 1, 1
    while f * (j + 1) <= n:
        j += 1
        f *= j
    return j


def _blocks_up_to(s: FactorialIntervals, n: int):
    """Yield concrete blocks of ``s`` whose lo does not exceed n."""
    for lo, hi in s.blocks:
        if lo > n:
            return
        yield lo, hi
    if s.pattern is None:
        return
    k = s.pattern.start
    for _ in range(_BLOCK_ITER_CAP):
        lo = eval_bound(s.pattern.lo, k)
        if lo > n:
            return
        yield lo, eval_bound(s.pattern.hi, k)
        k += 1
    if eval_bound(s.pattern.lo, k) <= n:
        raise IndexSetError(f"block pattern produced more than {_BLOCK_ITER_CAP} blocks below {n}")


# ---------------------------------------------------------------------------
# Counting and membership
# ---------------------------------------------------------------------------


@lru_cache(maxsize=65536)
def count(s: IndexSet, n: int) -> int:
    """|S intersected with [1, n]|, computed structurally.

    Atoms are counted in closed form.  A boolean set is swept: its leaves
    are residue classes and sets that are constant between the boundaries
    of their runs, so between two boundaries it is a boolean combination of
    classes, counted from its ``periodic_profile``.  The cost follows the
    number of boundaries below n, not n or the number of boolean nodes.
    """
    if n < 1:
        return 0
    if isinstance(s, Finite):
        return bisect_right(s.elements, n)
    if isinstance(s, ArithProg):
        return 0 if n < s.a else (n - s.a) // s.d + 1
    if isinstance(s, Interval):
        return max(0, min(n, s.hi) - s.lo + 1)
    if isinstance(s, FactorialPoints):
        return count(s.base, _max_factorial_index(n))
    if isinstance(s, FactorialIntervals):
        return sum(min(hi, n) - lo + 1 for lo, hi in _blocks_up_to(s, n))
    if isinstance(s, (Union, Inter, Compl, Diff)):
        return _sweep(s, n)
    raise TypeError(f"not an index set: {s!r}")


def _sweep(s: IndexSet, n: int) -> int:
    """count of a boolean set: the pieces of the walk over its leaves, the
    tabled classes aside, each counted from the residues of the set that
    the classes form there."""
    tree, leaves, _ = _compiled(s)
    # A class of period d is tabled while a table stays within n/d residues,
    # the elements a walk of it would visit.  _fold leaves a complement only
    # at the top, counted as the rest of the piece; below it, classes of
    # periods d_i and lcm l combine into at most min(l, sum of l/d_i).  A
    # run [a, oo), a progression with d = 1 < a, is walked.
    dense, lcm, size = 0, 1, 0
    for d, i in sorted((leaf.d, i) for i, leaf in enumerate(leaves)
                       if isinstance(leaf, ArithProg) and (leaf.d > 1 or leaf.a == 1)):
        grown = math.lcm(lcm, d)
        bound = min(grown, size * (grown // lcm) + grown // d)
        if bound * d <= n:
            dense, lcm, size = dense | 1 << i, grown, bound

    # A tabled ArithProg(a, d) is its class from a on: walked as the run
    # [a, oo) when a > d, and on from 1 otherwise, as no element of the
    # class lies below a.
    edges, on = [], 0
    for i, leaf in enumerate(leaves):
        if not dense >> i & 1:
            edges.append(_edges(leaf, n, 1 << i))
        elif leaf.a > leaf.d:
            edges.append(_edges(ArithProg(leaf.a, 1), n, 1 << i))
        else:
            on |= 1 << i

    def table(state: int) -> tuple[bool, int, tuple[int, ...]]:
        """(complemented, period, sorted residues) of the set on a piece, a
        complement being counted as the rest of the piece."""
        x = _fold(tree, leaves, dense, state | on)
        if type(x) is bool:  # the empty set, or its complement
            x = Compl(Finite()) if x else Finite()
        negated = type(x) is Compl
        p = periodic_profile(x.arg if negated else x)
        return negated, p.period, tuple(sorted(p.residues))

    total = 0
    for lo, hi, (negated, period, residues) in _walk(edges, n, _Memo(table)):
        # Residues met in [0, hi] less those met in [0, lo - 1].
        q1, r1 = divmod(hi, period)
        q0, r0 = divmod(lo - 1, period)
        met = ((q1 - q0) * len(residues)
               + bisect_right(residues, r1) - bisect_right(residues, r0))
        total += hi + 1 - lo - met if negated else met
    return total


class _Memo(dict):
    """The values of fn by argument, each computed on first use."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@lru_cache(maxsize=256)
def _compiled(s: IndexSet) -> tuple[object, tuple[IndexSet, ...], _Memo]:
    """s compiled once for its walks: its tree, its leaves, and whether s
    holds on a piece, by the state of the leaves there.  Scans walk a few
    sets many times; 8192 entries raised the peak RSS of perfbench's
    query_mix by 6 MB, as most of its sets are walked once."""
    index: dict[IndexSet, int] = {}
    tree = _compile(s, index)
    leaves = tuple(index)
    return tree, leaves, _Memo(partial(_fold, tree, leaves, 0))


def _compile(s: IndexSet, index: dict[IndexSet, int]):
    """s as a tree of (Compl, x), (Union, x, y) and (Inter, x, y) over leaf
    numbers, numbering its leaves in ``index``."""
    if isinstance(s, Compl):
        return Compl, _compile(s.arg, index)
    if isinstance(s, (Union, Inter)):
        return type(s), _compile(s.left, index), _compile(s.right, index)
    if isinstance(s, Diff):
        return Inter, _compile(s.left, index), (Compl, _compile(s.right, index))
    return index.setdefault(s, len(index))


def _walk(edges: list[Iterator[tuple[int, int]]], n: int, values: Mapping[int, object],
          s: IndexSet | None = None) -> Iterator[tuple]:
    """``(lo, hi, values[state])`` for pieces [lo, hi] that cover [1, n] in
    order, cut at the ``(t, bit)`` edges of the leaves' runs and merged
    while the value stays the same object; state holds the bits of the runs
    that are on.  Runs are built lazily, so a bound is evaluated only when
    the walk reaches the run before it.  When one cannot be, the
    IndexSetError propagates; given the set s, the decided piece still
    pending comes instead, and then single coordinates decided by
    ``member(s, t)`` from the first undecided coordinate on."""
    state, lo, start, v = 0, 1, 1, None  # [start, lo) holds v
    rest = range(0)
    try:
        for t, bit in chain(edges[0] if len(edges) == 1 else heapq.merge(*edges), [(n + 1, 0)]):
            if t > lo:
                w = values[state]
                if w is not v:
                    if v is not None:
                        yield start, lo - 1, v
                    start, v = lo, w
                lo = t
            state ^= bit
    except IndexSetError:
        if s is None:
            raise
        rest = range(lo, n + 1)
    if v is not None:
        yield start, lo - 1, v
    for t in rest:
        yield t, t, member(s, t)


def _edges(leaf: IndexSet, n: int, bit: int) -> Iterator[tuple[int, int]]:
    """(t, bit) where a run of leaf below n starts and where it ends."""
    return zip(chain.from_iterable(_atom_runs(leaf, n)), repeat(bit))


def _atom_runs(s: IndexSet, n: int) -> Iterator[tuple[int, int]]:
    """The runs of an atom within [1, n] as half-open [lo, end), in
    increasing order and lazily: a block's bounds, or a factorial's
    membership in the base, are evaluated only once the runs before it are
    taken.  Runs may touch."""
    if isinstance(s, Finite):
        elements = s.elements[: bisect_right(s.elements, n)]
        return zip(elements, map((1).__add__, elements))
    if isinstance(s, ArithProg) and s.d > 1:  # from ranges: there may be many
        return zip(range(s.a, n + 1, s.d), range(s.a + 1, n + 2, s.d))
    if isinstance(s, (ArithProg, Interval)):
        lo, hi = (s.a, n) if isinstance(s, ArithProg) else (s.lo, min(s.hi, n))
        return iter(((lo, hi + 1),) if lo <= n else ())
    if isinstance(s, FactorialPoints):
        return ((math.factorial(j), math.factorial(j) + 1)
                for j in range(1, _max_factorial_index(n) + 1) if member(s.base, j))
    if isinstance(s, FactorialIntervals):
        return ((lo, min(hi, n) + 1) for lo, hi in _blocks_up_to(s, n))
    raise TypeError(f"not an index set: {s!r}")


def _fold(node, leaves: tuple[IndexSet, ...], dense: int, state: int) -> IndexSet | bool:
    """The set at ``node`` with each leaf replaced by its value in ``state``:
    False where it is off, and where it is on, True for a walked leaf and the
    leaf itself for a dense class.  The result is a bool, or a combination of
    the dense classes by Union, Inter and Diff, complemented at most once and
    then at the top."""
    if type(node) is int:
        if not state >> node & 1:
            return False
        return leaves[node] if dense >> node & 1 else True
    op = node[0]
    x = _fold(node[1], leaves, dense, state)
    if op is Compl:
        return (not x) if type(x) is bool else x.arg if type(x) is Compl else Compl(x)
    absorbing = op is Union  # True absorbs a union, False an intersection
    if x is absorbing:
        return x
    y = _fold(node[2], leaves, dense, state)
    if type(x) is bool:
        return y
    if type(y) is bool:
        return y if y is absorbing else x
    if type(x) is Compl:
        x, y = y, x
    if type(y) is not Compl:
        return op(x, y)
    if type(x) is Compl:  # De Morgan
        return Compl((Inter if absorbing else Union)(x.arg, y.arg))
    return Compl(Diff(y.arg, x)) if absorbing else Diff(x, y.arg)


def member(s: IndexSet, t: int) -> bool:
    """Exact membership test, consistent with count."""
    if t < 1:
        return False
    if isinstance(s, Finite):
        i = bisect_right(s.elements, t)
        return i > 0 and s.elements[i - 1] == t
    if isinstance(s, ArithProg):
        return t >= s.a and (t - s.a) % s.d == 0
    if isinstance(s, Interval):
        return s.lo <= t <= s.hi
    if isinstance(s, FactorialPoints):
        j = inverse_factorial(t)
        return j is not None and member(s.base, j)
    if isinstance(s, FactorialIntervals):
        return any(lo <= t <= hi for lo, hi in _blocks_up_to(s, t))
    if isinstance(s, Union):
        return member(s.left, t) or member(s.right, t)
    if isinstance(s, Inter):
        return member(s.left, t) and member(s.right, t)
    if isinstance(s, Compl):
        return not member(s.arg, t)
    if isinstance(s, Diff):
        return member(s.left, t) and not member(s.right, t)
    raise TypeError(f"not an index set: {s!r}")


class NthElementError(LookupError):
    """Raised when the requested element does not exist or cannot be found."""


_NTH_SEARCH_CAP = 1 << 64


def nth_element(s: IndexSet, m: int) -> int:
    """The m-th smallest element of s (1-indexed)."""
    if m < 1:
        raise IndexSetError(f"element index must be >= 1, got {m}")
    bound = finiteness(s)
    if isinstance(bound, int):
        total = count(s, bound)
        if total < m:
            raise NthElementError(f"set has only {total} elements, needs {m}")
    # Search upwards from 1, so that the cost follows the answer and not a
    # loose bound such as (p-1)! for factorials meeting a period p.
    hi = 1
    while count(s, hi) < m:
        hi *= 2
        if hi > _NTH_SEARCH_CAP and not isinstance(bound, int):
            raise NthElementError(
                f"no {m}-th element found below 2**64; the set may be finite"
            )
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if count(s, mid) >= m:
            hi = mid
        else:
            lo = mid + 1
    return lo


def elements_up_to(s: IndexSet, n: int) -> list[int]:
    """All elements of s in [1, n], in increasing order."""
    return [t for lo, hi, inside in segments(s, n) if inside for t in range(lo, hi + 1)]


def segments(s: IndexSet, n: int) -> Iterator[tuple[int, int, bool]]:
    """``(lo, hi, inside)`` covering 1..n in order: the runs of s and the gaps.

    They are the pieces of the count sweep with every leaf walked, merged
    while s does not change, and are built lazily.  When a bound cannot be
    evaluated, the segments are the decided run still pending and then
    single coordinates decided by ``member``, from the first undecided
    coordinate on.  An IndexSetError thus comes at the coordinate where
    ``member`` raises, and not at all when the caller stops earlier.
    """
    _, leaves, inside = _compiled(s)
    edges = [_edges(leaf, n, 1 << i) for i, leaf in enumerate(leaves)]
    return _walk(edges, n, inside, s)


def intervals(s: IndexSet, n: int) -> list[tuple[int, int]]:
    """The maximal runs [lo, hi] of s within [1, n], in increasing order:
    the inside ``segments``, with their errors."""
    return [(lo, hi) for lo, hi, inside in segments(s, n) if inside]


# ---------------------------------------------------------------------------
# Eventual periodicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Eventual periodic description: for t >= start, t in S iff t % period in residues."""

    period: int
    residues: frozenset[int]
    start: int

    @property
    def density(self):
        from fractions import Fraction

        return Fraction(len(self.residues), self.period)


@lru_cache(maxsize=8192)
def periodic_profile(s: IndexSet) -> Profile | None:
    """An eventually-periodic description of s, when one is derivable.

    Finite sets profile to empty residues; factorial-based sets profile
    only when they are structurally finite.
    """
    if isinstance(s, Finite):
        start = (s.elements[-1] + 1) if s.elements else 1
        return Profile(1, frozenset(), start)
    if isinstance(s, ArithProg):
        return Profile(s.d, frozenset({s.a % s.d}), s.a)
    if isinstance(s, Interval):
        return Profile(1, frozenset(), s.hi + 1)
    if isinstance(s, (FactorialPoints, FactorialIntervals)):
        f = finiteness(s)
        return Profile(1, frozenset(), f + 1) if isinstance(f, int) else None
    if isinstance(s, Compl):
        p = periodic_profile(s.arg)
        if p is None:
            return None
        return Profile(p.period, frozenset(range(p.period)) - p.residues, p.start)
    if isinstance(s, (Union, Inter, Diff)):
        pl = periodic_profile(s.left)
        pr = periodic_profile(s.right)
        if pl is None or pr is None:
            return None
        period = math.lcm(pl.period, pr.period)
        start = max(pl.start, pr.start)
        if isinstance(s, Inter) and len(pr.residues) < period // pl.period:
            # Each pair of residues meets in at most one residue mod the
            # lcm, so the pairs cost less than lifting the left residues.
            met = (_merge_progressions(a, pl.period, b, pr.period)
                   for a in pl.residues for b in pr.residues)
            return Profile(period, frozenset(r for r in met if r is not None), start)
        # Residues are lifted to the lcm, never listed over all of it.
        if isinstance(s, Union):
            residues = chain(_lift(pl, period), _lift(pr, period))
        else:  # the left residues that the right side has (Inter) or lacks (Diff)
            keep = isinstance(s, Inter)
            residues = (r for r in _lift(pl, period) if (r % pr.period in pr.residues) is keep)
        return Profile(period, frozenset(residues), start)
    return None


def profile_period(s: IndexSet) -> int:
    """The lcm of the progression differences in s, read from its shape: no
    profile built over s, nor any built on the way, lists more residues."""
    if isinstance(s, ArithProg):
        return s.d
    if isinstance(s, Compl):
        return profile_period(s.arg)
    if isinstance(s, FactorialPoints):
        return profile_period(s.base)
    if isinstance(s, (Union, Inter, Diff)):
        return math.lcm(profile_period(s.left), profile_period(s.right))
    return 1


def _lift(p: Profile, period: int) -> Iterator[int]:
    """p's residues modulo ``period``, a multiple of p.period."""
    return (r + k for k in range(0, period, p.period) for r in p.residues)


def _merge_progressions(a: int, p: int, b: int, q: int) -> int | None:
    """The residue mod lcm(p, q) shared by the classes a mod p and b mod q
    (CRT), or None when they are disjoint."""
    g = math.gcd(p, q)
    if (b - a) % g != 0:
        return None
    # x = a + p*t with p*t = b - a (mod q), solved modulo q/g.
    t = (b - a) // g * pow(p // g, -1, q // g)
    return (a + p * t) % (p // g * q)


class Unbounded(enum.Enum):
    """The finiteness answer for a set proven infinite."""

    INFINITE = "infinite"


INFINITE = Unbounded.INFINITE


@lru_cache(maxsize=8192)
def finiteness(s: IndexSet) -> int | Unbounded | None:
    """Structural finiteness with its proof: one analysis for every caller.

    An int is an upper bound on max(s) (0 for the empty set) and proves s
    finite; INFINITE proves s infinite; None means undecided.
    """
    if isinstance(s, Finite):
        return s.elements[-1] if s.elements else 0
    if isinstance(s, Interval):
        return s.hi
    if isinstance(s, ArithProg):
        return INFINITE
    if isinstance(s, FactorialPoints):
        b = finiteness(s.base)
        if not isinstance(b, int):
            return b
        if b > _FACT_ARG_CAP:
            return None
        return math.factorial(b) if b >= 1 else 0
    if isinstance(s, FactorialIntervals):
        if s.pattern is not None:
            return INFINITE
        return s.blocks[-1][1] if s.blocks else 0
    if isinstance(s, Compl) and _sparse_union(s.arg):
        return INFINITE  # before the union's profile, which lifts every residue to the lcm
    if isinstance(s, Compl) and (p := periodic_profile(s.arg)) is not None:
        # Read from the argument's residues: the complement's profile lists the rest.
        return INFINITE if len(p.residues) < p.period else p.start - 1
    p = periodic_profile(s)
    if p is not None:
        return INFINITE if p.residues else p.start - 1
    if isinstance(s, Union):
        sides = (finiteness(s.left), finiteness(s.right))
        if INFINITE in sides:
            return INFINITE
        return None if None in sides else max(sides)
    if isinstance(s, Compl):
        return INFINITE if isinstance(finiteness(s.arg), int) else None
    left, right = (s.left, s.right) if isinstance(s, Inter) else (s.left, Compl(s.right))
    bounds = [b for b in (finiteness(left), finiteness(right)) if isinstance(b, int)]
    if bounds:
        return min(bounds)
    if isinstance(left, FactorialPoints) and isinstance(right, FactorialPoints):
        # n -> n! is injective on n >= 1.
        return finiteness(FactorialPoints(Inter(left.base, right.base)))
    for x, y in ((left, right), (right, left)):
        if (isinstance(x, FactorialPoints) and finiteness(x.base) is INFINITE
                and (p := periodic_profile(y)) is not None):
            # n! is divisible by the period for all n >= period.
            if 0 in p.residues:
                return INFINITE
            if p.period - 1 > _FACT_ARG_CAP:
                return None
            return _max_factorial_in_profile(x.base, y, p)
    if isinstance(s, Diff) and finiteness(s.left) is INFINITE and isinstance(finiteness(s.right), int):
        return INFINITE
    return None


def _max_factorial_in_profile(base: IndexSet, y: IndexSet, p: Profile) -> int:
    """max{j! : j in base, j! in y} (0 when none), where y has profile p and
    0 is not among its residues.

    Once j >= period, j! is 0 modulo the period, so j! lies outside y as soon
    as j! >= p.start too: the walk ends there.  At and above p.start,
    membership of j! is read from j! modulo the period, kept incrementally;
    below it, from y itself.
    """
    last = 0
    j, f, r = 1, 1, 1 % p.period  # f is j! while below p.start, then frozen
    while j < p.period or f < p.start:
        if (member(y, f) if f < p.start else r in p.residues) and member(base, j):
            last = j
        j += 1
        r = r * j % p.period
        if f < p.start:
            f *= j
    return math.factorial(last) if last else 0


def _sparse_union(s: IndexSet) -> bool:
    """Whether s is a union of terms that each have a profile and whose
    densities sum below 1, so that its complement is infinite.  Each term
    is profiled on its own, so no residue is lifted to the lcm of their
    periods; where this holds, the union's own profile gives the same."""
    if not isinstance(s, Union):
        return False
    total = 0
    for term in _union_terms(s):
        if not isinstance(term, Union):
            p = periodic_profile(term)
            if p is None:
                return False
            total += p.density
    return total < 1


def is_finite(s: IndexSet) -> bool | None:
    """Three-valued view of ``finiteness``: True, False, or None (unknown)."""
    f = finiteness(s)
    return None if f is None else f is not INFINITE


# ---------------------------------------------------------------------------
# Emptiness and disjointness certificates
# ---------------------------------------------------------------------------


def provably_empty(s: IndexSet) -> bool:
    """True only when emptiness is proven; False means unknown or nonempty."""
    p = periodic_profile(s)
    if p is not None and not p.residues:
        return count(s, p.start - 1) == 0
    if isinstance(s, Finite):
        return not s.elements
    if isinstance(s, FactorialPoints):
        return provably_empty(s.base)
    if isinstance(s, FactorialIntervals):
        return not s.blocks and s.pattern is None
    if isinstance(s, Union):
        return provably_empty(s.left) and provably_empty(s.right)
    if isinstance(s, Inter):
        return provably_disjoint(s.left, s.right)
    if isinstance(s, Diff):
        return provably_empty(s.left)
    return False


@lru_cache(maxsize=8192)
def provably_disjoint(a: IndexSet, b: IndexSet) -> bool:
    """True only when the intersection is proven empty."""
    if provably_empty(a) or provably_empty(b):
        return True
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Finite):  # membership is exact and needs no profile
            return all(not member(y, e) for e in x.elements)
    p = periodic_profile(Inter(a, b))
    if p is not None and not p.residues:
        return count(Inter(a, b), p.start - 1) == 0
    if isinstance(a, FactorialPoints) and isinstance(b, FactorialPoints):
        return provably_empty(Inter(a.base, b.base))  # n -> n! is injective on n >= 1
    for x, y in ((a, b), (b, a)):
        if isinstance(y, Compl) and x in _union_terms(y.arg):
            return True  # x is part of the union that y complements
        if isinstance(x, Interval):
            return count(y, x.hi) - count(y, x.lo - 1) == 0
        if isinstance(x, Inter):
            if provably_disjoint(x.left, y) or provably_disjoint(x.right, y):
                return True
        if isinstance(x, Diff):
            if provably_disjoint(x.left, y):
                return True
        if isinstance(x, Union):
            if provably_disjoint(x.left, y) and provably_disjoint(x.right, y):
                return True
    return False


def _union_terms(s: IndexSet) -> Iterator[IndexSet]:
    """s, and the terms of both sides when s is a Union."""
    yield s
    if isinstance(s, Union):
        yield from _union_terms(s.left)
        yield from _union_terms(s.right)


def _lists_an_element(s: IndexSet) -> bool:
    """A nonempty literal, or a union with one: no counting needed.  The
    ArithProg and Interval constructors reject the empty forms."""
    if isinstance(s, Union):
        return _lists_an_element(s.left) or _lists_an_element(s.right)
    return isinstance(s, (ArithProg, Interval)) or isinstance(s, Finite) and bool(s.elements)


def provably_nonempty(s: IndexSet, probe: int = DEFAULT_HORIZON) -> bool:
    """True when s lists an element, an element is exhibited (structurally
    counted) below a bound, or s is proven infinite."""
    if _lists_an_element(s) or count(s, probe) > 0 or finiteness(s) is INFINITE:
        return True
    if isinstance(s, FactorialPoints):
        return provably_nonempty(s.base, probe)
    return isinstance(s, FactorialIntervals) and bool(s.blocks)
