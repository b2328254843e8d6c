"""Symbolic subsets of the positive integers with exact structural counting.

An index set is an immutable AST built from finite sets, arithmetic
progressions, integer intervals, factorial point sets, factorial interval
families, and boolean combinators.  All counting is done with arbitrary
precision integers and never by brute-force scanning; boolean nodes are
counted by inclusion-exclusion and interval restriction.
"""

from __future__ import annotations

import enum
import heapq
import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

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
            for k in range(self.pattern.start, self.pattern.start + 32):
                lo = eval_bound(self.pattern.lo, k)
                hi = eval_bound(self.pattern.hi, k)
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
    """Return j >= 1 with j! == n, or None if n is not a factorial.

    1 maps to j = 1.
    """
    if n < 1:
        return None
    j, f = 1, 1
    while f < n:
        j += 1
        f *= j
    return j if f == n else None


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
    raise IndexSetError(f"block pattern produced more than {_BLOCK_ITER_CAP} blocks below {n}")


# ---------------------------------------------------------------------------
# Counting and membership
# ---------------------------------------------------------------------------


_PROFILE_COUNT_MAX_START = 4096


def _count_residue_class(b: int, r: int, p: int) -> int:
    """|{t in [1, b] : t % p == r}|."""
    if b < 1:
        return 0
    if r == 0:
        return b // p
    return (b - r) // p + 1 if b >= r else 0


@lru_cache(maxsize=65536)
def count(s: IndexSet, n: int) -> int:
    """|S intersected with [1, n]|, computed structurally."""
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
    # Boolean nodes: an eventually-periodic profile gives a closed form
    # (membership scan below the profile start, residue arithmetic above);
    # otherwise count by inclusion-exclusion.
    p = periodic_profile(s)
    if p is not None and p.start <= _PROFILE_COUNT_MAX_START:
        head_end = min(n, p.start - 1)
        head = sum(1 for t in range(1, head_end + 1) if member(s, t))
        if n < p.start:
            return head
        tail = sum(
            _count_residue_class(n, r, p.period)
            - _count_residue_class(p.start - 1, r, p.period)
            for r in p.residues
        )
        return head + tail
    if isinstance(s, Compl):
        return n - count(s.arg, n)
    if isinstance(s, Union):
        return count(s.left, n) + count(s.right, n) - _count_inter((s.left, s.right), n)
    if isinstance(s, Diff):
        return count(s.left, n) - _count_inter((s.left, s.right), n)
    if isinstance(s, Inter):
        return _count_inter((s.left, s.right), n)
    raise TypeError(f"not an index set: {s!r}")


@lru_cache(maxsize=65536)
def _count_inter(parts: tuple, n: int) -> int:
    """|intersection of all parts, within [1, n]|.

    Boolean structure inside the parts is eliminated by rewriting; the
    atomic core is counted by enumeration of the sparsest atom, interval
    restriction, or CRT merging of arithmetic progressions.
    """
    if n < 1:
        return 0
    if not parts:
        return n
    # Eliminate boolean nodes one at a time (each rewrite removes a node).
    for i, p in enumerate(parts):
        rest = parts[:i] + parts[i + 1 :]
        if isinstance(p, Inter):
            return _count_inter(rest + (p.left, p.right), n)
        if isinstance(p, Compl):
            return _count_inter(rest, n) - _count_inter(rest + (p.arg,), n)
        if isinstance(p, Diff):
            return _count_inter(rest + (p.left,), n) - _count_inter(rest + (p.left, p.right), n)
        if isinstance(p, Union):
            return (
                _count_inter(rest + (p.left,), n)
                + _count_inter(rest + (p.right,), n)
                - _count_inter(rest + (p.left, p.right), n)
            )
    # All parts are atoms now.
    for i, p in enumerate(parts):
        if isinstance(p, Finite):
            others = parts[:i] + parts[i + 1 :]
            return sum(
                1
                for e in p.elements
                if e <= n and all(member(o, e) for o in others)
            )
    for i, p in enumerate(parts):
        if isinstance(p, FactorialPoints):
            others = parts[:i] + parts[i + 1 :]
            total = 0
            j, f = 1, 1
            while f <= n:
                if member(p.base, j) and all(member(o, f) for o in others):
                    total += 1
                j += 1
                f *= j
            return total
    for i, p in enumerate(parts):
        if isinstance(p, FactorialIntervals):
            others = parts[:i] + parts[i + 1 :]
            return sum(
                _count_inter(others, min(hi, n)) - _count_inter(others, lo - 1)
                for lo, hi in _blocks_up_to(p, n)
            )
    for i, p in enumerate(parts):
        if isinstance(p, Interval):
            others = parts[:i] + parts[i + 1 :]
            top = min(n, p.hi)
            if top < p.lo:
                return 0
            return _count_inter(others, top) - _count_inter(others, p.lo - 1)
    # Only arithmetic progressions remain: merge them by CRT.
    merged = parts[0]
    for p in parts[1:]:
        merged = _merge_progressions(merged, p)
        if merged is None:
            return 0
    return count(merged, n)


def _merge_progressions(p: ArithProg, q: ArithProg) -> ArithProg | None:
    """Intersection of two arithmetic progressions (None when empty)."""
    g = math.gcd(p.d, q.d)
    if (q.a - p.a) % g != 0:
        return None
    l = p.d // g * q.d
    # Solve x = p.a (mod p.d), x = q.a (mod q.d) by CRT.
    m = (q.a - p.a) // g
    inv = pow(p.d // g, -1, q.d // g) if q.d // g > 1 else 0
    t = (m * inv) % (q.d // g)
    x0 = p.a + p.d * t
    lo = max(p.a, q.a)
    if x0 < lo:
        x0 += ((lo - x0 + l - 1) // l) * l
    return ArithProg(x0, l)


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

    When ``intervals`` cannot enumerate s to n, it fails for every bound
    from some m0 on (a larger bound evaluates more), so the segments are
    the runs below m0 and then single coordinates decided lazily by
    ``member``.  An IndexSetError thus comes at the coordinate where
    ``member`` raises, and not at all when the caller stops earlier:
    ``intervals`` evaluates bounds that ``member`` may never reach.
    """
    try:
        runs = intervals(s, n)
    except IndexSetError:
        ok, bad = 0, n  # intervals(s, ok) succeeds, intervals(s, bad) raises
        while bad - ok > 1:
            mid = (ok + bad) // 2
            try:
                intervals(s, mid)
                ok = mid
            except IndexSetError:
                bad = mid
        yield from segments(s, ok)
        yield from ((t, t, member(s, t)) for t in range(bad, n + 1))
        return
    cur = 1
    for lo, hi in runs:
        if lo > cur:
            yield cur, lo - 1, False
        yield lo, hi, True
        cur = hi + 1
    if cur <= n:
        yield cur, n, False


def intervals(s: IndexSet, n: int) -> list[tuple[int, int]]:
    """The maximal runs [lo, hi] of s within [1, n], in increasing order.

    Atoms give their runs directly (an arithmetic progression with d > 1 one
    run per element); boolean nodes merge their children's sorted runs in
    linear time.  Raises IndexSetError when a bound below n cannot be
    evaluated, for example past a block pattern's cap, even where ``member``
    would stop before reaching it.
    """
    if n < 1:
        return []
    if isinstance(s, Finite):
        return _coalesce((e, e) for e in s.elements[: bisect_right(s.elements, n)])
    if isinstance(s, ArithProg):
        if s.a > n:
            return []
        return [(s.a, n)] if s.d == 1 else [(t, t) for t in range(s.a, n + 1, s.d)]
    if isinstance(s, Interval):
        return [(s.lo, min(s.hi, n))] if s.lo <= n else []
    if isinstance(s, FactorialPoints):
        points = []
        j, f = 1, 1
        while f <= n:
            if member(s.base, j):
                points.append((f, f))
            j += 1
            f *= j
        return _coalesce(points)
    if isinstance(s, FactorialIntervals):
        return _coalesce((lo, min(hi, n)) for lo, hi in _blocks_up_to(s, n))
    if isinstance(s, Compl):
        return _complement(intervals(s.arg, n), n)
    if isinstance(s, Union):
        return _coalesce(heapq.merge(intervals(s.left, n), intervals(s.right, n)))
    if isinstance(s, Inter):
        return _intersect(intervals(s.left, n), intervals(s.right, n))
    if isinstance(s, Diff):
        return _intersect(intervals(s.left, n), _complement(intervals(s.right, n), n))
    raise TypeError(f"not an index set: {s!r}")


def _coalesce(runs) -> list[tuple[int, int]]:
    """Merge runs sorted by lo where they overlap or touch."""
    out: list[tuple[int, int]] = []
    for lo, hi in runs:
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def _complement(runs: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    out = []
    cur = 1
    for lo, hi in runs:
        if lo > cur:
            out.append((cur, lo - 1))
        cur = hi + 1
    if cur <= n:
        out.append((cur, n))
    return out


def _intersect(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


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
        left = {r for r in range(period) if r % pl.period in pl.residues}
        right = {r for r in range(period) if r % pr.period in pr.residues}
        if isinstance(s, Union):
            residues = left | right
        elif isinstance(s, Inter):
            residues = left & right
        else:
            residues = left - right
        return Profile(period, frozenset(residues), max(pl.start, pr.start))
    return None


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
    p = periodic_profile(Inter(a, b))
    if p is not None and not p.residues:
        return count(Inter(a, b), p.start - 1) == 0
    if isinstance(a, FactorialPoints) and isinstance(b, FactorialPoints):
        return provably_empty(Inter(a.base, b.base))  # n -> n! is injective on n >= 1
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Finite):
            return all(not member(y, e) for e in x.elements)
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
