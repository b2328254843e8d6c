"""Exact lower/upper asymptotic densities for the decidable fragment.

The decidable fragment consists of: eventually-periodic sets (boolean
combinations of finite sets, intervals and arithmetic progressions),
factorial point sets (always density zero), factorial interval families
whose boundary-ratio limits exist (exact limits of factorial ratios, taken
term by term over the slopes of the factorials), and boolean combinations
of the above where the density algebra is conclusive.
Everything else falls back to a flagged checkpoint estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import indexsets as ix
from .indexsets import (
    INFINITE,
    BlockPattern,
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    IndexSet,
    Inter,
    Union,
    count,
    finiteness,
    is_finite,
    periodic_profile,
    provably_disjoint,
)

__all__ = [
    "DensityResult",
    "exact_density",
    "density",
    "checkpoint_schedule",
    "sym_diff_finite",
    "finiteness_with_density",
    "DEFAULT_CHECKPOINT_MAX",
]

DEFAULT_CHECKPOINT_MAX = math.factorial(10)

_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(1))


@dataclass(frozen=True)
class DensityResult:
    """Lower/upper asymptotic density, exact or as a flagged estimate.

    When ``exact`` is true, ``lower`` and ``upper`` are the true liminf and
    limsup of count(S, n) / n.  Otherwise they summarize the tail of the
    checkpoint ratios recorded in ``evidence`` (n, count, ratio) triples.
    """

    lower: Fraction
    upper: Fraction
    exact: bool
    evidence: tuple = ()

    def __post_init__(self):
        if self.exact and not (0 <= self.lower <= self.upper <= 1):
            raise ValueError(f"exact densities out of order: {self.lower}, {self.upper}")


# ---------------------------------------------------------------------------
# Boundary-ratio limits for block patterns
# ---------------------------------------------------------------------------


# A bound in the fragment is a sum over slopes a >= 0 of R_a(k) * (a*k)!,
# kept as {a: (num, den)}: R_a is a ratio of polynomials in k, each a tuple
# of Fraction coefficients, lowest degree first.  (a*k + b)! folds into
# (a*k)! times a polynomial (b > 0) or over one (b < 0).  A larger slope
# outgrows any rational function times a smaller one, so the limit of a
# ratio is the limit of its top-slope coefficients.  Whatever falls outside
# (a product of two factorial terms, a negative slope, ...) is None.

_UNIT = (Fraction(1),)


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _scale(terms, num, den):
    """Multiply every coefficient by the rational function num / den."""
    return {a: (_poly_mul(n, num), _poly_mul(d, den)) for a, (n, d) in terms.items()}


def _sum(x, y, sign):
    out = dict(x)
    for a, (n, d) in y.items():
        n = tuple(sign * c for c in n)
        if a in out:
            n0, d0 = out[a]
            n, d = _poly_add(_poly_mul(n0, d), _poly_mul(n, d0)), _poly_mul(d0, d)
        if n:
            out[a] = (n, d)
        else:
            out.pop(a, None)
    return out


def _fact(x):
    """(a*k + b)! for an affine x with integers a >= 0 and b, else None."""
    if x is None or set(x) - {0}:
        return None
    num, den = x.get(0, ((), _UNIT))
    if len(den) != 1 or len(num) > 2:
        return None
    b, a = [c / den[0] for c in num] + [Fraction(0)] * (2 - len(num))
    if a.denominator != 1 or b.denominator != 1 or a < 0:
        return None
    a, b = int(a), int(b)
    if a == 0:
        return {0: ((Fraction(math.factorial(b)),), _UNIT)} if b >= 0 else None
    # (a*k+1)...(a*k+b) above (a*k)!, or (a*k)(a*k-1)...(a*k+b+1) below it.
    poly = _UNIT
    for i in range(1, b + 1) if b >= 0 else range(0, b, -1):
        poly = _poly_mul(poly, (Fraction(i), Fraction(a)))
    return {a: (poly, _UNIT) if b >= 0 else (_UNIT, poly)}


class _Unvalued(Exception):
    """A factorial whose argument ``_fact`` rejects, met by ``_terms`` with
    ``valued``."""


def _terms(expr, shift: int, valued: bool = False):
    """The slope terms of a bound expression at k + shift, or None.

    A factorial whose argument ``_fact`` rejects is None, and zero times it
    is 0, as sympy folds it.  With ``valued`` it raises ``_Unvalued``
    instead, zero factor or not: the bound may have no value for large k,
    as 0 * (40 - k)! has none from k = 41."""
    if isinstance(expr, ix.Num):
        return {0: ((Fraction(expr.value),), _UNIT)} if expr.value else {}
    if isinstance(expr, ix.Var):
        return {0: ((Fraction(shift), Fraction(1)), _UNIT)}
    if isinstance(expr, ix.Fact):
        fact = _fact(_terms(expr.arg, shift, valued))
        if fact is None and valued:
            raise _Unvalued(expr)
        return fact
    x, y = _terms(expr.left, shift, valued), _terms(expr.right, shift, valued)
    if isinstance(expr, (ix.Add, ix.Sub)):
        if x is None or y is None:
            return None
        return _sum(x, y, 1 if isinstance(expr, ix.Add) else -1)
    if isinstance(expr, ix.Mul):
        if x == {} or y == {}:
            return {}  # zero times anything, as for 0 * (40 - k)!
        if x is None or y is None:
            return None
        if set(x) == {0}:
            return _scale(y, *x[0])
        if set(y) == {0}:
            return _scale(x, *y[0])
        return None
    if isinstance(expr, ix.Div):
        if y == {}:
            return None
        if x == {}:
            return {}
        if x is None or y is None:
            return None
        if set(y) == {0}:
            n, d = y[0]
            return _scale(x, d, n)
        if len(x) == len(y) == 1 and set(x) == set(y):
            ((n1, d1),), ((n2, d2),) = x.values(), y.values()
            return {0: (_poly_mul(n1, d2), _poly_mul(d1, n2))}
        return None
    raise TypeError(f"not a bound expression: {expr!r}")


def _ratio_limit(top, bottom):
    """lim top/bottom as k -> oo, or None when infinite or not in the fragment."""
    if top is None or not bottom:
        return None
    if not top:
        return Fraction(0)
    a, b = max(top), max(bottom)
    if a != b:
        return Fraction(0) if a < b else None
    (n1, d1), (n2, d2) = top[a], bottom[b]
    num, den = _poly_mul(n1, d2), _poly_mul(d1, n2)
    if len(num) != len(den):
        return Fraction(0) if len(num) < len(den) else None
    return num[-1] / den[-1]


@lru_cache(maxsize=512)
def _pattern_limits(pattern: BlockPattern, valued: bool = False):
    """(lim lo_k/hi_k, lim hi_k/lo_{k+1}) for a block pattern, or None.

    With ``valued``, also None when a bound has a factorial outside the
    fragment, even one that a zero factor folds away: exact densities are
    read only from bounds that have a value for every k."""
    try:
        lo, hi = _terms(pattern.lo, 0, valued), _terms(pattern.hi, 0, valued)
        next_lo = _terms(pattern.lo, 1, valued)
    except _Unvalued:
        return None
    l1 = _ratio_limit(lo, hi)
    l2 = _ratio_limit(hi, next_lo)
    if l1 is None or l2 is None:
        return None
    return (l1, l2)


def _pattern_density(fi: FactorialIntervals):
    """Exact densities of a block family from its boundary-ratio limits.

    Writing A_k for the total mass through block k, the ratio count(n)/n
    increases inside a block (peak A_k / hi_k) and decreases across a gap
    (trough A_k / (lo_{k+1} - 1)).  When L1 = lim lo/hi and L2 = lim
    hi/next-lo exist with L1*L2 < 1, the peak ratios converge to
    a* = (1 - L1) / (1 - L1*L2) and the troughs to a* * L2.
    """
    lims = _pattern_limits(fi.pattern, valued=True)
    if lims is None:
        return None
    l1, l2 = lims
    if not (0 <= l1 <= 1 and 0 <= l2 <= 1):
        return None
    h = l1 * l2
    if h >= 1:
        return None
    upper = (Fraction(1) - l1) / (Fraction(1) - h)
    lower = upper * l2
    if not (0 <= lower <= upper <= 1):
        return None
    return (lower, upper)


# ---------------------------------------------------------------------------
# The density algebra
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8192)
def exact_density(s: IndexSet):
    """(lower, upper) as exact Fractions, or None when not structurally decided."""
    if isinstance(s, Compl):  # before the profile, which lists the residues it lacks
        d = exact_density(s.arg)
        if d is None:
            return None
        return (1 - d[1], 1 - d[0])
    p = periodic_profile(s)
    if p is not None:
        d = p.density
        return (d, d)
    if isinstance(s, FactorialPoints):
        # Elements grow at least factorially, so the count is O(log n / log log n).
        return _ZERO
    if isinstance(s, FactorialIntervals):
        if s.pattern is None:
            return _ZERO
        return _pattern_density(s)
    if isinstance(s, Union):
        da = exact_density(s.left)
        db = exact_density(s.right)
        if da is None or db is None:
            return None
        if da == _ZERO:
            return db
        if db == _ZERO:
            return da
        if da == _ONE or db == _ONE:
            return _ONE
        if da[0] == da[1] and db[0] == db[1]:
            di = _inter_density(s.left, s.right)
            if di is not None and di[0] == di[1]:
                v = da[0] + db[0] - di[0]
                return (v, v)
        return None
    if isinstance(s, Inter):
        return _inter_density(s.left, s.right)
    if isinstance(s, Diff):
        da = exact_density(s.left)
        if da == _ZERO:
            return _ZERO
        db = exact_density(s.right)
        if db == _ONE:
            return _ZERO
        di = _inter_density(s.left, s.right)
        if da is not None and di is not None:
            if di == _ZERO:
                return da
            if da[0] == da[1] and di[0] == di[1]:
                v = da[0] - di[0]
                return (v, v)
        return None
    return None


def _inter_density(a: IndexSet, b: IndexSet):
    da = exact_density(a)
    db = exact_density(b)
    if da == _ZERO or db == _ZERO:
        return _ZERO
    if da == _ONE:
        return db
    if db == _ONE:
        return da
    if provably_disjoint(a, b):
        return _ZERO
    return None


def contains_long_intervals(s: IndexSet) -> bool:
    """True when s provably contains integer intervals of unbounded length.

    Such a set meets every eventually-periodic set with a nonempty residue
    pattern infinitely often.  Recognized: block patterns whose block
    lengths grow without bound (boundary ratio lo/hi tending below one,
    since the integer-valued bounds themselves diverge), and complements
    of block patterns with the analogous gap-ratio behavior.
    """
    if isinstance(s, FactorialIntervals) and s.pattern is not None:
        lims = _pattern_limits(s.pattern, valued=True)
        return lims is not None and lims[0] < 1
    if isinstance(s, Compl) and isinstance(s.arg, FactorialIntervals) and s.arg.pattern is not None:
        lims = _pattern_limits(s.arg.pattern, valued=True)
        return lims is not None and lims[1] < 1
    return False


def finiteness_with_density(s):
    """``finiteness``, falling back to exact densities for infinitude.

    A set with positive exact lower density is infinite even when the
    shape alone does not decide it, and so is the intersection of an
    infinite periodic set with a set containing unboundedly long
    intervals.
    """
    f = finiteness(s)
    if f is not None:
        return f
    if contains_long_intervals(s):
        return INFINITE
    d = exact_density(s)
    if d is not None and d[0] > 0:
        return INFINITE
    if isinstance(s, Inter):
        for a, b in ((s.left, s.right), (s.right, s.left)):
            p = periodic_profile(a)
            if p is not None and p.residues and contains_long_intervals(b):
                return INFINITE
    if isinstance(s, Union) and INFINITE in (finiteness_with_density(s.left), finiteness_with_density(s.right)):
        return INFINITE
    return None


def checkpoint_schedule(max_n: int = DEFAULT_CHECKPOINT_MAX) -> tuple[int, ...]:
    """Factorial checkpoints k! for k = 3..10 plus a geometric grid 2^j."""
    ns = {math.factorial(k) for k in range(3, 11) if math.factorial(k) <= max_n}
    j = 3
    while 2**j <= max_n:
        ns.add(2**j)
        j += 1
    return tuple(sorted(ns))


def density(s: IndexSet, max_checkpoint: int = DEFAULT_CHECKPOINT_MAX) -> DensityResult:
    """Exact densities when s is in the decidable fragment, else an estimate."""
    ex = exact_density(s)
    if ex is not None:
        return DensityResult(lower=ex[0], upper=ex[1], exact=True)
    schedule = checkpoint_schedule(max_checkpoint)
    evidence = []
    for n in schedule:
        c = count(s, n)
        evidence.append((n, c, Fraction(c, n)))
    tail = [r for (_, _, r) in evidence[len(evidence) // 2 :]]
    return DensityResult(
        lower=min(tail), upper=max(tail), exact=False, evidence=tuple(evidence)
    )


# ---------------------------------------------------------------------------
# Finiteness of symmetric differences
# ---------------------------------------------------------------------------

_EMPTY = Finite(())


def _strip_finite_parts(s: IndexSet) -> IndexSet:
    """Rewrite s modulo finite sets (the result differs from s finitely)."""
    if is_finite(s) is True:
        return _EMPTY
    if isinstance(s, Union):
        l = _strip_finite_parts(s.left)
        r = _strip_finite_parts(s.right)
        if l == _EMPTY:
            return r
        if r == _EMPTY:
            return l
        return Union(l, r)
    if isinstance(s, Diff):
        l = _strip_finite_parts(s.left)
        r = _strip_finite_parts(s.right)
        if l == _EMPTY:
            return _EMPTY
        if r == _EMPTY:
            return l
        return Diff(l, r)
    if isinstance(s, Inter):
        l = _strip_finite_parts(s.left)
        r = _strip_finite_parts(s.right)
        if l == _EMPTY or r == _EMPTY:
            return _EMPTY
        return Inter(l, r)
    if isinstance(s, Compl):
        return Compl(_strip_finite_parts(s.arg))
    return s


def sym_diff_finite(a: IndexSet, b: IndexSet) -> bool | None:
    """Whether |A symmetric-difference B| is finite: True or False with a
    structural proof (equal sets up to finite parts; distinct eventual
    residue patterns or exact densities), None when undecided."""
    if a == b or _strip_finite_parts(a) == _strip_finite_parts(b):
        return True
    da = exact_density(a)
    db = exact_density(b)
    if da is not None and db is not None and da != db:
        return False
    if periodic_profile(a) is not None and periodic_profile(b) is not None:
        return not periodic_profile(Union(Diff(a, b), Diff(b, a))).residues
    return None
