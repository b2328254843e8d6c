"""Exact lower/upper asymptotic densities for the decidable fragment.

The decidable fragment consists of: eventually-periodic sets (boolean
combinations of finite sets, intervals and arithmetic progressions),
factorial point sets (always density zero), factorial interval families
whose boundary-ratio limits exist (computed symbolically), and boolean
combinations of the above where the density algebra is conclusive.
Everything else falls back to a flagged checkpoint estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .indexsets import (
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    IndexSet,
    Inter,
    Union,
    count,
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


def _to_sympy(expr, k):
    import sympy as sp

    from . import indexsets as ix

    if isinstance(expr, ix.Num):
        return sp.Integer(expr.value)
    if isinstance(expr, ix.Var):
        return k
    if isinstance(expr, ix.Add):
        return _to_sympy(expr.left, k) + _to_sympy(expr.right, k)
    if isinstance(expr, ix.Sub):
        return _to_sympy(expr.left, k) - _to_sympy(expr.right, k)
    if isinstance(expr, ix.Mul):
        return _to_sympy(expr.left, k) * _to_sympy(expr.right, k)
    if isinstance(expr, ix.Div):
        return _to_sympy(expr.left, k) / _to_sympy(expr.right, k)
    if isinstance(expr, ix.Fact):
        return sp.factorial(_to_sympy(expr.arg, k))
    raise TypeError(f"not a bound expression: {expr!r}")


def _limit_as_fraction(expr, k):
    import sympy as sp

    try:
        # Factorial ratios collapse to rational functions of k, whose
        # limits are immediate; fall back to the raw expression otherwise.
        simplified = sp.combsimp(sp.cancel(expr))
        lim = sp.limit(simplified, k, sp.oo)
    except Exception:
        try:
            lim = sp.limit(expr, k, sp.oo)
        except Exception:
            return None
    if lim is None or not getattr(lim, "is_rational", False):
        return None
    r = sp.Rational(lim)
    return Fraction(int(r.p), int(r.q))


@lru_cache(maxsize=512)
def _pattern_limits(fi: FactorialIntervals):
    """(lim lo_k/hi_k, lim hi_k/lo_{k+1}) for the block pattern, or None."""
    import sympy as sp

    if fi.pattern is None:
        return None
    k = sp.Symbol("k", integer=True, positive=True)
    lo = _to_sympy(fi.pattern.lo, k)
    hi = _to_sympy(fi.pattern.hi, k)
    l1 = _limit_as_fraction(lo / hi, k)
    l2 = _limit_as_fraction(hi / lo.subs(k, k + 1), k)
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
    lims = _pattern_limits(fi)
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
    if isinstance(s, Compl):
        d = exact_density(s.arg)
        if d is None:
            return None
        return (1 - d[1], 1 - d[0])
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
        lims = _pattern_limits(s)
        return lims is not None and lims[0] < 1
    if isinstance(s, Compl) and isinstance(s.arg, FactorialIntervals) and s.arg.pattern is not None:
        lims = _pattern_limits(s.arg)
        return lims is not None and lims[1] < 1
    return False


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
    pa = periodic_profile(a)
    pb = periodic_profile(b)
    if pa is not None and pb is not None:
        period = math.lcm(pa.period, pb.period)
        ra = {r for r in range(period) if r % pa.period in pa.residues}
        rb = {r for r in range(period) if r % pb.period in pb.residues}
        return ra == rb
    da = exact_density(a)
    db = exact_density(b)
    if da is not None and db is not None and da != db:
        return False
    return None
