"""Representable welfare evaluations of utility streams.

Four evaluators: the Cesàro liminf of partial averages, the discounted
sum, the minimum, and the coordinate liminf.  Each reads the densities,
profiles and finiteness of the stream's sets and never lists a period of
the stream; where no structural rule decides a value it is a labelled
interval (a certified one for the discounted sum, a checkpoint estimate
for Cesàro, which never orders two streams).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .densities import exact_density, finiteness_with_density
from .indexsets import INFINITE, Compl, intervals, periodic_profile, provably_empty, provably_nonempty
from .streams import Permuted, Piecewise, RankFill, Stream, _regions, prefix, runs, values

__all__ = [
    "SwfValue",
    "SwfError",
    "Ordering",
    "cesaro_liminf",
    "discounted_sum",
    "min_swf",
    "liminf_swf",
    "induced_compare",
    "EVALUATORS",
]


class SwfError(ValueError):
    """Raised when an evaluation precondition fails."""


@dataclass(frozen=True)
class SwfValue:
    """A welfare value: exact rational, +infinity, or a certified interval."""

    kind: str  # "finite" | "plus_infinity" | "interval"
    value: Fraction | None = None
    lo: Fraction | None = None
    hi: Fraction | None = None
    evidence: tuple = ()

    def __post_init__(self):
        if self.kind == "interval" and (self.lo is None or self.hi is None or self.lo > self.hi):
            raise ValueError("interval estimate needs lo <= hi")

    @classmethod
    def finite(cls, v) -> "SwfValue":
        return cls(kind="finite", value=Fraction(v))

    @classmethod
    def plus_infinity(cls) -> "SwfValue":
        return cls(kind="plus_infinity")

    @classmethod
    def interval(cls, lo, hi, evidence=()) -> "SwfValue":
        return cls(kind="interval", lo=Fraction(lo), hi=Fraction(hi), evidence=tuple(evidence))


_ESTIMATE_CHECKPOINTS = (120, 720, 1708, 5040)


def cesaro_liminf(x: Stream) -> SwfValue:
    """liminf of (x_1 + ... + x_n) / n.

    Exact for a piecewise stream whose clause densities are exact, at most
    one of them with lower != upper (``_piecewise_mean``); plus-infinity for
    a rank-fill stream whose complement U' has exact positive lower density
    d: from some n on count(U', n) >= d*n/2, so the ranks up to n sum to at
    least (d*n/2)^2 / 2 and the average grows without bound.  A finite
    permutation shifts partial sums by a bounded amount and keeps either
    value.  Otherwise an interval estimate from checkpoint partial averages,
    which certifies nothing.
    """
    if isinstance(x, Permuted):
        base = cesaro_liminf(x.base)
        if base.kind != "interval":
            return base
    elif isinstance(x, Piecewise):
        mean = _piecewise_mean(x)
        if mean is not None:
            return SwfValue.finite(mean)
    elif isinstance(x, RankFill):
        d = exact_density(Compl(x.fill_on))
        if d is not None and d[0] > 0:
            return SwfValue.plus_infinity()
    # Partial sums at the checkpoints, an arithmetic series per run.
    evidence = []
    total = Fraction(0)
    for lo, hi, v, slope in runs(x, _ESTIMATE_CHECKPOINTS[-1]):
        for c in _ESTIMATE_CHECKPOINTS:
            if lo <= c <= hi:
                evidence.append((c, (total + _run_sum(v, slope, c - lo + 1)) / c))
        total += _run_sum(v, slope, hi - lo + 1)
    tail = [avg for _, avg in evidence[len(evidence) // 2 :]]
    return SwfValue.interval(min(tail), max(tail), evidence)


def _piecewise_mean(x: Piecewise) -> Fraction | None:
    """The liminf of x's averages from its clauses' exact densities, or None.

    The average at n is default + sum c * count(S, n) / n over the clauses
    (S, v), with c = v - default.  When every term but one converges, the
    liminf is the sum of the limits plus the liminf of that one term:
    c * lower for c > 0, c * upper for c < 0.
    """
    total, moving = x.default, 0
    for s, v in x.clauses:
        d = exact_density(s)
        if d is None:
            return None
        c = v - x.default
        moving += d[0] != d[1]
        if moving > 1:
            return None
        total += c * (d[0] if c > 0 else d[1])
    return total


def _run_sum(v: Fraction, slope: int, m: int) -> Fraction:
    """The sum of the first m values of a run starting at v."""
    return m * v + slope * m * (m - 1) // 2


def _value_bounds(x: Stream):
    """Structural (min, max) bounds on the values of x, or None."""
    if isinstance(x, Piecewise):
        vals = [x.default] + [v for _, v in x.clauses]
        return (min(vals), max(vals))
    if isinstance(x, Permuted):
        return _value_bounds(x.base)
    return None


def discounted_sum(x: Stream, delta: Fraction, tol: Fraction = Fraction(1, 10**9)) -> SwfValue:
    """Sum of delta^(t-1) * x_t.

    Exact in closed form when every clause set of a piecewise stream, or of
    the base of a finitely permuted one, is eventually periodic
    (``_periodic_sum``).  For other bounded streams and for rank-fill
    streams, whose ranks grow at most linearly, an interval of width at
    most tol from an exact partial sum plus exact tail bounds.  Other
    streams without a structural value bound are rejected since the series
    may diverge.
    """
    delta = Fraction(delta)
    tol = Fraction(tol)
    if not (0 < delta < 1):
        raise SwfError(f"discount factor must be in (0, 1), got {delta}")
    if tol <= 0:
        raise SwfError("tolerance must be positive")
    exact = _periodic_sum(x, delta)
    if exact is not None:
        return SwfValue.finite(exact)
    tail = _tail_bounds(x, delta)
    if tail is None:
        raise SwfError("stream has no structural value bound; series may diverge")
    n, dn = 1, delta
    lo, hi = tail(n, dn)
    while hi - lo > tol:
        n, dn = n + 1, dn * delta
        lo, hi = tail(n, dn)
    partial = sum((delta ** (t - 1)) * v for t, v in enumerate(values(x, n), 1))
    return SwfValue.interval(partial + lo, partial + hi, evidence=((n, partial),))


def _periodic_sum(x: Stream, delta: Fraction) -> Fraction | None:
    """The exact sum when every clause set is eventually periodic, else None:
    default / (1 - delta) plus (v - default) times the discounted mass of S
    per clause (S, v).  A finite permutation moves only terms up to its bound."""
    if isinstance(x, Permuted):
        base = _periodic_sum(x.base, delta)
        if base is None:
            return None
        head = prefix(x.base, x.perm.bound)
        dt = Fraction(1)  # delta^(t-1)
        for t, img in enumerate(x.perm.mapping, 1):
            base += dt * (head[img - 1] - head[t - 1])
            dt *= delta
        return base
    if not isinstance(x, Piecewise):
        return None
    masses = [_discounted_mass(s, delta) for s, _ in x.clauses]
    if None in masses:
        return None
    return x.default / (1 - delta) + sum((v - x.default) * m for (_, v), m in zip(x.clauses, masses))


def _discounted_mass(s, delta: Fraction) -> Fraction | None:
    """The sum of delta^(t-1) over t in s from s's profile, or None without one:
    a geometric series per run of s below the profile's start, and one per
    residue from there on."""
    p = periodic_profile(s)
    if p is None:
        return None
    head = sum(delta ** (lo - 1) - delta**hi for lo, hi in intervals(s, p.start - 1)) / (1 - delta)
    cycle = sum(delta ** ((r - p.start) % p.period) for r in p.residues)
    return head + delta ** (p.start - 1) * cycle / (1 - delta**p.period)


def _tail_bounds(x: Stream, delta: Fraction):
    """(n, delta^n) -> exact (lo, hi) bounds on the sum of delta^(t-1) * x_t
    over t > n, or None when x has no structural value bound."""
    geo = 1 / (1 - delta)
    if isinstance(x, RankFill):
        # Off the fill set x_t = count(Compl(U), t) + 1, which lies in
        # [2, t + 1].  At t = n + 1 + k, max(fill, t + 1) <= max(fill, n + 2) + k,
        # and the sum over k >= 0 of delta^k * k is delta * geo^2.
        vmin = min(x.fill, 2)
        return lambda n, dn: (vmin * dn * geo, dn * (max(x.fill, n + 2) + delta * geo) * geo)
    bounds = _value_bounds(x)
    if bounds is None:
        return None
    vmin, vmax = bounds
    return lambda n, dn: (vmin * dn * geo, vmax * dn * geo)


def min_swf(x: Stream) -> SwfValue:
    """The minimum attained value (exact, computed structurally)."""
    if isinstance(x, Permuted):
        return min_swf(x.base)
    if isinstance(x, RankFill):
        if provably_nonempty(x.fill_on):
            return SwfValue.finite(min(x.fill, Fraction(2)))
        if provably_empty(x.fill_on):
            return SwfValue.finite(Fraction(2))
        if x.fill >= 2:
            return SwfValue.finite(Fraction(2))
        raise SwfError("attainment of the fill value is undecided")
    if isinstance(x, Piecewise):
        return _least_value(
            x, lambda r: provably_nonempty(r) or (False if provably_empty(r) else None),
            "no region is provably nonempty", "minimum depends on a region with undecided attainment")
    raise TypeError(f"not a stream: {x!r}")


def liminf_swf(x: Stream) -> SwfValue:
    """The liminf of the coordinate values (exact, computed structurally)."""
    if isinstance(x, Permuted):
        return liminf_swf(x.base)
    if isinstance(x, RankFill):
        fin = finiteness_with_density(x.fill_on)
        if fin is INFINITE:
            return SwfValue.finite(x.fill)
        if fin is not None:
            # Only rank values remain eventually, and those grow without bound.
            return SwfValue.plus_infinity()
        raise SwfError("infinitude of the fill set is undecided")
    if isinstance(x, Piecewise):
        return _least_value(
            x, lambda r: None if (f := finiteness_with_density(r)) is None else f is INFINITE,
            "no region is provably infinite", "liminf depends on a region of undecided infinitude")
    raise TypeError(f"not a stream: {x!r}")


def _least_value(x: Piecewise, taken, none: str, depends: str) -> SwfValue:
    """The least value on a region that ``taken`` proves to count (True),
    unless a region it leaves undecided (None) holds a smaller one."""
    regions = [(taken(region), v) for region, v in _regions(x)]
    if not any(t for t, _ in regions):
        raise SwfError(none)
    m = min(v for t, v in regions if t)
    if any(t is None and v < m for t, v in regions):
        raise SwfError(depends)
    return SwfValue.finite(m)


class Ordering(enum.Enum):
    ABOVE = "above"
    EQUIVALENT = "equivalent"
    BELOW = "below"
    UNDECIDED = "undecided"

    def __str__(self):
        return self.value


EVALUATORS = {
    "cesaro": cesaro_liminf,
    "discounted": discounted_sum,
    "min": min_swf,
    "liminf": liminf_swf,
}


def _as_interval(v: SwfValue):
    if v.kind == "finite":
        return (v.value, v.value)
    if v.kind == "interval":
        return (v.lo, v.hi)
    return None


def induced_compare(which: str, x: Stream, y: Stream, **kwargs) -> Ordering:
    """Order x against y by the welfare values of the named evaluator.

    A Cesàro checkpoint estimate, overlapping discounted intervals and a
    pair of divergent values are reported as undecided rather than ranked.
    """
    if which not in EVALUATORS:
        raise SwfError(f"unknown evaluator {which!r}; choose from {sorted(EVALUATORS)}")
    if x == y:
        return Ordering.EQUIVALENT
    evaluator = EVALUATORS[which]
    wx = evaluator(x, **kwargs)
    wy = evaluator(y, **kwargs)
    if which == "cesaro" and "interval" in (wx.kind, wy.kind):
        return Ordering.UNDECIDED
    if wx.kind == "plus_infinity" and wy.kind == "plus_infinity":
        return Ordering.UNDECIDED
    if wx.kind == "plus_infinity":
        return Ordering.ABOVE
    if wy.kind == "plus_infinity":
        return Ordering.BELOW
    ax = _as_interval(wx)
    ay = _as_interval(wy)
    if ax[0] == ax[1] == ay[0] == ay[1]:
        return Ordering.EQUIVALENT
    if ax[0] > ay[1]:
        return Ordering.ABOVE
    if ax[1] < ay[0]:
        return Ordering.BELOW
    return Ordering.UNDECIDED
