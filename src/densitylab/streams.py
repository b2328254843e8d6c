"""Symbolic infinite utility streams and finite permutations.

A stream assigns an exact rational to every coordinate t >= 1.  Supported
forms: piecewise-constant over disjoint index sets, rank-fill (a fill value
on a set U and the value m+1 at the m-th element of the complement of U),
and a finitely permuted view of another stream.  A rank is an ``int``;
every other value (fills, piecewise values) is a ``Fraction``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, islice, repeat, starmap

from . import verdicts
from .densities import finiteness_with_density
from .indexsets import (
    DEFAULT_HORIZON,
    INFINITE,
    NAT,
    Compl,
    Finite,
    IndexSet,
    IndexSetError,
    Inter,
    NthElementError,
    Union,
    count,
    is_finite,
    member,
    nth_element,
    profile_period,
    provably_disjoint,
    provably_empty,
    segments,
)
from .verdicts import RelationVerdict

__all__ = [
    "Stream",
    "Piecewise",
    "RankFill",
    "Permuted",
    "FinitePermutation",
    "StreamError",
    "OverlapError",
    "PairAnalysis",
    "constant",
    "eval_at",
    "runs",
    "values",
    "prefix",
    "pair_runs",
    "scan_pair",
    "apply_permutation",
    "strict_set",
    "nonstrict_set",
    "weakly_dominates",
    "Value",
    "DEFAULT_HORIZON",
    "WINDOW_CAP",
]


class StreamError(ValueError):
    """Raised when a stream constructor invariant is violated."""


class OverlapError(StreamError):
    """Two piecewise clauses matched the same coordinate."""


def _as_fraction(v) -> Fraction:
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise StreamError("stream values must be exact rationals, not floats")
    return Fraction(v)


@dataclass(frozen=True)
class Piecewise:
    """default value everywhere except on the clause sets (pairwise disjoint)."""

    default: Fraction
    clauses: tuple[tuple[IndexSet, Fraction], ...] = ()

    def __init__(self, default, clauses=()):
        default = _as_fraction(default)
        # One object per distinct value, so that walks find equal values by identity.
        # Keyed by the ratio, which hashes faster than a Fraction.
        values = {default.as_integer_ratio(): default}
        cl = tuple((s, values.setdefault((v := _as_fraction(raw)).as_integer_ratio(), v))
                   for s, raw in clauses)
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "clauses", cl)
        for i in range(len(cl)):
            for j in range(i + 1, len(cl)):
                si, sj = cl[i][0], cl[j][0]
                if provably_disjoint(si, sj):
                    continue
                if count(Inter(si, sj), DEFAULT_HORIZON) > 0:
                    raise OverlapError(f"clauses {i} and {j} overlap below {DEFAULT_HORIZON}")
                # Not provably disjoint but no early collision: checked lazily.


@dataclass(frozen=True)
class RankFill:
    """fill value on fill_on; m+1 at the m-th element of the complement.

    The rank rule needs an infinite complement; a provably finite one is
    rejected unless ``truncated`` is set, which marks a finite prefix of an
    infinite construction (the caller tracks the coordinate bound below
    which the truncation is faithful; beyond it the fill value continues).
    """

    fill_on: IndexSet
    fill: Fraction = Fraction(1)
    truncated: bool = False

    def __init__(self, fill_on, fill=Fraction(1), truncated=False):
        object.__setattr__(self, "fill_on", fill_on)
        object.__setattr__(self, "fill", _as_fraction(fill))
        object.__setattr__(self, "truncated", bool(truncated))
        if not truncated and is_finite(Compl(fill_on)) is True:
            raise StreamError("rank-fill needs an infinite complement")


@dataclass(frozen=True)
class FinitePermutation:
    """A bijection of the naturals equal to the identity beyond ``bound``."""

    bound: int
    mapping: tuple[int, ...]

    def __init__(self, bound, mapping):
        m = tuple(mapping)
        if bound < 0 or len(m) != bound:
            raise StreamError(f"mapping must list images of 1..{bound}")
        if sorted(m) != list(range(1, bound + 1)):
            raise StreamError("mapping is not a bijection of [1, bound]")
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "mapping", m)

    def __call__(self, t: int) -> int:
        return self.mapping[t - 1] if 1 <= t <= self.bound else t

    @classmethod
    def identity(cls, bound: int = 0) -> "FinitePermutation":
        return cls(bound, tuple(range(1, bound + 1)))

    @classmethod
    def from_pairs(cls, pairs: dict[int, int], bound: int | None = None) -> "FinitePermutation":
        if bound is None:
            bound = max(list(pairs.keys()) + list(pairs.values()), default=0)
        images = list(range(1, bound + 1))
        for src, dst in pairs.items():
            if not (1 <= src <= bound and 1 <= dst <= bound):
                raise StreamError(f"pair {src}->{dst} outside [1, {bound}]")
            images[src - 1] = dst
        return cls(bound, tuple(images))

    @classmethod
    def swap(cls, i: int, j: int) -> "FinitePermutation":
        return cls.from_pairs({i: j, j: i})

    @classmethod
    def cycle(cls, points: list[int], bound: int | None = None) -> "FinitePermutation":
        """points[0] -> points[1] -> ... -> points[-1] -> points[0]."""
        pairs = {points[i]: points[(i + 1) % len(points)] for i in range(len(points))}
        return cls.from_pairs(pairs, bound)

    def inverse(self) -> "FinitePermutation":
        inv = [0] * self.bound
        for i, img in enumerate(self.mapping):
            inv[img - 1] = i + 1
        return FinitePermutation(self.bound, tuple(inv))

    def moved_points(self) -> tuple[int, ...]:
        return tuple(t for t in range(1, self.bound + 1) if self(t) != t)


@dataclass(frozen=True)
class Permuted:
    """The stream t -> base[perm(t)]."""

    base: "Stream"
    perm: FinitePermutation


Stream = Piecewise | RankFill | Permuted

# An exact rational: a rank is an int, every other value a Fraction.  The
# two agree on ``==``, ``hash``, ``str`` and ordering, so callers mix them.
Value = Fraction | int


def constant(v) -> Piecewise:
    return Piecewise(v)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_at(x: Stream, t: int) -> Value:
    """The exact value of coordinate t >= 1: an int at a rank coordinate of a
    rank-fill stream, else a Fraction."""
    if t < 1:
        raise StreamError(f"coordinates start at 1, got {t}")
    if isinstance(x, Piecewise):
        return _piecewise_at(x, t)
    if isinstance(x, RankFill):
        if member(x.fill_on, t):
            return x.fill
        return count(Compl(x.fill_on), t) + 1
    if isinstance(x, Permuted):
        return eval_at(x.base, x.perm(t))
    raise TypeError(f"not a stream: {x!r}")


def _piecewise_at(x: Piecewise, t: int) -> Fraction:
    hit = None
    for i, (s, v) in enumerate(x.clauses):
        if member(s, t):
            if hit is not None:
                raise OverlapError(f"clauses {hit[0]} and {i} both contain t={t}")
            hit = (i, v)
    return hit[1] if hit is not None else x.default


Run = tuple[int, int, Value, int]


def runs(x: Stream, n: int) -> Iterator[Run]:
    """Coordinates 1..n as runs ``(lo, hi, v, slope)``: the one walk.

    On a run the value at t is v + slope * (t - lo), with slope 0 (a
    constant: a Fraction, or one int rank) or 1 (consecutive ranks, v the
    int rank at lo).  Runs come in order, cover 1..n and are built lazily from the
    ``segments`` of the stream's sets.  Every
    value equals ``eval_at(x, t)``: a piecewise overlap raises eval_at's
    OverlapError at the first shared coordinate, and past a bound that the
    set walk cannot evaluate a set is read by ``member``, one coordinate
    per run, so its IndexSetError comes at the first coordinate whose
    membership cannot be decided, and not at all when the walk stops
    earlier.  A permuted walk buffers the base values up to the
    permutation's bound and emits the permuted values as maximal runs:
    equal values of one type form a constant run, consecutive int ranks a
    slope-1 run, and the last of them absorbs the base's first run past
    the bound when it continues it.  From there on it follows the base.
    """
    if isinstance(x, Piecewise):
        yield from _piecewise_runs(x, n)
    elif isinstance(x, RankFill):
        rank = 2
        for lo, hi, inside in segments(x.fill_on, n):
            if inside:
                yield lo, hi, x.fill, 0
            else:
                yield lo, hi, rank, 1
                rank += hi - lo + 1
    elif isinstance(x, Permuted):
        bound = x.perm.bound
        base = runs(x.base, max(n, bound))
        head: list = [None]  # head[s] is the base value at s <= bound
        rest = None
        for lo, hi, v, slope in base:
            if hi > bound:
                if lo <= bound:
                    head.extend(_expand(lo, bound, v, slope))
                    v, lo = v + slope * (bound + 1 - lo), bound + 1
                rest = (lo, hi, v, slope)
                break
            head.extend(_expand(lo, hi, v, slope))
        yield from _maximal_runs(list(map(head.__getitem__, x.perm.mapping[: max(n, 0)])), rest)
        if rest is not None:
            yield from base
    else:
        raise TypeError(f"not a stream: {x!r}")


def _piecewise_runs(x: Piecewise, n: int) -> Iterator[Run]:
    segs = [segments(s, n) for s, _ in x.clauses]
    cur = [(0, 0, False)] * len(segs)
    t = 1
    while t <= n:
        try:
            cur = [c if c[1] >= t else next(it) for c, it in zip(cur, segs)]
        except IndexSetError:
            _piecewise_at(x, t)  # eval_at's error at t: an overlap may come first
            raise
        hits = [i for i, c in enumerate(cur) if c[2]]
        if len(hits) > 1:
            _piecewise_at(x, t)  # raises the OverlapError eval_at raises at t
            raise OverlapError(f"clauses {hits[0]} and {hits[1]} both contain t={t}")
        hi = min((c[1] for c in cur), default=n)
        yield t, hi, x.clauses[hits[0]][1] if hits else x.default, 0
        t = hi + 1


def _maximal_runs(vals: list[Value], rest: Run | None) -> Iterator[Run]:
    """The maximal runs of coordinates 1..len(vals) holding ``vals``, the
    last extended over ``rest``, the run that follows, when it continues it.
    Equal Fractions of one stream are one object (``Piecewise`` interns its
    values), so only ints are compared by value."""
    if not vals:
        if rest is not None:
            yield rest
        return
    lo, first, slope = 1, vals[0], None  # slope None: one coordinate so far
    last = first
    for t, v in enumerate(islice(vals, 1, None), 2):
        # _continues(last, slope, v, None), inlined: this loop is per coordinate.
        if v is last:
            if slope != 1:
                slope = 0
                continue
        elif type(v) is int is type(last):
            if slope != 0 and v == last + 1:
                slope, last = 1, v
                continue
            if slope != 1 and v == last:
                slope = 0
                continue
        yield lo, t - 1, first, slope or 0
        lo, first, slope, last = t, v, None, v
    if rest is not None:
        s = _continues(last, slope, rest[2], None if rest[0] == rest[1] else rest[3])
        if s is not None:
            yield lo, rest[1], first, s
            return
    yield lo, len(vals), first, slope or 0
    if rest is not None:
        yield rest


def _continues(last: Value, slope: int | None, v: Value, vslope: int | None) -> int | None:
    """The slope of a run that ends at ``last`` (slope None: one coordinate
    so far) continued by a run from v (vslope None: one coordinate), or None
    when the two are not one run: equal values of one type are a constant
    run, consecutive ints a rank run."""
    if type(v) is not type(last):
        return None
    if slope != 1 and vslope != 1 and (v is last or v == last):
        return 0
    if slope != 0 and vslope != 0 and type(v) is int and v == last + 1:
        return 1
    return None


def _expand(lo: int, hi: int, v: Value, slope: int) -> Iterable[Value]:
    if slope == 0:
        return repeat(v, hi - lo + 1)
    return range(v, v + hi - lo + 1)


def values(x: Stream, n: int) -> Iterator[Value]:
    """Coordinates 1..n, lazily and in order: the runs of ``runs`` expanded.

    Each value equals ``eval_at(x, t)`` and has its type: ranks are ints.
    """
    return chain.from_iterable(starmap(_expand, runs(x, n)))


def prefix(x: Stream, n: int) -> list[Value]:
    """Coordinates 1..n as a list, typed as ``values`` yields them."""
    return list(values(x, n))


Piece = tuple[int, int, Value, int, Value, int, bool | None]


def pair_runs(
    x: Stream, y: Stream, n: int, expected: IndexSet | None = None
) -> Iterator[Piece]:
    """The runs of x and y merged: pieces ``(lo, hi, a, sa, b, sb, inside)``.

    On a piece x_t = a + sa * (t - lo) and y_t = b + sb * (t - lo);
    ``inside`` says whether the piece lies in ``expected`` (None without
    one).  At each coordinate x is walked before y, as a zip of the two
    walks would.
    """
    xs, ys = runs(x, n), runs(y, n)
    es = segments(expected, n) if expected is not None else None
    rx = ry = (0, 0, Fraction(0), 0)
    re = (0, n if es is None else 0, None)
    t = 1
    while t <= n:
        if rx[1] < t:
            rx = next(xs)
        if ry[1] < t:
            ry = next(ys)
        if re[1] < t:
            re = next(es)
        hi = min(rx[1], ry[1], re[1])
        a = rx[2] + (t - rx[0]) if rx[3] else rx[2]
        b = ry[2] + (t - ry[0]) if ry[3] else ry[2]
        yield t, hi, a, rx[3], b, ry[3], re[2]
        t = hi + 1


def _sign_runs(d: Value, k: int, length: int) -> list[tuple[int, int, int]]:
    """``(j0, j1, sign)`` in increasing j: the ranges of [0, length) on which
    d + k*j is negative (-1), zero (0) or positive (1), for k in {-1, 0, 1}."""
    if k == 0:
        return [(0, length, (d > 0) - (d < 0))]
    root = -d * k  # d + k*j == 0 at j = root
    below = min(length, max(0, math.ceil(root)))
    above = min(length, max(0, math.floor(root) + 1))
    out = []
    if below > 0:
        out.append((0, below, -k))
    if above > below:
        out.append((below, above, 0))
    if above < length:
        out.append((above, length, k))
    return out


def scan_pair(
    x: Stream, y: Stream, h: int, expected_strict: IndexSet | None = None
) -> tuple[tuple[int, Value, Value] | None, int]:
    """Walk coordinates 1..h of x and y together.

    Returns ``(violation, strict)``.  ``violation`` is None or
    ``(t, x_t, y_t)`` for the first coordinate where x_t < y_t or, when
    ``expected_strict`` is given, where x_t > y_t disagrees with membership
    of t in that set.  ``strict`` counts the coordinates with x_t > y_t
    before the violation (through h when there is none).  Each piece of
    ``pair_runs`` is decided in closed form.
    """
    strict = 0
    for lo, hi, a, sa, b, sb, inside in pair_runs(x, y, h, expected_strict):
        for j0, j1, sign in _sign_runs(a - b, sa - sb, hi - lo + 1):
            if sign < 0 or (inside is not None and (sign > 0) != inside):
                return (lo + j0, a + sa * j0, b + sb * j0), strict
            if sign > 0:
                strict += j1 - j0
    return None, strict


def apply_permutation(x: Stream, perm: FinitePermutation) -> Stream:
    """The stream y with y[t] = x[perm(t)] (identity beyond perm.bound)."""
    if perm.bound == 0:
        return x
    return Permuted(x, perm)


# ---------------------------------------------------------------------------
# Pointwise comparison
# ---------------------------------------------------------------------------


_EMPTY_SET = Finite(())
_FULL_SET = Compl(_EMPTY_SET)

# A set bounded above this is not counted to its bound, nor is a difference
# window materialized, nor a pair counted whose sets have a longer period.
WINDOW_CAP = 1_000_000


def _regions(x: Piecewise) -> list[tuple[IndexSet, Fraction]]:
    """Clause regions plus the default region (complement of all clauses)."""
    regs = list(x.clauses)
    rest: IndexSet = _EMPTY_SET
    for s, _ in x.clauses:
        rest = Union(rest, s) if rest != _EMPTY_SET else s
    regs.append((rest.arg if isinstance(rest, Compl) else Compl(rest), x.default))
    return regs


def _inter(a: IndexSet, b: IndexSet) -> IndexSet:
    if a == b or b == _FULL_SET:
        return a
    if a == _FULL_SET:
        return b
    return Inter(a, b)


def _union(parts: list[IndexSet]) -> IndexSet:
    return reduce(Union, parts) if parts else _EMPTY_SET


def _disjoint_clauses(x: Piecewise) -> bool:
    """Whether the clause sets of x are pairwise provably disjoint."""
    cl = x.clauses
    return all(provably_disjoint(cl[i][0], cl[j][0])
               for i in range(len(cl)) for j in range(i + 1, len(cl)))


class PairAnalysis:
    """What the dominance relations ask of a pair (x, y), each part computed
    once, on first use.

    For two piecewise streams the analysis is symbolic: ``pairs`` gives the
    co-occurring region pairs, and the strict, reverse-strict and non-strict
    sets are unions of their intersections.  When the clauses of both are
    pairwise provably disjoint and of bounded period (``counted``), these
    sets also decide what a walk would: ``least`` counts and walks a set
    instead of the streams.
    For other pairs the sets are None (undecided), and ``first_strict`` and
    ``first_nonstrict`` give the first such coordinate up to the horizon,
    each from a walk that stops there.  Equal streams have the empty strict
    sets whatever their form.
    """

    def __init__(self, x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON):
        self.x, self.y, self.horizon = x, y, horizon
        self.equal = x == y

    @cached_property
    def _grid(self) -> list[tuple[IndexSet, Fraction, IndexSet, Fraction]] | None:
        """``(rx, vx, ry, vy)`` for all regions, x's outer; None unless piecewise."""
        if not (isinstance(self.x, Piecewise) and isinstance(self.y, Piecewise)):
            return None
        ys = _regions(self.y)
        return [(rx, vx, ry, vy) for rx, vx in _regions(self.x) for ry, vy in ys]

    @cached_property
    def counted(self) -> bool:
        """Whether the pair's sets stand in for a walk: two piecewise streams
        whose clauses are pairwise provably disjoint, and whose sets have a
        period of at most ``WINDOW_CAP``, so that no profile of them lists
        more residues.  Other piecewise pairs are walked, so that a lazy
        OverlapError surfaces where it did."""
        return (self._grid is not None
                and math.lcm(*(profile_period(s) for s, _ in self.x.clauses + self.y.clauses))
                <= WINDOW_CAP
                and _disjoint_clauses(self.x) and _disjoint_clauses(self.y))

    def least(self, s: IndexSet) -> int | float | None:
        """The least element of s, ``math.inf`` when s is empty, or None when
        neither is found.

        Up to the horizon, ``count``, which tables the periodic classes,
        rules out an empty prefix at once, and the lazy ``segments`` walk
        stops at the first run; where a bound cannot be evaluated it raises
        only when no element comes first, as a walk of the streams would.
        Past it, s is empty when provably so or when counted empty to a
        finiteness bound of at most ``WINDOW_CAP``; otherwise ``nth_element``
        seeks its least element when s is infinite or so bounded."""
        try:
            found = count(s, self.horizon) > 0
        except IndexSetError:
            found = True  # the walk below raises it, unless an element comes first
        if found:
            t = next((lo for lo, _, inside in segments(s, self.horizon) if inside), None)
            if t is not None:
                return t
        f = finiteness_with_density(s)
        bounded = isinstance(f, int) and f <= WINDOW_CAP
        if provably_empty(s) or bounded and count(s, f) == 0:
            return math.inf
        if f is INFINITE or bounded:
            try:
                return nth_element(s, 1)
            except (NthElementError, IndexSetError):
                pass  # not found within the search's reach
        return None

    def pairs(self, keep=lambda vx, vy: True) -> list[tuple] | None:
        """The co-occurring region pairs ``(rx, vx, ry, vy)`` whose values
        satisfy ``keep``: those that ``provably_disjoint`` does not reject."""
        if self._grid is None:
            return None
        return [p for p in self._grid if keep(p[1], p[3]) and not provably_disjoint(p[0], p[2])]

    def _region_set(self, keep) -> IndexSet | None:
        pairs = self.pairs(keep)
        return None if pairs is None else _union([_inter(rx, ry) for rx, _, ry, _ in pairs])

    @cached_property
    def strict(self) -> IndexSet | None:
        """{t : x_t > y_t}."""
        return _EMPTY_SET if self.equal else self._region_set(lambda a, b: a > b)

    @cached_property
    def nonstrict(self) -> IndexSet | None:
        """{t : x_t <= y_t}."""
        return _FULL_SET if self.equal else self._region_set(lambda a, b: a <= b)

    @cached_property
    def reverse(self) -> IndexSet | None:
        """{t : y_t > x_t}, nested with y's regions outer, as the strict set
        of (y, x) is."""
        pairs = None if self.equal else self.pairs(lambda a, b: a < b)
        if pairs is None:
            return self.strict
        # y's regions are its clause sets, in order, and then its default region.
        rank = {id(s): j for j, (s, _) in enumerate(self.y.clauses)}
        pairs.sort(key=lambda p: rank.get(id(p[2]), len(rank)))
        return _union([_inter(ry, rx) for rx, _, ry, _ in pairs])

    @cached_property
    def weak(self) -> RelationVerdict:
        """Whether x_t >= y_t for all t: structural proof, counted or scanned
        counterexample, or undecided at the horizon."""
        x, y = self.x, self.y
        if self.equal:
            return verdicts.holds(note="streams are structurally equal")
        if self._grid is not None:
            # Only pairs with vx < vy need a disjointness proof; stop at the first without.
            if not any(vx < vy and not provably_disjoint(rx, ry) for rx, vx, ry, vy in self._grid):
                return verdicts.holds(
                    note="every co-occurring region pair satisfies the value inequality")
        elif isinstance(x, RankFill) and isinstance(y, RankFill):
            if x.fill_on == y.fill_on and x.fill >= y.fill:
                return verdicts.holds(note="same rank structure with a fill gap")
        if self.counted:
            t = self.least(self.reverse)
            if t == math.inf:
                return verdicts.holds(note="the reverse strict set is empty")
            if t is not None:
                return verdicts.fails(counterexample=t)
        else:
            violation, _ = scan_pair(x, y, self.horizon)
            if violation:
                return verdicts.fails(counterexample=violation[0])
        return verdicts.undecided(
            horizon=self.horizon, note="no counterexample scanned and no structural proof"
        )

    @cached_property
    def first_strict(self) -> int | None:
        """The first t <= horizon with x_t > y_t: the first violation of y >= x."""
        violation, _ = scan_pair(self.y, self.x, self.horizon)
        return violation[0] if violation else None

    @cached_property
    def first_nonstrict(self) -> int | None:
        """The first t <= horizon with x_t <= y_t: the first non-strict one."""
        violation, _ = scan_pair(self.x, self.y, self.horizon, expected_strict=NAT)
        return violation[0] if violation else None


def strict_set(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> IndexSet | None:
    """The symbolic set {t : x[t] > y[t]}, or None when undecided."""
    return PairAnalysis(x, y, horizon).strict


def nonstrict_set(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> IndexSet | None:
    """The symbolic set {t : x[t] <= y[t]}, or None when undecided."""
    return PairAnalysis(x, y, horizon).nonstrict


def weakly_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """Whether x[t] >= y[t] for all t: structural proof, scan counterexample,
    or undecided at the horizon."""
    return PairAnalysis(x, y, horizon).weak

