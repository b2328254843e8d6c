"""The dominance-predicate hierarchy on utility streams.

Eight strict dominance predicates ordered by how demanding their premise
is: uniform implies weak implies almost-weak implies density-one implies
lower-asymptotic implies upper-asymptotic implies infinite implies plain
dominance.  Every predicate first requires coordinatewise weak dominance
and then its own condition on the set of strictly improved coordinates.
Also here: the grading-principle comparison, the lexicographic order, and
anonymity equivalence under finite permutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import verdicts
from .densities import contains_long_intervals, density, exact_density
from .indexsets import (
    INFINITE,
    Diff,
    Finite,
    Inter,
    Union,
    count,
    elements_up_to,
    finiteness,
    is_finite,
    nth_element,
    periodic_profile,
    provably_empty,
    provably_nonempty,
)
from .streams import (
    DEFAULT_HORIZON,
    PairAnalysis,
    RankFill,
    Stream,
    _inter,
    eval_at,
    pair_runs,
    prefix,
    scan_pair,
)
from .verdicts import RelationVerdict, Status

__all__ = [
    "pareto_dominates",
    "infinite_pareto_dominates",
    "upper_asym_dominates",
    "lower_asym_dominates",
    "density_one_dominates",
    "almost_weak_dominates",
    "weak_pareto_dominates",
    "uniform_dominates",
    "suppes_sen_compare",
    "lex_compare",
    "anonymity_equivalent",
    "implication_chain_report",
    "ChainReport",
    "CHAIN_ORDER",
    "DOMINANCE_PREDICATES",
]


# Difference windows above this bound are not materialized.
_WINDOW_CAP = 1_000_000


def _finiteness(s):
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
    if isinstance(s, Union) and INFINITE in (_finiteness(s.left), _finiteness(s.right)):
        return INFINITE
    return None


def _gate(name: str, a: PairAnalysis) -> RelationVerdict:
    """Predicate ``name`` on the pair behind the common precondition x >= y:
    its failure is the verdict, and a Holds stands only where weak dominance
    is proven."""
    weak = a.weak
    if weak.status is Status.FAILS:
        return weak
    v = _RULES[name](a)
    if v.holds and not weak.holds:
        return verdicts.undecided(
            horizon=a.horizon,
            note="strict-set condition met but weak dominance is unproven beyond the horizon",
        )
    return v


def _witnessed(s) -> RelationVerdict:
    return verdicts.holds(witness_set=s, witness_density=density(s))


def _pareto(a: PairAnalysis) -> RelationVerdict:
    s = a.strict
    if s is None:
        t = a.first_strict
        if t is None:
            return verdicts.undecided(horizon=a.horizon, note="no strict coordinate scanned")
        return verdicts.holds(witness_set=Finite((t,)), note=f"strict at t={t} (scan)")
    if _finiteness(s) is INFINITE or provably_nonempty(s, a.horizon):
        return _witnessed(s)
    if provably_empty(s):
        return verdicts.fails(note="strict set is provably empty")
    return verdicts.undecided(horizon=a.horizon, note="strict set not provably nonempty")


def _infinite(a: PairAnalysis) -> RelationVerdict:
    s = a.strict
    if s is None:
        return verdicts.undecided(horizon=a.horizon, note="infinitude is not scan-decidable")
    f = _finiteness(s)
    if f is INFINITE:
        return _witnessed(s)
    if f is not None:
        return verdicts.fails(note="strict set is structurally finite")
    return verdicts.undecided(horizon=a.horizon, note="infinitude of the strict set is undecided")


def _by_density(check, what: str):
    def rule(a: PairAnalysis) -> RelationVerdict:
        s = a.strict
        if s is None:
            return verdicts.undecided(horizon=a.horizon, note="density is not scan-decidable")
        d = density(s)
        if not d.exact:
            return verdicts.undecided(
                horizon=a.horizon, note="strict set is outside the exact-density fragment"
            )
        if check(d):
            return verdicts.holds(witness_set=s, witness_density=d)
        return verdicts.fails(note=f"strict set has {what} (exact)")

    return rule


def _almost_weak(a: PairAnalysis) -> RelationVerdict:
    ns = a.nonstrict
    if ns is None:
        return verdicts.undecided(horizon=a.horizon, note="cofiniteness is not scan-decidable")
    f = _finiteness(ns)
    if isinstance(f, int):
        return _witnessed(a.strict)
    if f is INFINITE:
        return verdicts.fails(note="infinitely many coordinates are not strictly improved")
    return verdicts.undecided(horizon=a.horizon, note="cofiniteness of the strict set is undecided")


def _weak(a: PairAnalysis) -> RelationVerdict:
    ns = a.nonstrict
    if ns is None:
        t = a.first_nonstrict
        if t is not None:
            return verdicts.fails(counterexample=t)
        return verdicts.undecided(horizon=a.horizon, note="all scanned coordinates strict")
    if provably_empty(ns):
        return _witnessed(a.strict)
    if count(ns, a.horizon) > 0:
        return verdicts.fails(counterexample=nth_element(ns, 1))
    return verdicts.undecided(horizon=a.horizon, note="no non-strict coordinate exhibited")


def _uniform(a: PairAnalysis) -> RelationVerdict:
    if a.equal:
        return verdicts.fails(counterexample=1, note="identical streams have zero gap")
    pairs = a.pairs()
    if pairs is None:
        # x >= y through the horizon here, so the first non-strict coordinate is a zero gap.
        t = a.first_nonstrict
        if t is not None:
            return verdicts.fails(counterexample=t)
        return verdicts.undecided(horizon=a.horizon, note="positive gaps scanned, infimum unproven")
    gaps = [vx - vy for _, vx, _, vy in pairs]
    if gaps and min(gaps) > 0:
        return verdicts.holds(note=f"minimum clause gap {min(gaps)}")
    for rx, vx, ry, vy in pairs:
        if vx <= vy:
            inter = _inter(rx, ry)
            if count(inter, a.horizon) > 0:
                return verdicts.fails(counterexample=nth_element(inter, 1))
    return verdicts.undecided(horizon=a.horizon, note="zero-gap clause pair, emptiness unproven")


# The eight predicates, strongest premise first: each is a condition on the
# pair analysis behind the one weak gate.
_RULES = {
    "uniform": _uniform,
    "weak": _weak,
    "almost_weak": _almost_weak,
    "density_one": _by_density(lambda d: d.lower == 1 and d.upper == 1, "density below one"),
    "lower": _by_density(lambda d: d.lower > 0, "lower density 0"),
    "upper": _by_density(lambda d: d.upper > 0, "upper density 0"),
    "infinite": _infinite,
    "pareto": _pareto,
}


def pareto_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y with at least one strictly improved coordinate."""
    return _gate("pareto", PairAnalysis(x, y, horizon))


def infinite_pareto_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y with infinitely many strictly improved coordinates."""
    return _gate("infinite", PairAnalysis(x, y, horizon))


def upper_asym_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y and the strict set has positive upper asymptotic density."""
    return _gate("upper", PairAnalysis(x, y, horizon))


def lower_asym_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y and the strict set has positive lower asymptotic density."""
    return _gate("lower", PairAnalysis(x, y, horizon))


def density_one_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y and the strict set has asymptotic density exactly one."""
    return _gate("density_one", PairAnalysis(x, y, horizon))


def almost_weak_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y with all but finitely many coordinates strictly improved."""
    return _gate("almost_weak", PairAnalysis(x, y, horizon))


def weak_pareto_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """Every coordinate strictly improved."""
    return _gate("weak", PairAnalysis(x, y, horizon))


def uniform_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """inf over t of (x[t] - y[t]) is strictly positive."""
    return _gate("uniform", PairAnalysis(x, y, horizon))


# ---------------------------------------------------------------------------
# Grading principle, lexicographic order, anonymity
# ---------------------------------------------------------------------------


def _sorted_dominates(xs: list, ys: list) -> bool:
    """Sorted-descending componentwise dominance of equal-length value lists."""
    return all(a >= b for a, b in zip(sorted(xs, reverse=True), sorted(ys, reverse=True)))


def suppes_sen_compare(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """Whether some finite permutation of x weakly dominates y.

    Decided for pairs whose difference set is structurally finite (sorted
    values of x on the window must dominate sorted values of y) and for
    pairs whose reverse strict set is structurally infinite (impossible:
    a finite permutation leaves infinitely many descents in place).
    """
    if x == y:
        return verdicts.holds(note="identity permutation")
    a = PairAnalysis(x, y, horizon)
    sxy, syx = a.strict, a.reverse
    if sxy is None:
        return verdicts.undecided(horizon=horizon, note="difference structure not derivable")
    fxy, fyx = _finiteness(sxy), _finiteness(syx)
    if fyx is INFINITE:
        if fxy is INFINITE:
            return verdicts.incomparable(note="both strict sets are infinite")
        return verdicts.fails(note="y exceeds x on an infinite set")
    if fyx is None:
        return verdicts.undecided(horizon=horizon, note="reverse strict set finiteness undecided")
    # Finitely many descents.  A window containing all of them decides the
    # query: appending coordinates with equal values never changes sorted
    # dominance, and coordinates beyond the window satisfy x >= y.
    if isinstance(fxy, int):
        bound = max(fxy, fyx)
        if bound > _WINDOW_CAP:
            return verdicts.undecided(
                horizon=horizon, note=f"difference window bound {bound} too large to materialize"
            )
        window = elements_up_to(Union(sxy, syx), bound)
        if not window:
            return verdicts.holds(note="identity permutation")
        xs = [eval_at(x, t) for t in window]
        ys = [eval_at(y, t) for t in window]
        if _sorted_dominates(xs, ys):
            return verdicts.holds(witness_set=Finite(tuple(window)),
                                  note="sorted-window dominance")
        if _sorted_dominates(ys, xs):
            return verdicts.fails(note="only the reverse direction holds on the window")
        return verdicts.incomparable(note="neither sorted window dominates")
    # x exceeds y infinitely often while descents are finite: search growing
    # prefixes for a dominating rearrangement.
    b = max(fyx, 1)
    while b <= horizon:
        xs = prefix(x, b)
        ys = prefix(y, b)
        if _sorted_dominates(xs, ys):
            return verdicts.holds(note=f"sorted-prefix dominance at bound {b}")
        b *= 2
    return verdicts.undecided(horizon=horizon, note="no dominating prefix found")


def lex_compare(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """Strictly-above in the lexicographic order, scanning to the horizon."""
    violation, _ = scan_pair(x, y, horizon, expected_strict=Finite(()))
    if violation:
        t, xt, yt = violation
        if xt > yt:
            return verdicts.holds(witness_set=Finite((t,)), note=f"first difference at t={t}")
        return verdicts.fails(counterexample=t)
    if x == y:
        return verdicts.fails(note="streams are structurally equal")
    return verdicts.undecided(horizon=horizon, note="no difference below the horizon")


def anonymity_equivalent(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> bool:
    """Whether y equals x composed with some finite permutation.

    Decided by multiset equality on the differing window plus tail
    equality.  When both strict sets are structurally finite, the scan
    reaches their bound and the answer is exact.  Otherwise it is relative
    to the scan horizon: True requires the scanned difference window to be
    multiset-balanced and the streams to agree beyond it up to the horizon.
    """
    if x == y:
        return True
    if isinstance(x, RankFill) and isinstance(y, RankFill):
        # Off V, y_t is a strictly increasing rank, so it differs from x's fill
        # at all but one coordinate of U \ V; and symmetrically.
        u, v = x.fill_on, y.fill_on
        if is_finite(Diff(u, v)) is False or is_finite(Diff(v, u)) is False:
            return False
    a = PairAnalysis(x, y, horizon)
    if a.strict is not None:
        bounds = (_finiteness(a.strict), _finiteness(a.reverse))
        if INFINITE in bounds:
            return False
        if None not in bounds and max(bounds) <= _WINDOW_CAP:
            horizon = max(horizon, *bounds)  # the streams agree beyond the bounds
    # The balance is the value histogram of x minus that of y through the
    # horizon: equal coordinates cancel, so it is zero exactly when the
    # values at differing coordinates balance.  A constant piece adds its
    # length at one value; a rank piece adds one across a range of values.
    points: Counter = Counter()
    ranks: Counter = Counter()
    for lo, hi, a, sa, b, sb, _ in pair_runs(x, y, horizon):
        length = hi - lo + 1
        for v, slope, sign in ((a, sa, 1), (b, sb, -1)):
            if slope:
                ranks[v] += sign
                ranks[v + length] -= sign
            else:
                points[v] += sign * length
    distinct = len(points)
    cover, prev = 0, None
    for v in sorted(ranks):
        if cover:
            if v - prev > distinct:
                return False  # some value in [prev, v) has no constant mass to cancel
            for u in range(prev, v):
                points[u] += cover
        cover += ranks[v]
        prev = v
    return not any(points.values())


# ---------------------------------------------------------------------------
# The implication chain
# ---------------------------------------------------------------------------

CHAIN_ORDER = tuple(_RULES)

DOMINANCE_PREDICATES = {
    "pareto": pareto_dominates,
    "infinite": infinite_pareto_dominates,
    "upper": upper_asym_dominates,
    "lower": lower_asym_dominates,
    "density_one": density_one_dominates,
    "almost_weak": almost_weak_dominates,
    "weak": weak_pareto_dominates,
    "uniform": uniform_dominates,
}


@dataclass(frozen=True)
class ChainReport:
    """Verdicts for all eight predicates, strongest premise first."""

    entries: tuple[tuple[str, RelationVerdict], ...]
    violations: tuple[tuple[str, str], ...]

    @property
    def consistent(self) -> bool:
        return not self.violations


def implication_chain_report(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> ChainReport:
    """Evaluate the whole hierarchy and check monotonicity of the verdicts.

    A violation pairs a stronger predicate that holds with a weaker one
    that fails; on decidable strict sets none can occur.
    """
    a = PairAnalysis(x, y, horizon)
    entries = tuple((name, _gate(name, a)) for name in CHAIN_ORDER)
    violations = []
    for i in range(len(entries)):
        if entries[i][1].status is not Status.HOLDS:
            continue
        for j in range(i + 1, len(entries)):
            if entries[j][1].status is Status.FAILS:
                violations.append((entries[i][0], entries[j][0]))
    return ChainReport(entries=entries, violations=tuple(violations))
