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
    NAT,
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
    provably_disjoint,
    provably_empty,
    provably_nonempty,
)
from .streams import (
    DEFAULT_HORIZON,
    Piecewise,
    RankFill,
    Stream,
    Undecided,
    _regions,
    eval_at,
    nonstrict_set,
    pair_runs,
    prefix,
    scan_pair,
    strict_set,
    weakly_dominates,
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


def _weak_gate(x: Stream, y: Stream, horizon: int):
    """Common precondition x >= y; a scan counterexample short-circuits."""
    w = weakly_dominates(x, y, horizon)
    if w.status is Status.FAILS:
        return w, None
    return w, strict_set(x, y, horizon)


def _gated(weak: RelationVerdict, strict_verdict: RelationVerdict, horizon: int) -> RelationVerdict:
    """Cap a Holds at Undecided when weak dominance is itself unproven."""
    if strict_verdict.status is Status.HOLDS and not weak.holds:
        return verdicts.undecided(
            horizon=horizon,
            note="strict-set condition met but weak dominance is unproven beyond the horizon",
        )
    return strict_verdict


def pareto_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y with at least one strictly improved coordinate."""
    weak, s = _weak_gate(x, y, horizon)
    if s is None:
        return weak
    if isinstance(s, Undecided):
        if s.witnesses:
            v = verdicts.holds(
                witness_set=Finite((s.witnesses[0],)),
                note=f"strict at t={s.witnesses[0]} (scan)",
            )
            return _gated(weak, v, horizon)
        return verdicts.undecided(horizon=horizon, note="no strict coordinate scanned")
    if _finiteness(s) is INFINITE or provably_nonempty(s, horizon):
        return _gated(weak, verdicts.holds(witness_set=s, witness_density=density(s)), horizon)
    if provably_empty(s):
        return verdicts.fails(note="strict set is provably empty")
    return verdicts.undecided(horizon=horizon, note="strict set not provably nonempty")


def infinite_pareto_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y with infinitely many strictly improved coordinates."""
    weak, s = _weak_gate(x, y, horizon)
    if s is None:
        return weak
    if isinstance(s, Undecided):
        return verdicts.undecided(horizon=horizon, note="infinitude is not scan-decidable")
    f = _finiteness(s)
    if f is INFINITE:
        return _gated(weak, verdicts.holds(witness_set=s, witness_density=density(s)), horizon)
    if f is not None:
        return verdicts.fails(note="strict set is structurally finite")
    return verdicts.undecided(horizon=horizon, note="infinitude of the strict set is undecided")


def _density_predicate(x, y, horizon, check, what):
    weak, s = _weak_gate(x, y, horizon)
    if s is None:
        return weak
    if isinstance(s, Undecided):
        return verdicts.undecided(horizon=horizon, note="density is not scan-decidable")
    d = density(s)
    if not d.exact:
        return verdicts.undecided(
            horizon=horizon, note="strict set is outside the exact-density fragment"
        )
    if check(d):
        return _gated(weak, verdicts.holds(witness_set=s, witness_density=d), horizon)
    return verdicts.fails(note=f"strict set has {what} (exact)")


def upper_asym_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y and the strict set has positive upper asymptotic density."""
    return _density_predicate(x, y, horizon, lambda d: d.upper > 0, "upper density 0")


def lower_asym_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y and the strict set has positive lower asymptotic density."""
    return _density_predicate(x, y, horizon, lambda d: d.lower > 0, "lower density 0")


def density_one_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y and the strict set has asymptotic density exactly one."""
    return _density_predicate(
        x, y, horizon, lambda d: d.lower == 1 and d.upper == 1, "density below one"
    )


def almost_weak_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """x >= y with all but finitely many coordinates strictly improved."""
    weak = weakly_dominates(x, y, horizon)
    if weak.status is Status.FAILS:
        return weak
    ns = nonstrict_set(x, y, horizon)
    if isinstance(ns, Undecided):
        return verdicts.undecided(horizon=horizon, note="cofiniteness is not scan-decidable")
    f = _finiteness(ns)
    if isinstance(f, int):
        s = strict_set(x, y, horizon)
        return _gated(weak, verdicts.holds(witness_set=s, witness_density=density(s)), horizon)
    if f is INFINITE:
        return verdicts.fails(note="infinitely many coordinates are not strictly improved")
    return verdicts.undecided(horizon=horizon, note="cofiniteness of the strict set is undecided")


def weak_pareto_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """Every coordinate strictly improved."""
    weak = weakly_dominates(x, y, horizon)
    if weak.status is Status.FAILS:
        return weak
    ns = nonstrict_set(x, y, horizon)
    if isinstance(ns, Undecided):
        if ns.witnesses:
            return verdicts.fails(counterexample=ns.witnesses[0])
        return verdicts.undecided(horizon=horizon, note="all scanned coordinates strict")
    if provably_empty(ns):
        s = strict_set(x, y, horizon)
        return _gated(weak, verdicts.holds(witness_set=s, witness_density=density(s)), horizon)
    if count(ns, horizon) > 0:
        return verdicts.fails(counterexample=nth_element(ns, 1))
    return verdicts.undecided(horizon=horizon, note="no non-strict coordinate exhibited")


def uniform_dominates(x: Stream, y: Stream, horizon: int = DEFAULT_HORIZON) -> RelationVerdict:
    """inf over t of (x[t] - y[t]) is strictly positive."""
    weak = weakly_dominates(x, y, horizon)
    if weak.status is Status.FAILS:
        return weak
    if x == y:
        return verdicts.fails(counterexample=1, note="identical streams have zero gap")
    if isinstance(x, Piecewise) and isinstance(y, Piecewise):
        gaps = []
        for rx, vx in _regions(x):
            for ry, vy in _regions(y):
                if not provably_disjoint(rx, ry):
                    gaps.append((vx - vy, rx, ry))
        if gaps and all(g > 0 for g, _, _ in gaps):
            if weak.holds:
                return verdicts.holds(note=f"minimum clause gap {min(g for g, _, _ in gaps)}")
            return verdicts.undecided(horizon=horizon, note="weak dominance unproven")
        for g, rx, ry in gaps:
            if g <= 0:
                inter = _inter_of(rx, ry)
                if count(inter, horizon) > 0:
                    return verdicts.fails(counterexample=nth_element(inter, 1))
        return verdicts.undecided(horizon=horizon, note="zero-gap clause pair, emptiness unproven")
    # x >= y through the horizon here, so the first non-strict coordinate is a zero gap.
    violation, _ = scan_pair(x, y, horizon, expected_strict=NAT)
    if violation:
        return verdicts.fails(counterexample=violation[0])
    return verdicts.undecided(horizon=horizon, note="positive gaps scanned, infimum unproven")


def _inter_of(a, b):
    if a == b:
        return a
    return Inter(a, b)


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
    sxy = strict_set(x, y, horizon)
    syx = strict_set(y, x, horizon)
    if isinstance(sxy, Undecided) or isinstance(syx, Undecided):
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
    sxy = strict_set(x, y, horizon)
    syx = strict_set(y, x, horizon)
    if not isinstance(sxy, Undecided) and not isinstance(syx, Undecided):
        bounds = (_finiteness(sxy), _finiteness(syx))
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

CHAIN_ORDER = (
    "uniform",
    "weak",
    "almost_weak",
    "density_one",
    "lower",
    "upper",
    "infinite",
    "pareto",
)

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
    entries = tuple(
        (name, DOMINANCE_PREDICATES[name](x, y, horizon)) for name in CHAIN_ORDER
    )
    violations = []
    for i in range(len(entries)):
        if entries[i][1].status is not Status.HOLDS:
            continue
        for j in range(i + 1, len(entries)):
            if entries[j][1].status is Status.FAILS:
                violations.append((entries[i][0], entries[j][0]))
    return ChainReport(entries=entries, violations=tuple(violations))
