import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.dsl import parse_stream
from densitylab.indexsets import (
    NAT,
    ArithProg,
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    Inter,
    Interval,
    Union,
    periodic_profile,
)
from densitylab.streams import (
    FinitePermutation,
    Permuted,
    Piecewise,
    RankFill,
    apply_permutation,
    constant,
    prefix,
)
from densitylab.welfare import (
    Ordering,
    SwfError,
    SwfValue,
    cesaro_liminf,
    discounted_sum,
    induced_compare,
    liminf_swf,
    min_swf,
)
from densitylab.verification import (
    membership_bits,
    membership_mask,
    random_chain_pair,
    random_periodic_set,
)

FACTS = FactorialPoints(NAT)
EVENS_INDICATOR = Piecewise(0, ((ArithProg(2, 2), Fraction(1)),))


# -- Cesàro liminf -------------------------------------------------------------


def test_cesaro_of_constant():
    assert cesaro_liminf(constant(Fraction(7, 3))) == SwfValue.finite(Fraction(7, 3))


def test_cesaro_of_alternating_indicator():
    assert cesaro_liminf(EVENS_INDICATOR) == SwfValue.finite(Fraction(1, 2))
    # oracle: the partial average at every even checkpoint is exactly 1/2
    for n in (2, 10, 720):
        assert sum(prefix(EVENS_INDICATOR, n)) / n == Fraction(1, 2)


def test_cesaro_divergence_for_sparse_fill():
    x = RankFill(Diff(FACTS, Finite((1,))))
    v = cesaro_liminf(x)
    assert v.kind == "plus_infinity"
    n = 5040
    assert sum(prefix(x, n)) / n > Fraction(n, 4)


def test_cesaro_interval_estimate_for_unresolved_streams():
    x = Piecewise(0, ((FACTS, Fraction(3)),))
    # periodic profile exists for no clause, and the stream is not rank-fill
    v = cesaro_liminf(x)
    assert v.kind == "finite" or v.kind == "interval"


def test_cesaro_partial_averages_approach_exact_value():
    # |sum(x, 1..n)/n - mean| <= C/n at factorial checkpoints: a clause set
    # with profile p counts within p.start + p.period of n * density, and
    # its term in the average is weighted by |v - default|.
    x = Piecewise(Fraction(1, 3), ((ArithProg(2, 4), Fraction(2)), (ArithProg(3, 4), Fraction(1)),))
    mean = cesaro_liminf(x).value
    c_bound = 0
    for s, v in x.clauses:
        p = periodic_profile(s)
        c_bound += abs(v - x.default) * (p.start + p.period)
    for k in range(3, 9):
        n = math.factorial(k)
        total = Fraction(x.default) * n
        for s, v in x.clauses:
            total += (v - x.default) * int(membership_mask(s, n).sum())
        assert abs(total / n - mean) <= c_bound / n


def test_cesaro_ignores_finite_permutations():
    rng = random.Random(5)
    base = Piecewise(1, ((ArithProg(3, 4), Fraction(5)),))
    for _ in range(30):
        n = rng.randint(1, 50)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        pi = FinitePermutation(n, tuple(images))
        assert cesaro_liminf(apply_permutation(base, pi)) == cesaro_liminf(base)


def test_cesaro_strictly_sensitive_to_cofinite_gains():
    y = Piecewise(1, ((ArithProg(2, 2), Fraction(2)),))
    x = Piecewise(
        Fraction(3, 2),
        ((Diff(ArithProg(2, 2), Finite((4,))), Fraction(5, 2)), (Finite((4,)), Fraction(2))),
    )
    wx, wy = cesaro_liminf(x), cesaro_liminf(y)
    assert wx.value - wy.value == Fraction(1, 2)


def _leaves(s):
    if isinstance(s, Compl):
        return _leaves(s.arg)
    if isinstance(s, (Union, Inter, Diff)):
        return _leaves(s.left) + _leaves(s.right)
    return [s]


def test_exact_cesaro_of_factorial_chain_streams_is_the_window_mean():
    # On [5041, 37800] these streams are periodic with a period dividing
    # 2520 (no factorial lies there), so the window mean is the value.
    lo, hi = 5041, 37800
    rng = random.Random(24)
    checked = 0
    for _ in range(150):
        for x in random_chain_pair(rng):
            leaves = [a for s, _ in x.clauses for a in _leaves(s)]
            if not any(isinstance(a, FactorialPoints) for a in leaves) or any(
                    isinstance(a, FactorialIntervals) for a in leaves):
                continue
            width = hi - lo + 1
            total = x.default * width + sum(
                (v - x.default) * (membership_bits(s, hi) >> (lo - 1)).bit_count()
                for s, v in x.clauses)
            assert cesaro_liminf(x) == SwfValue.finite(total / width), x
            checked += 1
    assert checked >= 30


def test_cesaro_orderings_that_estimates_once_decided():
    # Left value +inf: the complement of the fill set has density 1/2.
    assert induced_compare("cesaro", parse_stream("rankfill(ap(1,2))"),
                           constant(100000)) is Ordering.ABOVE
    # Both values 2: the factorials have density 0.
    assert induced_compare("cesaro", parse_stream("piecewise(default=2;factorials(nat):3)"),
                           constant(2)) is Ordering.EQUIVALENT
    # Both values are 1, but only an estimate is known for the left one.
    assert induced_compare("cesaro", parse_stream("rankfill(compl(factorials(nat)))"),
                           constant(1)) is Ordering.UNDECIDED


def test_cesaro_of_a_clause_without_a_density_limit():
    # The family has lower density 0 and upper density 1: a gain counts its
    # lower density, a loss its upper one.
    family = "fintervals[((2k-1)!,(2k)!)]"
    assert cesaro_liminf(parse_stream(f"piecewise(default=1;{family}:3)")) == SwfValue.finite(1)
    assert cesaro_liminf(parse_stream(f"piecewise(default=1;{family}:-1)")) == SwfValue.finite(-1)
    # Two such terms: the liminf of their sum is not the sum of their liminfs.
    both = parse_stream(f"piecewise(default=0;{family}:1;compl({family}):2)")
    assert cesaro_liminf(both).kind == "interval"


def _reference_profile(x):
    """(period, start, values) with x_t = values[t % period] for t >= start:
    one value per residue of the lcm of the clause periods."""
    if isinstance(x, Permuted):
        period, start, values = _reference_profile(x.base)
        return period, max(start, x.perm.bound + 1), values
    profiles = [periodic_profile(s) for s, _ in x.clauses]
    period = math.lcm(1, *(p.period for p in profiles))
    start = max((p.start for p in profiles), default=1)
    values = [next((v for p, (_, v) in zip(profiles, x.clauses) if r % p.period in p.residues),
                   x.default) for r in range(period)]
    return period, start, values


def _random_periodic_stream(rng):
    clauses, used = [], Finite(())
    for _ in range(rng.randint(0, 3)):
        s = random_periodic_set(rng)
        clauses.append((Diff(s, used), Fraction(rng.randint(-4, 4), rng.choice((1, 2)))))
        used = Union(used, s)
    return Piecewise(rng.randint(-3, 3), clauses)


def test_values_match_a_reference_listing_one_value_per_residue():
    rng = random.Random(7)
    streams = [Piecewise(0, ((ArithProg(2, 2), Fraction(1)),)),
               Piecewise(3, ((ArithProg(1, 4), Fraction(1)), (Interval(2, 4), Fraction(0))))]
    streams += [_random_periodic_stream(rng) for _ in range(60)]
    for x in streams:
        n = rng.randint(1, 30)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        for z in (x, apply_permutation(x, FinitePermutation(n, tuple(images)))):
            period, start, values = _reference_profile(z)
            assert cesaro_liminf(z) == SwfValue.finite(Fraction(sum(values), period)), z
            assert liminf_swf(z) == SwfValue.finite(min(values)), z
            for delta in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
                head = sum(delta ** (t - 1) * v for t, v in enumerate(prefix(z, start - 1), 1))
                cycle = sum(delta ** (start - 1 + i) * values[(start + i) % period]
                            for i in range(period))
                want = head + cycle / (1 - delta**period)
                assert discounted_sum(z, delta) == SwfValue.finite(want), (z, delta)


# -- discounted sum ---------------------------------------------------------------


def test_discounted_sum_of_constant():
    assert discounted_sum(constant(1), Fraction(1, 2)) == SwfValue.finite(2)


def test_discounted_sum_single_spike():
    x = Piecewise(0, ((Finite((1,)), Fraction(1)),))
    assert discounted_sum(x, Fraction(1, 2)) == SwfValue.finite(1)


def test_discounted_sum_alternating():
    x = Piecewise(0, ((ArithProg(1, 2), Fraction(1)),))
    assert discounted_sum(x, Fraction(1, 2)) == SwfValue.finite(Fraction(4, 3))


def test_discounted_sum_periodic_matches_truncation():
    x = Piecewise(Fraction(1, 3), ((ArithProg(2, 3), Fraction(2)),))
    delta = Fraction(2, 5)
    exact = discounted_sum(x, delta).value
    partial = sum(delta ** (t - 1) * v for t, v in enumerate(prefix(x, 80), start=1))
    assert abs(exact - partial) < Fraction(1, 10**20)


def test_discounted_sum_bounded_nonperiodic_interval():
    x = Piecewise(0, ((FACTS, Fraction(1)),))
    tol = Fraction(1, 10**6)
    v = discounted_sum(x, Fraction(1, 2), tol=tol)
    assert v.kind == "interval" and v.hi - v.lo <= tol
    series = sum(Fraction(1, 2) ** (f - 1) for f in (1, 2, 6, 24, 120, 720))
    assert v.lo <= series <= v.hi


def test_discounted_sum_of_rank_fill_encloses_the_series():
    # Ranks are unbounded but grow at most linearly, so the series converges.
    # The interval must contain the enclosure from a brute-force partial sum
    # to N (ranks from membership_mask) and that sum's tail bound: on t > N
    # the values lie in [min(fill, 2), max(fill, t + 1)].
    tol = Fraction(1, 10**9)
    for x in (RankFill(FACTS), RankFill(ArithProg(1, 2)),
              RankFill(ArithProg(1, 2), Fraction(5, 2)), RankFill(Compl(FACTS), Fraction(-3))):
        for delta in (Fraction(1, 2), Fraction(9, 10)):
            v = discounted_sum(x, delta, tol=tol)
            assert v.kind == "interval" and v.hi - v.lo <= tol
            n = 800
            mask = membership_mask(x.fill_on, n)
            ranks = np.cumsum(~mask) + 1
            partial = sum(delta ** (t - 1) * (x.fill if m else int(r))
                          for t, (m, r) in enumerate(zip(mask, ranks), 1))
            geo = 1 / (1 - delta)
            tail_lo = min(x.fill, 2) * delta**n * geo
            # sum over t > n of delta^(t-1) * (t + 1), with fill <= n + 2
            tail_hi = delta**n * ((n + 2) * geo + delta * geo**2)
            assert v.lo <= partial + tail_lo < partial + tail_hi <= v.hi, (x, delta)


def test_discounted_sum_rejects_unbounded_streams():
    # A permuted rank-fill still has no structural tail bound.
    with pytest.raises(SwfError):
        discounted_sum(apply_permutation(RankFill(FACTS), FinitePermutation.swap(1, 3)),
                       Fraction(1, 2))


def test_discounted_sum_validates_delta():
    with pytest.raises(SwfError):
        discounted_sum(constant(1), Fraction(3, 2))


@given(
    st.fractions(min_value=0, max_value=3),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
)
@settings(max_examples=40, deadline=None)
def test_discounted_sum_of_constant_closed_form(c, delta):
    assert discounted_sum(constant(c), delta) == SwfValue.finite(c / (1 - delta))


def test_discounted_sum_strict_monotonicity():
    rng = random.Random(9)
    for _ in range(25):
        d = rng.choice((2, 3, 4))
        clauses = tuple(
            (ArithProg(r, d), Fraction(rng.randint(0, 4))) for r in range(1, d)
        )
        y = Piecewise(Fraction(rng.randint(0, 2)), clauses)
        bump = Finite((rng.randint(1, 30),))
        x = Piecewise(
            y.default,
            tuple((Diff(s, bump), v) for s, v in clauses)
            + ((bump, Fraction(10)),),
        )
        delta = Fraction(rng.randint(1, 8), 10)
        from densitylab.streams import eval_at

        t0 = bump.elements[0]
        if eval_at(x, t0) > eval_at(y, t0):
            assert discounted_sum(x, delta).value > discounted_sum(y, delta).value


# -- min and liminf -----------------------------------------------------------------


def test_min_and_liminf_of_constant():
    c = constant(5)
    assert min_swf(c) == SwfValue.finite(5)
    assert liminf_swf(c) == SwfValue.finite(5)


def test_min_and_liminf_of_infinite_rank_fill():
    x = RankFill(Diff(FACTS, Finite((1,))))
    assert min_swf(x) == SwfValue.finite(1)
    assert liminf_swf(x) == SwfValue.finite(1)


def test_truncated_fill_set_forces_divergent_liminf():
    x = RankFill(FactorialPoints(Finite((1, 2, 3))))
    assert min_swf(x) == SwfValue.finite(1)
    assert liminf_swf(x).kind == "plus_infinity"


def test_finite_exception_moves_min_not_liminf():
    x = Piecewise(3, ((Finite((1,)), Fraction(1)),))
    assert min_swf(x) == SwfValue.finite(1)
    assert liminf_swf(x) == SwfValue.finite(3)


def test_min_respects_permutations():
    x = Piecewise(2, ((Finite((3,)), Fraction(0)),))
    y = apply_permutation(x, FinitePermutation.swap(3, 9))
    assert min_swf(y) == min_swf(x)
    assert liminf_swf(y) == liminf_swf(x)


# -- induced orders ----------------------------------------------------------------


def test_induced_compare_cesaro():
    assert induced_compare("cesaro", EVENS_INDICATOR, constant(Fraction(1, 3))) is Ordering.ABOVE
    assert induced_compare("cesaro", constant(Fraction(1, 3)), EVENS_INDICATOR) is Ordering.BELOW


def test_induced_compare_reflexive():
    assert induced_compare("cesaro", EVENS_INDICATOR, EVENS_INDICATOR) is Ordering.EQUIVALENT
    assert induced_compare("min", constant(2), constant(2)) is Ordering.EQUIVALENT


def test_induced_compare_discounted_dominance():
    x = Piecewise(1)
    y = Piecewise(0)
    assert induced_compare("discounted", x, y, delta=Fraction(1, 2)) is Ordering.ABOVE


def test_induced_compare_divergent_pair_undecided():
    a = RankFill(Diff(FACTS, Finite((1,))))
    b = RankFill(FACTS)
    assert induced_compare("cesaro", a, b) is Ordering.UNDECIDED


def test_induced_compare_unknown_name():
    with pytest.raises(SwfError):
        induced_compare("median", constant(1), constant(0))
