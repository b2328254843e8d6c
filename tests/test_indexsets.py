import math
import random
import time
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.indexsets import (
    INFINITE,
    NAT,
    ArithProg,
    BlockPattern,
    Compl,
    Diff,
    Fact,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    IndexSetError,
    Inter,
    Interval,
    Mul,
    NthElementError,
    Num,
    Sub,
    Union,
    Var,
    _check_pattern,
    count,
    elements_up_to,
    finiteness,
    intervals,
    is_finite,
    member,
    nth_element,
    periodic_profile,
    provably_disjoint,
    provably_empty,
    provably_nonempty,
    segments,
)

from densitylab.densities import density
from densitylab.dsl import parse_set
from densitylab.streams import Piecewise, _regions
from densitylab.verification import (
    membership_bits,
    membership_mask,
    random_decidable_set,
    random_periodic_set,
)

from conftest import DENSE_FAMILY

FACTS = FactorialPoints(NAT)


def brute_count(s, n):
    return sum(1 for t in range(1, n + 1) if member(s, t))


# -- atoms -------------------------------------------------------------------


def test_count_odds():
    assert count(ArithProg(1, 2), 10) == 5


def test_count_complement_identity():
    for s in (FACTS, ArithProg(2, 3), Finite((4, 9))):
        for n in (1, 17, 720):
            assert count(Compl(s), n) == n - count(s, n)


def test_count_factorials_below_720():
    assert count(FACTS, 720) == 6  # 1, 2, 6, 24, 120, 720
    assert count(FACTS, 719) == 5


def test_member_factorial_points():
    assert member(FACTS, 24)
    assert not member(FACTS, 25)
    assert member(FACTS, 1)


def test_member_progression_and_difference():
    assert not member(ArithProg(2, 3), 7)
    assert not member(Diff(Interval(1, 10), Finite((5,))), 5)
    assert member(Diff(Interval(1, 10), Finite((5,))), 6)


def test_nth_element_of_non_factorials():
    assert nth_element(Compl(FACTS), 1) == 3


def test_nth_element_of_odds():
    assert nth_element(ArithProg(1, 2), 4) == 7


def test_nth_element_exhausted():
    with pytest.raises(NthElementError):
        nth_element(Finite((2, 9)), 3)


def test_nth_element_matches_enumeration():
    s = Union(ArithProg(3, 5), Finite((1, 4)))
    elems = elements_up_to(s, 200)
    for m in (1, 2, 5, 20):
        assert nth_element(s, m) == elems[m - 1]


def test_constructor_invariants():
    with pytest.raises(IndexSetError):
        Finite((3, 2))
    with pytest.raises(IndexSetError):
        Finite((0,))
    with pytest.raises(IndexSetError):
        ArithProg(0, 2)
    with pytest.raises(IndexSetError):
        Interval(5, 4)
    with pytest.raises(IndexSetError):
        FactorialIntervals(((5, 5),))
    with pytest.raises(IndexSetError):
        FactorialIntervals(((1, 10), (5, 20)))


# -- random ASTs against the brute-force membership count ----------------------

_atoms = st.one_of(
    st.builds(
        lambda xs: Finite(tuple(sorted(set(xs)))),
        st.lists(st.integers(1, 50), max_size=4),
    ),
    st.builds(ArithProg, st.integers(1, 10), st.integers(1, 8)),
    st.builds(lambda lo, w: Interval(lo, lo + w), st.integers(1, 40), st.integers(0, 40)),
    st.builds(
        lambda a, d: FactorialPoints(ArithProg(a, d)), st.integers(1, 3), st.integers(1, 3)
    ),
    st.builds(
        lambda lo, w: FactorialIntervals(((lo, lo + w),)),
        st.integers(1, 30),
        st.integers(1, 30),
    ),
)

index_sets = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(Union, children, children),
        st.builds(Inter, children, children),
        st.builds(Diff, children, children),
        st.builds(Compl, children),
    ),
    max_leaves=6,
)


@given(index_sets, st.one_of(st.integers(1, 800), st.sampled_from((5040, 40320))))
@settings(max_examples=120, deadline=None)
def test_structural_count_equals_brute_force(s, n):
    assert count(s, n) == brute_count(s, n)


# Each joins a progression of period at least 10**6 with factorial points,
# factorials over a non-periodic base, the block pattern, finite sets and
# complements.
MIXED_SETS = tuple(parse_set(text) for text in (
    "union(inter(ap(7,1000003),compl(factorials(nat))),diff(fintervals[((2k-1)!,(2k)!)],"
    "union(finite{720,721,5040},factorials(compl(factorials(nat))))))",
    "inter(compl(union(ap(2,1000033),factorials(compl(factorials(nat))))),"
    "union(fintervals[((2k-1)!,(2k)!)],diff(ap(1,3),union(factorials(nat),finite{4,10,40320}))))",
    "diff(union(ap(5,2000003),factorials(fintervals[((2k-1)!,(2k)!)])),"
    "inter(compl(finite{1,2,6}),union(factorials(nat),compl(fintervals[((2k-1)!,(2k)!)]))))",
    "compl(union(inter(ap(3,1000003),fintervals[((2k-1)!,(2k)!)]),"
    "union(factorials(compl(fintervals[((2k-1)!,(2k)!)])),diff(finite{10,100,1000,40320},factorials(nat)))))",
    "union(diff(ap(1000001,1000000),union(factorials(nat),finite{2000001})),"
    "inter(factorials(diff(nat,factorials(nat))),fintervals[((2k-1)!,(2k)!)]))",
    # Off the walked leaves this is the union of compl(ap(1,1000003)) and
    # ap(2,1000033), whose lcm is about 10**12: one class must be walked.
    "union(compl(union(ap(1,1000003),factorials(compl(factorials(nat))))),"
    "inter(union(ap(2,1000033),finite{5,6}),compl(fintervals[((2k-1)!,(2k)!)])))",
))


@pytest.mark.parametrize("n", [5040, 40320, math.factorial(10)])
@pytest.mark.parametrize("s", MIXED_SETS)
def test_count_of_mixed_sets_matches_the_mask(s, n):
    count.cache_clear()
    started = time.perf_counter()
    counted = count(s, n)
    assert time.perf_counter() - started < 1
    assert counted == int(membership_mask(s, n).sum())


def _unpruned_nonstrict_set(k):
    """The non-strict set of the clause pair factorials(ap(i,k+1)):i built
    from all region pairs, without dropping the disjoint ones."""
    clauses = tuple((FactorialPoints(ArithProg(i, k + 1)), i) for i in range(1, k + 1))
    x, y = Piecewise(9, clauses), Piecewise(0, clauses)
    return reduce(Union, [Inter(rx, ry) for rx, vx in _regions(x)
                          for ry, vy in _regions(y) if vx <= vy])


@pytest.mark.parametrize("k", [5, 6, 8])
def test_count_of_the_unpruned_clause_pair(k):
    # Inclusion-exclusion took over 60 s at k = 6: its cost grew
    # exponentially with the boolean nodes of this union of k**2 terms.
    s = _unpruned_nonstrict_set(k)
    count.cache_clear()
    started = time.perf_counter()
    counted = count(s, 5040)
    assert time.perf_counter() - started < 1
    assert counted == int(membership_mask(s, 5040).sum())


def test_a_lone_large_period_needs_no_walk():
    # A lone class is one residue, tabled once its period is within n, so
    # counting far past the square of the period does not walk it.
    s = parse_set("inter(ap(1,1000003),compl(factorials(nat)))")
    started = time.perf_counter()
    # 1 + k * 1000003 for k >= 1: 1 = 1! is left out.
    assert count(Compl(s), 10**13) == 10**13 - (10**13 - 1) // 1000003
    assert nth_element(s, 10**5) == 1 + 10**5 * 1000003
    assert time.perf_counter() - started < 1


def test_complements_below_the_top_are_not_enumerated():
    # Off the factorial points these are a class less itself, and the
    # complement of a class joined with another: complemented in place,
    # they would list about 10**9 and 4 * 10**8 residues.
    n = 10**13
    lone = parse_set("diff(union(ap(1,1000000000),factorials(nat)),ap(1,1000000000))")
    pair = parse_set("union(compl(union(ap(1,20011),factorials(nat))),ap(2,20021))")
    started = time.perf_counter()
    counted = count(lone, 5040), count(lone, n), count(pair, n)
    assert time.perf_counter() - started < 1
    # pair is all of [1, n] but (a | factorials) - b.
    a, b = ArithProg(1, 20011), ArithProg(2, 20021)
    meet = next(t for t in range(1, 20011 * 20021, 20011) if member(b, t))
    facts = (math.factorial(j) for j in range(1, 16))  # 16! > 10**13
    rest = (count(a, n) - ((n - meet) // (20011 * 20021) + 1)
            + sum(1 for f in facts if not member(a, f) and not member(b, f)))
    # lone is the factorials 2!, ..., 7! and 2!, ..., 15!.
    assert counted == (6, 14, n - rest)


def test_union_and_difference_lift_residues():
    # The lcm is about 10**8; the results have about 10**4 residues.
    a, b = ArithProg(1, 10007), ArithProg(2, 10009)
    started = time.perf_counter()
    union, diff = periodic_profile(Union(a, b)), periodic_profile(Diff(a, b))
    assert time.perf_counter() - started < 1
    both = Fraction(1, 10007 * 10009)
    assert union.density == Fraction(1, 10007) + Fraction(1, 10009) - both
    assert diff.residues == {t for t in range(1, 10007 * 10009, 10007) if t % 10009 != 2}


def test_counting_caches_stay_inspectable():
    # The benchmark's traced run reports the hit ratios of these two caches.
    for cached in (count, periodic_profile):
        info = cached.cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_large_coprime_periods_meet_by_crt():
    s = parse_set("inter(ap(1,1000003),ap(2,1000033))")
    started = time.perf_counter()
    d = density(s)
    n = math.factorial(10)
    counted = count(s, n)
    assert time.perf_counter() - started < 1
    assert d.exact and d.lower == d.upper == Fraction(1, 1000036000099)
    assert counted == sum(1 for t in range(1, n + 1, 1000003) if member(s, t))


@given(index_sets, st.integers(1, 500))
@settings(max_examples=80, deadline=None)
def test_member_consistent_with_count(s, t):
    assert member(s, t) == (count(s, t) - count(s, t - 1) == 1)


# -- profiles and finiteness ---------------------------------------------------


def test_profile_of_progression():
    p = periodic_profile(ArithProg(3, 4))
    assert p.period == 4 and p.residues == frozenset({3}) and p.start == 3


def test_profile_of_boolean_combination():
    for s in (
        Diff(Union(ArithProg(1, 2), ArithProg(2, 4)), Finite((1, 3))),
        # Intersections with few residue pairs are merged by CRT.
        Inter(Union(ArithProg(1, 4), ArithProg(7, 10)), ArithProg(3, 6)),
        Inter(ArithProg(2, 4), ArithProg(1, 6)),
    ):
        p = periodic_profile(s)
        assert p is not None
        for t in range(p.start, p.start + 3 * p.period):
            assert member(s, t) == (t % p.period in p.residues)


def test_profile_absent_for_factorials():
    assert periodic_profile(FACTS) is None
    assert periodic_profile(FactorialPoints(Finite((2, 4)))) is not None


def test_finiteness_of_a_periodic_complement_reads_the_argument():
    rng = random.Random(24)
    for _ in range(200):
        a = random_periodic_set(rng)
        q = periodic_profile(Compl(a))
        assert finiteness(Compl(a)) == (INFINITE if q.residues else q.start - 1), a


def test_finiteness():
    assert finiteness(Finite((1, 2))) == 2
    assert finiteness(ArithProg(1, 2)) is INFINITE
    assert finiteness(FactorialPoints(Finite((3, 5)))) == 120
    assert finiteness(FACTS) is INFINITE
    assert finiteness(Inter(ArithProg(1, 2), Interval(1, 100))) <= 100
    assert is_finite(Finite((1, 2))) is True
    assert is_finite(FACTS) is False
    assert is_finite(Compl(FACTS)) is None


def test_factorials_meet_residue_classes():
    # n! is divisible by d for n >= d, so factorials eventually sit in the
    # zero class: infinitely many in ap(d,d), finitely many elsewhere.
    assert finiteness(Inter(FACTS, ArithProg(3, 3))) is INFINITE
    # The exact maximum: 1! = 1 is 1 mod 3, 2! = 2 is not, and 3! on are 0.
    assert finiteness(Inter(FACTS, ArithProg(1, 3))) == 1
    assert finiteness(Diff(FACTS, ArithProg(3, 3))) == 2


def test_finite_upper_bound():
    assert finiteness(Finite((7, 11))) == 11
    assert finiteness(Finite(())) == 0
    assert finiteness(FactorialPoints(Finite((4,)))) == 24
    assert finiteness(Inter(ArithProg(1, 3), Interval(2, 50))) <= 50
    assert finiteness(FactorialIntervals(((3, 5), (8, 13)))) == 13
    assert finiteness(Union(Interval(2, 9), Finite((4, 30)))) == 30
    assert finiteness(Union(Interval(2, 9), FACTS)) is INFINITE
    assert finiteness(Compl(Inter(FACTS, Interval(1, 30)))) is INFINITE
    # FactorialPoints(A) meets FactorialPoints(B) in FactorialPoints(A & B).
    assert finiteness(Inter(FACTS, FactorialPoints(ArithProg(2, 2)))) is INFINITE
    assert isinstance(finiteness(Inter(FactorialPoints(ArithProg(1, 3)), FactorialPoints(ArithProg(2, 3)))), int)
    # Difference of an infinite set and a bounded one.
    assert finiteness(Diff(FACTS, Inter(FACTS, Interval(1, 30)))) is INFINITE


def test_finiteness_bound_holds_against_the_mask():
    # Every bound b is checked on membership_mask, the oracle that shares no
    # code with finiteness, well past b.
    rng = random.Random(15)
    sets = [random_decidable_set(rng, depth=2) for _ in range(300)]
    for _ in range(100):
        a, b = random_decidable_set(rng, depth=1), random_decidable_set(rng, depth=1)
        sets += [Inter(FactorialPoints(a), b), Diff(FactorialPoints(a), b),
                 Inter(FactorialPoints(a), FactorialPoints(b)), Union(FactorialPoints(a), b)]
    # Factorial points over infinite bases meeting periodic sets, on their own
    # generator so that the draws above stay as they were.
    rng = random.Random(16)
    for _ in range(100):
        a, p = random_periodic_set(rng), random_periodic_set(rng)
        base = Union(a, ArithProg(rng.randint(1, 9), rng.randint(2, 9)))
        sets += [Inter(FactorialPoints(base), p), Diff(FactorialPoints(base), p)]
    bounded = tight = 0
    for s in sets:
        b = finiteness(s)
        if isinstance(b, int) and b <= 10**6:
            bounded += 1
            mask = membership_mask(s, b + 5040)
            assert not mask[b:].any(), (s, b)
            if _factorials_meet_periodic(s):
                # The bound of this rule is the exact maximum (0: s is empty).
                tight += 1
                assert mask[b - 1] if b else not mask.any(), (s, b)
    assert bounded > 100
    assert tight > 25


def _factorials_meet_periodic(s):
    """Whether finiteness(s) is FactorialPoints over an infinite base meeting
    an infinite eventually periodic set."""
    if not isinstance(s, (Inter, Diff)) or periodic_profile(s) is not None:
        return False
    left, right = s.left, s.right if isinstance(s, Inter) else Compl(s.right)
    return (isinstance(left, FactorialPoints) and finiteness(left.base) is INFINITE
            and periodic_profile(right) is not None and finiteness(right) is INFINITE)


def test_factorials_meeting_a_period_have_an_exact_maximum():
    assert finiteness(Inter(FACTS, ArithProg(1, 1000))) == 1
    assert finiteness(Inter(FACTS, ArithProg(2, 4))) == 6
    assert finiteness(Inter(FactorialPoints(ArithProg(2, 2)), ArithProg(1, 5))) == 0
    # Below the profile start, j! is tested against the set itself.
    assert finiteness(Inter(FACTS, Union(ArithProg(2, 7), Finite((5040,))))) == 5040
    assert finiteness(Inter(FACTS, Union(ArithProg(2, 7), Finite((5041,))))) == 2


def test_emptiness_and_disjointness():
    assert provably_empty(Finite(()))
    assert provably_empty(Inter(ArithProg(1, 2), ArithProg(2, 2)))
    assert not provably_empty(FACTS)
    assert provably_disjoint(Interval(1, 10), Interval(11, 20))
    assert provably_disjoint(Inter(ArithProg(1, 2), FACTS), ArithProg(2, 2))
    assert provably_nonempty(FACTS)
    assert provably_disjoint(FactorialPoints(ArithProg(1, 3)), FactorialPoints(ArithProg(2, 3)))


def test_a_union_term_is_disjoint_from_the_complement_of_the_union():
    a, b = FactorialPoints(ArithProg(1, 3)), FactorialPoints(ArithProg(2, 3))
    # The clause region of the k = 2 clause pair against a default region.
    assert provably_empty(Inter(a, Compl(Union(a, b))))
    rng = random.Random(18)
    n = 5040
    for _ in range(150):
        terms = [random_decidable_set(rng, 2) for _ in range(rng.randint(1, 4))]
        u = terms[0]
        for t in terms[1:]:
            u = Union(u, t) if rng.random() < 0.5 else Union(t, u)
        inside = rng.choice(terms + [u])
        other = random_decidable_set(rng, 2)
        assert provably_disjoint(inside, Compl(u)) and provably_disjoint(Compl(u), inside)
        for x in (inside, other):
            for left, right in ((x, Compl(u)), (Compl(u), x)):
                if provably_disjoint(left, right):
                    assert not (membership_mask(left, n) & membership_mask(right, n)).any()


def _default_region(rng):
    """The default region of random disjoint clauses, as ``_regions`` builds it."""
    if rng.random() < 0.5:  # a window of singleton clauses, as the grading corpus has
        regions = [Finite((t,)) for t in rng.sample(range(1, 40), rng.randint(1, 5))]
    else:
        k = rng.randint(2, 5)
        regions = [FactorialPoints(ArithProg(i, k)) for i in range(1, k + 1) if rng.random() < 0.7]
    return _regions(Piecewise(0, [(r, 1) for r in regions]))[-1][0]


def test_disjointness_from_a_finite_set_is_exact():
    rng = random.Random(21)
    for _ in range(400):
        elements = rng.sample(range(1, 60), rng.randrange(0, 5))
        elements += rng.sample((1, 2, 6, 24, 120, 720, 5040), rng.randrange(0, 3))
        finite = Finite(tuple(sorted(set(elements))))
        other = rng.choice((
            lambda: random_decidable_set(rng),
            lambda: FactorialPoints(ArithProg(rng.randint(1, 3), rng.randint(1, 3))),
            lambda: DENSE_FAMILY,
            lambda: FactorialIntervals(((rng.randint(1, 20), rng.randint(21, 60)),)),
            lambda: _default_region(rng),
        ))()
        n = max(finite.elements, default=1)
        disjoint = not (membership_mask(finite, n) & membership_mask(other, n)).any()
        assert provably_disjoint(finite, other) == disjoint, (finite, other)
        assert provably_disjoint(other, finite) == disjoint, (other, finite)


_RISING_PAIRS = BlockPattern(lo=Fact(Sub(Mul(Num(2), Var()), Num(1))), hi=Fact(Mul(Num(2), Var())),
                             start=2)


def test_an_invalid_pattern_raises_on_every_construction():
    overlapping = BlockPattern(lo=Var(), hi=Mul(Num(2), Var()))
    messages = []
    for _ in range(2):
        with pytest.raises(IndexSetError) as raised:
            FactorialIntervals(pattern=overlapping)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == "pattern block at k=2 overlaps the previous block"


def test_explicit_blocks_are_part_of_the_pattern_check():
    FactorialIntervals(pattern=_RISING_PAIRS)  # its first block is [3!, 4!]
    FactorialIntervals(((1, 5),), _RISING_PAIRS)
    with pytest.raises(IndexSetError, match="k=2 overlaps"):
        FactorialIntervals(((1, 6),), _RISING_PAIRS)


def test_a_valid_pattern_is_checked_once():
    _check_pattern.cache_clear()
    assert FactorialIntervals(pattern=_RISING_PAIRS) == FactorialIntervals(pattern=_RISING_PAIRS)
    info = _check_pattern.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_literal_sets_are_nonempty_past_the_probe():
    assert provably_nonempty(Finite((7000,)))
    assert provably_nonempty(Interval(6000, 6010))
    assert provably_nonempty(ArithProg(9000, 7))
    assert provably_nonempty(Union(Compl(NAT), Finite((9000,))), probe=10)
    assert not provably_nonempty(Finite(()))
    assert not provably_nonempty(Inter(Finite((7000,)), ArithProg(2, 2)))


def test_nth_element_on_factorials_meeting_a_period():
    # Finite only because n! is divisible by 4 for n >= 4.
    s = Inter(FACTS, ArithProg(2, 4))
    assert periodic_profile(s) is None and is_finite(s) is True
    assert [nth_element(s, m) for m in (1, 2)] == [2, 6]
    with pytest.raises(NthElementError):
        nth_element(s, 3)


def test_progression_count_error_bound():
    # canonical progressions (first element within one period)
    for a, d in ((1, 2), (2, 2), (3, 7), (1, 1)):
        s = ArithProg(a, d)
        for n in range(1, 400):
            assert abs(count(s, n) * d - n) <= d * d, (a, d, n)


def test_count_large_checkpoint_is_closed_form():
    n = math.factorial(10)
    s = Union(ArithProg(1, 2), Inter(FACTS, ArithProg(2, 2)))
    assert count(s, n) == n // 2 + sum(
        1 for k in range(1, 20) if math.factorial(k) <= n and math.factorial(k) % 2 == 0
    )


# -- runs --------------------------------------------------------------------

RUN_FAMILIES = tuple(parse_set(text) for text in (
    "fintervals[((2k-1)!,(2k)!)]",
    "fintervals[(25,115);((2k-1)!,(2k)!)@3]",
    "fintervals[(3,9);(5!-5!/4!,5!);((2k)!+1,(2k+1)!-(2k+1)!/(2k)!)@3]",
    "compl(fintervals[((2k-1)!,(2k)!)])",
    "factorials(nat)",
    "factorials(finite{1,2,3,4,7})",
    "compl(factorials(ap(1,2)))",
    "union(factorials(finite{1,2,3,9}),finite{17,18,19})",
    "diff(compl(factorials(nat)),interval(1,24))",
))


@pytest.mark.parametrize("n", [1, 7, 120, 5040, 40320])
def test_intervals_match_membership_oracle(n):
    rng = random.Random(n)
    for s in [random_decidable_set(rng) for _ in range(40)] + list(RUN_FAMILIES):
        runs = intervals(s, n)
        assert all(1 <= lo <= hi <= n for lo, hi in runs)
        assert all(hi + 1 < nxt for (_, hi), (nxt, _) in zip(runs, runs[1:])), "runs are maximal"
        mask = np.zeros(n, dtype=bool)
        for lo, hi in runs:
            mask[lo - 1 : hi] = True
        assert (mask == membership_mask(s, n)).all(), s


def test_elements_fall_back_to_member_past_the_block_cap():
    capped = parse_set("fintervals[(2k,2k+1)]")  # more than 10,000 blocks below 20002
    with pytest.raises(IndexSetError):
        intervals(capped, 30000)
    assert elements_up_to(Inter(Finite(()), capped), 30000) == []
    assert elements_up_to(capped, 9) == [2, 3, 4, 5, 6, 7, 8, 9]


def test_block_cap_counts_the_blocks_that_start_below_n():
    capped = parse_set("fintervals[(2k,2k+1)]")  # block k is [2k, 2k+1]
    assert count(capped, 20000) == 19999  # exactly 10,000 blocks start at or below it
    assert count(capped, 20001) == 20000
    with pytest.raises(IndexSetError, match="more than 10000 blocks below 20002"):
        count(capped, 20002)


# -- the set walk --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 7, 720, 5040, 40320])
def test_segments_alternate_and_match_the_oracle(n):
    rng = random.Random(2300 + n)
    for s in [random_decidable_set(rng) for _ in range(80)] + list(RUN_FAMILIES):
        segs = list(segments(s, n))
        assert segs[0][0] == 1 and segs[-1][1] == n, s
        assert all(lo <= hi and type(inside) is bool for lo, hi, inside in segs)
        assert all(a[1] + 1 == b[0] and a[2] is not b[2] for a, b in zip(segs, segs[1:])), s
        bits = sum((1 << hi + 1 - lo) - 1 << lo - 1 for lo, hi, inside in segs if inside)
        assert bits == membership_bits(s, n), s


# Block 41's upper bound takes the factorial of -1: member raises from t = 82 on.
FAILING_BLOCKS = parse_set("fintervals[(2k,2k+1+0*(40-k)!)]")


def _with_failing_blocks(rng, depth):
    """A random boolean combination that has FAILING_BLOCKS among its leaves."""
    if depth == 0:
        return FAILING_BLOCKS
    inner = _with_failing_blocks(rng, depth - 1)
    kind = rng.randrange(4)
    if kind == 3:
        return Compl(inner)
    other = random_decidable_set(rng, 1)
    left, right = (inner, other) if rng.random() < 0.5 else (other, inner)
    return (Union, Inter, Diff)[kind](left, right)


def test_walk_past_a_failing_bound_agrees_with_member():
    rng = random.Random(2301)
    start = time.perf_counter()
    for _ in range(200):
        s = _with_failing_blocks(rng, rng.randint(0, 3))
        n = rng.choice([60, 81, 82, 83, 200, 720])
        expected, error = [], None
        for t in range(1, n + 1):
            try:
                expected.append(member(s, t))
            except IndexSetError as e:
                error = str(e)
                break
        walked = []
        try:
            for lo, hi, inside in segments(s, n):
                walked += [inside] * (hi - lo + 1)
        except IndexSetError as e:
            assert str(e) == error, s
        else:
            assert error is None, s
        assert walked == expected, s
    assert time.perf_counter() - start < 5


def test_a_progression_is_walked_from_its_first_element():
    # Its residue class below a holds no element: a walk of it from the class
    # would visit about 5 * 10**8 coordinates here.
    late = ArithProg(10**9, 2)
    n = 10**9 + 4
    start = time.perf_counter()
    assert list(segments(late, n)) == [
        (1, 10**9 - 1, False), (10**9, 10**9, True), (10**9 + 1, 10**9 + 1, False),
        (10**9 + 2, 10**9 + 2, True), (10**9 + 3, 10**9 + 3, False), (n, n, True),
    ]
    assert elements_up_to(Union(late, Finite((5,))), n) == [5, 10**9, 10**9 + 2, n]
    assert count(Diff(late, Finite((10**9,))), n) == 2
    assert time.perf_counter() - start < 1
