import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.indexsets import (
    ArithProg,
    Compl,
    Diff,
    FactorialPoints,
    Finite,
    IndexSetError,
    Interval,
    Union,
    is_finite,
    member,
)
from densitylab.streams import (
    FinitePermutation,
    OverlapError,
    Piecewise,
    RankFill,
    PairAnalysis,
    StreamError,
    apply_permutation,
    constant,
    eval_at,
    nonstrict_set,
    pair_runs,
    prefix,
    scan_pair,
    stream_profile,
    strict_set,
    values,
    weakly_dominates,
)
from densitylab.dominance import anonymity_equivalent
from densitylab.dsl import parse_set
from densitylab.verification import (
    membership_mask,
    random_chain_pair,
    random_decidable_set,
    random_periodic_set,
    random_window_pair,
)
from densitylab.welfare import cesaro_liminf

U_REF = FactorialPoints(Finite((1, 2, 3, 4, 7)))
X_REF = RankFill(U_REF)
Z_REF = RankFill(Diff(U_REF, Finite((1,))))


def test_rank_fill_reference_prefixes():
    assert prefix(X_REF, 7) == [1, 1, 2, 3, 4, 1, 5]
    assert prefix(Z_REF, 7) == [2, 1, 3, 4, 5, 1, 6]
    assert prefix(RankFill(FactorialPoints(Finite((1, 2, 7)))), 7) == [1, 1, 2, 3, 4, 5, 6]


def test_constant_stream():
    c = constant(Fraction(5, 3))
    for t in (1, 10, 5040):
        assert eval_at(c, t) == Fraction(5, 3)


def test_rank_fill_rank_rule():
    comp = Compl(U_REF)
    from densitylab.indexsets import nth_element

    for m in (1, 2, 10, 100):
        t = nth_element(comp, m)
        assert eval_at(X_REF, t) == m + 1
    assert eval_at(X_REF, 24) == 1


def test_prefix_agrees_with_eval():
    truncated = RankFill(Compl(Interval(5, 20)), fill=Fraction(1, 2), truncated=True)
    permuted = apply_permutation(Z_REF, FinitePermutation.cycle([2, 9, 4, 30]))
    for x in (X_REF, Z_REF, Piecewise(2, ((ArithProg(2, 3), Fraction(9)),)), truncated,
              permuted, apply_permutation(truncated, FinitePermutation.swap(3, 8))):
        expected = [eval_at(x, t) for t in range(1, 51)]
        assert prefix(x, 50) == list(values(x, 50)) == expected
        assert prefix(x, 7) == expected[:7]  # a walk that stops inside the bound


def _typed(vs):
    return [(v, type(v)) for v in vs]


def test_value_contract_ranks_are_ints():
    # values, prefix and eval_at agree on each value and on its type: an int
    # at a rank coordinate, a Fraction everywhere else.
    fill_on = Union(ArithProg(3, 4), FactorialPoints(Finite((1, 2, 3, 4))))
    truncated = RankFill(Compl(Interval(5, 20)), fill=Fraction(1, 2), truncated=True)
    cases = [
        RankFill(fill_on),
        RankFill(fill_on, fill=Fraction(5, 2)),
        truncated,
        apply_permutation(RankFill(fill_on), FinitePermutation.cycle([2, 9, 4, 30])),
        Piecewise(2, ((ArithProg(2, 3), Fraction(9)), (Finite((7,)), Fraction(-1, 3)))),
    ]
    for x in cases:
        expected = _typed(eval_at(x, t) for t in range(1, 61))
        assert _typed(prefix(x, 60)) == _typed(values(x, 60)) == expected
    for x in cases[:3]:
        for t in range(1, 61):
            v = eval_at(x, t)
            assert type(v) is (Fraction if member(x.fill_on, t) else int), (x, t)
    assert {type(v) for v in prefix(cases[-1], 60)} == {Fraction}


def test_long_scan_prefix_stream_matches_the_mask():
    # The rank-fill prefix stream of the long_scan workload, against ranks
    # computed from membership_mask, which shares no code with the walk.
    n = 40320
    fill_on = FactorialPoints(Finite((2, 8, 9, 10)))
    mask = membership_mask(fill_on, n)
    ranks = np.cumsum(~mask) + 1
    reference = [1 if m else int(r) for m, r in zip(mask, ranks)]
    got = prefix(RankFill(fill_on), n)
    assert got == reference
    assert all(type(v) is (Fraction if m else int) for v, m in zip(got, mask))


def test_walk_raises_overlap_where_eval_does():
    # The clauses pass the construction check and first collide at 8! = 40320.
    x = Piecewise(0, ((FactorialPoints(ArithProg(8, 2)), Fraction(1)),
                      (FactorialPoints(ArithProg(8, 3)), Fraction(2))))
    with pytest.raises(OverlapError) as from_eval:
        eval_at(x, 40320)
    walked = 0
    with pytest.raises(OverlapError) as from_walk:
        for _ in values(x, 50000):
            walked += 1
    assert walked == 40319
    assert str(from_walk.value) == str(from_eval.value)


def test_rank_fill_needs_infinite_ranks():
    with pytest.raises(StreamError):
        RankFill(Compl(Finite((3,))))
    RankFill(Compl(Finite((3,))), truncated=True)  # explicit truncations allowed


def test_values_must_be_exact():
    with pytest.raises(StreamError):
        constant(0.5)


def test_clause_overlap_rejected():
    with pytest.raises(OverlapError):
        Piecewise(0, ((ArithProg(1, 2), Fraction(1)), (ArithProg(1, 6), Fraction(2))))


def test_lazy_overlap_detection():
    # two factorial-point sets sharing only huge elements pass construction
    a = FactorialPoints(ArithProg(9, 2))
    b = FactorialPoints(ArithProg(10, 3))
    x = Piecewise(0, ((a, Fraction(1)), (b, Fraction(2))))
    assert eval_at(x, 5) == 0


def test_permutation_validation():
    with pytest.raises(StreamError):
        FinitePermutation(3, (1, 1, 2))
    p = FinitePermutation.from_pairs({2: 5, 5: 2})
    assert p(2) == 5 and p(3) == 3 and p(7) == 7
    assert p.inverse() == p


def test_apply_permutation_semantics():
    x = Piecewise(0, ((Finite((2,)), Fraction(7)), (Finite((5,)), Fraction(9))))
    p = FinitePermutation.swap(2, 5)
    y = apply_permutation(x, p)
    assert eval_at(y, 2) == 9 and eval_at(y, 5) == 7 and eval_at(y, 3) == 0


def test_swap_is_involution():
    p = FinitePermutation.swap(3, 11)
    twice = apply_permutation(apply_permutation(Z_REF, p), p)
    assert prefix(twice, 40) == prefix(Z_REF, 40)


def test_identity_permutation_is_no_op():
    assert apply_permutation(X_REF, FinitePermutation.identity(0)) is X_REF


def test_permutation_preserves_value_multiset():
    vals = prefix(Z_REF, 30)
    p = FinitePermutation.cycle([1, 6, 5, 4, 3])
    permuted = prefix(apply_permutation(Z_REF, p), 30)
    assert sorted(vals) == sorted(permuted)
    assert permuted[6:] == vals[6:]


def test_strict_set_of_constants():
    assert strict_set(constant(1), constant(0)) == Compl(Finite(()))
    assert strict_set(constant(0), constant(1)) == Finite(())


def test_strict_set_reflexive_empty():
    assert strict_set(X_REF, X_REF) == Finite(())


def _ref_first(xs, ys, pred):
    return next((t for t, a, b in zip(range(1, len(xs) + 1), xs, ys) if pred(a, b)), None)


def test_strict_set_scan_for_rank_fills():
    assert strict_set(Z_REF, X_REF, horizon=5040) is None
    for x, y in ((Z_REF, X_REF), (X_REF, Z_REF), (RankFill(U_REF, fill=Fraction(2)), X_REF)):
        a = PairAnalysis(x, y, 5040)
        assert a.strict is a.reverse is a.nonstrict is None
        xs, ys = prefix(x, 5040), prefix(y, 5040)
        assert a.first_strict == _ref_first(xs, ys, lambda p, q: p > q)
        assert a.first_nonstrict == _ref_first(xs, ys, lambda p, q: p <= q)
    # Z exceeds X at t = 1 and first meets it at the factorial t = 2.
    assert (PairAnalysis(Z_REF, X_REF).first_strict, PairAnalysis(Z_REF, X_REF).first_nonstrict) == (1, 2)


def test_strict_and_reverse_strict_disjoint():
    x = Piecewise(0, ((ArithProg(1, 2), Fraction(2)),))
    y = Piecewise(1)
    s = strict_set(x, y)
    r = strict_set(y, x)
    from densitylab.indexsets import provably_disjoint

    assert provably_disjoint(s, r)


def _residue_stream(rng):
    d = rng.choice((2, 3, 4, 6))
    residues = rng.sample(range(1, d + 1), rng.randint(1, d))  # clause order shuffled
    return Piecewise(rng.randint(0, 3), tuple((ArithProg(r, d), Fraction(rng.randint(0, 3)))
                                              for r in residues))


def test_reverse_is_the_strict_set_of_the_swapped_pair():
    rng = random.Random(17)
    for k in range(90):
        if k % 3 == 0:
            x, y = random_chain_pair(rng)
        elif k % 3 == 1:
            x, y, _ = random_window_pair(rng)
        else:
            x, y = _residue_stream(rng), _residue_stream(rng)
        for a, b in ((x, y), (y, x)):
            assert PairAnalysis(a, b).reverse == strict_set(b, a)


def test_nonstrict_complements_strict_pointwise():
    x = Piecewise(0, ((ArithProg(1, 3), Fraction(2)),))
    y = Piecewise(1)
    s = strict_set(x, y)
    ns = nonstrict_set(x, y)
    from densitylab.indexsets import member

    for t in range(1, 200):
        assert member(s, t) != member(ns, t)


def test_weak_dominance_structural_and_scan():
    assert weakly_dominates(constant(2), constant(1)).holds
    assert weakly_dominates(X_REF, X_REF).holds
    v = weakly_dominates(RankFill(FactorialPoints(Finite((1, 2, 7)))), Z_REF, horizon=100)
    assert v.status.value == "fails" and v.counterexample == 1
    assert weakly_dominates(Z_REF, X_REF, horizon=720).status.value == "undecided"


def test_weak_dominance_same_rank_structure():
    a = RankFill(U_REF, fill=Fraction(2))
    assert weakly_dominates(a, X_REF).holds


def test_stream_profile_period_and_mean():
    x = Piecewise(0, ((ArithProg(2, 2), Fraction(1)),))
    p = stream_profile(x)
    assert p.period == 2 and p.mean == Fraction(1, 2)
    assert stream_profile(X_REF) is None


def test_profile_of_permuted_stream():
    x = Piecewise(3, ((ArithProg(1, 4), Fraction(1)), (Interval(2, 4), Fraction(0))))
    p0 = stream_profile(x)
    p1 = stream_profile(apply_permutation(x, FinitePermutation.swap(1, 8)))
    assert p1.values == p0.values and p1.start >= 9


@given(st.integers(1, 25), st.integers(1, 25))
@settings(max_examples=40, deadline=None)
def test_permuted_prefix_is_rearrangement(i, j):
    p = FinitePermutation.swap(i, j)
    n = max(i, j) + 5
    base = prefix(Z_REF, n)
    moved = prefix(apply_permutation(Z_REF, p), n)
    assert sorted(base) == sorted(moved)


def _brute_values(x, n):
    """Coordinates 1..n from the vectorized membership oracle."""
    if isinstance(x, Piecewise):
        vals = [x.default] * n
        for s, v in x.clauses:
            for i in np.flatnonzero(membership_mask(s, n)):
                vals[i] = v
        return vals
    fill = membership_mask(x.fill_on, n)
    ranks = np.cumsum(~fill) + 1
    return [x.fill if f else Fraction(int(r)) for f, r in zip(fill, ranks)]


def _brute_scan(x, y, n, expected):
    xs, ys = _brute_values(x, n), _brute_values(y, n)
    want = membership_mask(expected, n) if expected is not None else None
    strict = 0
    for t, (a, b) in enumerate(zip(xs, ys), 1):
        if a < b or (want is not None and (a > b) != bool(want[t - 1])):
            return (t, a, b), strict
        strict += a > b
    return None, strict


def _rank_fill_pair(rng):
    def fill_set():
        return rng.choice([
            FactorialPoints(Finite(tuple(sorted(rng.sample(range(1, 7), rng.randint(1, 4)))))),
            ArithProg(rng.randint(1, 5), rng.randint(2, 5)),
            Finite(tuple(sorted(rng.sample(range(1, 60), rng.randint(0, 6))))),
        ])
    return RankFill(fill_set(), rng.choice([1, 2, Fraction(5, 2)])), RankFill(fill_set())


def test_scan_pair_matches_membership_oracle():
    rng = random.Random(41)
    n = 400
    for k in range(120):
        x, y = random_chain_pair(rng) if k % 2 else _rank_fill_pair(rng)
        if rng.random() < 0.5:
            x, y = y, x
        expected = rng.choice([None, random_periodic_set(rng), Compl(Finite(())), Finite(())])
        assert scan_pair(x, y, n, expected) == _brute_scan(x, y, n, expected)


def test_scan_pair_on_gadget_pair():
    # Z_REF exceeds X_REF exactly at the first point and off the point set.
    expected = Union(Finite((1,)), Diff(Compl(U_REF), Interval(1, 1)))
    violation, strict = scan_pair(Z_REF, X_REF, 5040, expected)
    assert violation is None and strict == 5040 - 4
    assert _brute_scan(Z_REF, X_REF, 5040, expected) == (None, strict)
    assert scan_pair(X_REF, Z_REF, 5040) == ((1, 1, 2), 0)


# -- the run walk against a per-coordinate reference on eval_at ----------------


def _ref_values(x, n):
    return [eval_at(x, t) for t in range(1, n + 1)]


def _ref_scan(xs, ys, expected=None):
    strict = 0
    for t, a, b in zip(range(1, len(xs) + 1), xs, ys):
        if a < b or (expected is not None and (a > b) != member(expected, t)):
            return (t, a, b), strict
        strict += a > b
    return None, strict


def _ref_balanced(xs, ys):
    balance = Counter()
    for a, b in zip(xs, ys):
        if a != b:
            balance[a] += 1
            balance[b] -= 1
    return not any(balance.values())


def _walk_pair(rng, k):
    kind = k % 3
    if kind == 0:
        x, y = random_chain_pair(rng)
    else:
        x, y = _rank_fill_pair(rng)
        if rng.random() < 0.5:  # a finite difference of fill sets
            y = RankFill(Union(x.fill_on, Finite((rng.randint(1, 90),))), rng.choice([1, 2]))
    if kind == 2 or rng.random() < 0.2:
        x = apply_permutation(x, FinitePermutation.cycle(sorted(rng.sample(range(1, 80), 4))))
    return (x, y) if rng.random() < 0.5 else (y, x)


def test_run_walk_matches_per_coordinate_reference():
    rng = random.Random(14)
    n = 240
    slopes = set()
    for k in range(60):
        x, y = _walk_pair(rng, k)
        xs, ys = _ref_values(x, n), _ref_values(y, n)
        slopes |= {sa - sb for _, _, _, sa, _, sb, _ in pair_runs(x, y, n)}
        assert prefix(x, n) == xs and prefix(y, n) == ys
        expected = rng.choice([random_periodic_set(rng), random_decidable_set(rng, 2),
                               Compl(Finite(())), Finite(())])
        assert scan_pair(x, y, n) == _ref_scan(xs, ys)
        assert scan_pair(x, y, n, expected) == _ref_scan(xs, ys, expected)
        a = PairAnalysis(x, y, n)
        if a.strict is None:
            assert a.first_strict == _ref_first(xs, ys, lambda p, q: p > q)
            assert a.first_nonstrict == _ref_first(xs, ys, lambda p, q: p <= q)
        rank_pair = isinstance(x, RankFill) and isinstance(y, RankFill)
        structural = (isinstance(x, Piecewise) and isinstance(y, Piecewise)) or rank_pair and (
            is_finite(Diff(x.fill_on, y.fill_on)) is False
            or is_finite(Diff(y.fill_on, x.fill_on)) is False)
        if structural:  # a structural False may overrule a balance that cancels
            assert anonymity_equivalent(x, y, n) <= _ref_balanced(xs, ys)
        else:
            assert anonymity_equivalent(x, y, n) == _ref_balanced(xs, ys)
    assert {-1, 0, 1} <= slopes  # rank against fill both ways, and equal slopes


def test_cesaro_checkpoint_sums_match_reference():
    odd = RankFill(ArithProg(1, 2))
    for x in (odd, apply_permutation(odd, FinitePermutation.cycle([1, 4, 9])),
              RankFill(ArithProg(2, 3), Fraction(5, 2)),
              Piecewise(2, ((FactorialPoints(ArithProg(1, 1)), Fraction(3)),)),
              Piecewise(1, ((parse_set("fintervals[((2k-1)!,(2k)!)]"), Fraction(2, 3)),))):
        v = cesaro_liminf(x)
        assert v.kind == "interval"
        total, expected = Fraction(0), []
        for t, value in enumerate(_ref_values(x, 5040), 1):
            total += value
            if t in (120, 720, 1708, 5040):
                expected.append((t, total / t))
        assert list(v.evidence) == expected


# {2, 3, ..., 81} and then an error: block 41's upper bound takes the factorial of -1.
# intervals raises from n = 82 on, so the walk falls back to member coordinate by coordinate.
FAILING_BLOCKS = parse_set("fintervals[(2k,2k+1+0*(40-k)!)]")


def test_set_error_surfaces_where_member_raises():
    with pytest.raises(IndexSetError) as from_member:
        member(FAILING_BLOCKS, 82)
    x = Piecewise(0, ((FAILING_BLOCKS, Fraction(1)),))
    for stream in (x, RankFill(Compl(FAILING_BLOCKS)),
                   apply_permutation(x, FinitePermutation.swap(3, 9))):
        walked = 0
        with pytest.raises(IndexSetError) as from_walk:
            for _ in values(stream, 200):
                walked += 1
        assert walked == 81 and str(from_walk.value) == str(from_member.value)
    with pytest.raises(IndexSetError) as from_scan:
        scan_pair(x, constant(0), 200)
    assert str(from_scan.value) == str(from_member.value)
    # A violation before the error ends the scan first.
    assert scan_pair(x, constant(1), 200) == ((1, 0, 1), 0)
    late = Piecewise(0, ((Finite((50,)), Fraction(5)),))
    assert scan_pair(x, late, 200) == ((50, 1, 5), 48)
    assert scan_pair(x, late, 200, expected_strict=Interval(2, 81)) == ((50, 1, 5), 48)


def test_block_cap_is_not_reached_when_the_scan_stops_first():
    capped = parse_set("fintervals[(2k,2k+1)]")  # member raises from t = 20002 on
    x = Piecewise(0, ((capped, Fraction(1)),))
    assert scan_pair(x, constant(1), 30000) == ((1, 0, 1), 0)
    assert prefix(RankFill(Compl(capped)), 5) == [1, 2, 3, 4, 5]


def test_block_cap_walk_reaches_the_error_quickly():
    # intervals raises for every bound from some m0 on; the walk finds m0 by
    # bisection and calls member only from there.
    capped = parse_set("fintervals[(2k,2k+1)]")
    with pytest.raises(IndexSetError) as from_member:
        member(capped, 20002)
    x = Piecewise(1, ((capped, Fraction(1)),))
    start = time.perf_counter()
    walked = 0
    with pytest.raises(IndexSetError) as from_walk:
        for _ in values(x, 30000):
            walked += 1
    assert time.perf_counter() - start < 5
    assert walked == 20001 and str(from_walk.value) == str(from_member.value)
    start = time.perf_counter()
    with pytest.raises(IndexSetError) as from_scan:
        scan_pair(x, constant(0), 30000)
    assert time.perf_counter() - start < 5
    assert str(from_scan.value) == str(from_member.value)
