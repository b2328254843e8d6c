import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DENSE_FAMILY
from densitylab.densities import density
from densitylab.dominance import (
    CHAIN_ORDER,
    DOMINANCE_PREDICATES,
    anonymity_equivalent,
    density_one_dominates,
    implication_chain_report,
    infinite_pareto_dominates,
    lex_compare,
    lower_asym_dominates,
    pareto_dominates,
    suppes_sen_compare,
    uniform_dominates,
    upper_asym_dominates,
    weak_pareto_dominates,
)
from densitylab.dsl import parse_set, parse_stream
from densitylab.indexsets import (
    NAT,
    ArithProg,
    Compl,
    Diff,
    FactorialPoints,
    Finite,
)
from densitylab.streams import (
    FinitePermutation,
    PairAnalysis,
    Piecewise,
    RankFill,
    apply_permutation,
    constant,
    strict_set,
    weakly_dominates,
)
from densitylab.verdicts import Status
from densitylab.verification import (
    brute_force_grading,
    membership_bits,
    random_chain_pair,
    random_decidable_set,
    random_window_pair,
)

FACTS = FactorialPoints(NAT)


def lifted(pattern, gap=1, base=0):
    """x equals base everywhere, base+gap on the pattern; y is the base."""
    y = Piecewise(base)
    x = Piecewise(base, ((pattern, Fraction(base) + Fraction(gap)),))
    return x, y


def statuses(x, y):
    return {name: str(v.status) for name, v in implication_chain_report(x, y).entries}


def test_single_coordinate_improvement():
    x, y = lifted(Finite((1,)))
    assert pareto_dominates(x, y).holds
    assert infinite_pareto_dominates(x, y).status is Status.FAILS


def test_equal_streams_fail_strict_dominance():
    c = constant(3)
    assert pareto_dominates(c, c).status is Status.FAILS
    assert uniform_dominates(c, c).status is Status.FAILS


def test_factorial_point_improvements():
    x, y = lifted(FACTS)
    s = statuses(x, y)
    assert s["pareto"] == "holds" and s["infinite"] == "holds"
    for k in ("upper", "lower", "density_one", "almost_weak", "weak", "uniform"):
        assert s[k] == "fails"


def test_factorial_complement_improvements():
    x, y = lifted(Compl(FACTS))
    s = statuses(x, y)
    for k in ("pareto", "infinite", "upper", "lower", "density_one"):
        assert s[k] == "holds"
    for k in ("almost_weak", "weak", "uniform"):
        assert s[k] == "fails"


def test_residue_class_improvements():
    x, y = lifted(ArithProg(1, 2))
    s = statuses(x, y)
    assert s["upper"] == "holds" and s["lower"] == "holds"
    assert s["density_one"] == "fails"


def test_interval_family_improvements():
    x, y = lifted(DENSE_FAMILY)
    s = statuses(x, y)
    assert s["upper"] == "holds" and s["lower"] == "fails"


def test_cofinite_improvements():
    x, y = lifted(Compl(Finite((1, 2))))
    s = statuses(x, y)
    assert s["almost_weak"] == "holds" and s["weak"] == "fails"
    v = weak_pareto_dominates(x, y)
    assert v.counterexample in (1, 2)


def test_full_improvement_holds_everywhere():
    x, y = lifted(Compl(Finite(())))
    assert all(v.holds for _, v in implication_chain_report(x, y).entries)
    assert uniform_dominates(x, y).holds


def test_weak_dominance_gate_short_circuits():
    x = Piecewise(0, ((Finite((3,)), Fraction(5)),))
    y = Piecewise(1)
    for predicate in DOMINANCE_PREDICATES.values():
        v = predicate(x, y)
        assert v.status is Status.FAILS
        assert v.counterexample is not None


def test_rank_fill_comparisons_stay_undecided():
    x = RankFill(Diff(FACTS, Finite((1,))))
    y = RankFill(FACTS)
    assert infinite_pareto_dominates(x, y).status is Status.UNDECIDED


def test_chain_monotone_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(120):
        x, y = random_chain_pair(rng)
        report = implication_chain_report(x, y)
        assert report.consistent
        for _, v in report.entries:
            assert v.status in (Status.HOLDS, Status.FAILS)


def test_holds_carry_certificates():
    x, y = lifted(Compl(FACTS))
    v = density_one_dominates(x, y)
    assert v.holds and v.witness_density.exact and v.witness_density.lower == 1
    v = lower_asym_dominates(x, y)
    assert v.witness_density.lower == 1
    v = upper_asym_dominates(*lifted(ArithProg(2, 2)))
    assert v.witness_density.upper == Fraction(1, 2)


# -- grading principle ---------------------------------------------------------


def test_alternating_indicators_incomparable():
    x = Piecewise(0, ((ArithProg(1, 2), Fraction(1)),))
    y = Piecewise(0, ((ArithProg(2, 2), Fraction(1)),))
    assert suppes_sen_compare(x, y).status is Status.INCOMPARABLE
    assert suppes_sen_compare(y, x).status is Status.INCOMPARABLE


def test_window_rearrangement_dominance():
    x = Piecewise(0, ((Finite((1,)), Fraction(2)),))
    y = Piecewise(0, ((Finite((2,)), Fraction(1)),))
    assert suppes_sen_compare(x, y).holds
    assert suppes_sen_compare(y, x).status is Status.FAILS


def test_grading_reflexive():
    x = Piecewise(0, ((Finite((4,)), Fraction(3)),))
    assert suppes_sen_compare(x, x).holds


def test_grading_antisymmetry_on_windows():
    from densitylab.streams import eval_at

    rng = random.Random(7)
    for _ in range(40):
        # y carries the same window values as x, shuffled among the same
        # coordinates: both directions must hold via equal sorted windows
        x, _, window = random_window_pair(rng)
        values = [eval_at(x, t) for t in window]
        rng.shuffle(values)
        y = Piecewise(x.default, tuple((Finite((t,)), v) for t, v in zip(window, values)))
        a = suppes_sen_compare(x, y)
        b = suppes_sen_compare(y, x)
        assert a.holds and b.holds
        assert sorted(eval_at(x, t) for t in window) == sorted(values)
    for _ in range(40):
        x, y, window = random_window_pair(rng)
        a = suppes_sen_compare(x, y)
        b = suppes_sen_compare(y, x)
        if a.holds and b.holds:
            xs = sorted(eval_at(x, t) for t in window)
            ys = sorted(eval_at(y, t) for t in window)
            assert xs == ys


def test_grading_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        x, y, window = random_window_pair(rng, max_window=6)
        verdict = suppes_sen_compare(x, y)
        assert verdict.holds == brute_force_grading(x, y, window)


# -- lexicographic order ---------------------------------------------------------


def test_lex_first_difference_wins():
    x = Piecewise(9, ((Finite((1,)), Fraction(1)),))
    y = Piecewise(9, ((Finite((1,)), Fraction(0)),))
    assert lex_compare(x, y).holds
    assert lex_compare(y, x).status is Status.FAILS


def test_lex_equal_streams_fail():
    assert lex_compare(constant(2), constant(2)).status is Status.FAILS


def test_lex_fails_on_streams_equal_pointwise():
    x = Piecewise(0, ((FACTS, Fraction(0)),))  # equals const(0) pointwise
    v = lex_compare(x, constant(0), horizon=200)
    assert v.status is Status.FAILS and v.note == "streams are equal pointwise"


def test_lex_total_on_distinguished_pairs():
    rng = random.Random(3)
    for _ in range(40):
        x, y, _ = random_window_pair(rng)
        a = lex_compare(x, y)
        b = lex_compare(y, x)
        if x == y:
            assert a.status is Status.FAILS and b.status is Status.FAILS
        else:
            # window streams differing as ASTs differ at some coordinate
            assert a.holds != b.holds


def _piecewise_pairs(seed, chain=60, single=100):
    """Chain pairs in both orientations and single-clause pairs over random sets."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(chain):
        x, y = random_chain_pair(rng)
        pairs += [(x, y), (y, x)]
    for _ in range(single):
        x, y = (Piecewise(rng.randint(0, 2), ((random_decidable_set(rng, depth=2),
                                                Fraction(rng.randint(0, 2))),))
                for _ in range(2))
        pairs.append((x, y))
    return pairs


def _value_bits(x, n):
    """{value: bitset of the coordinates 1..n where x takes it}, by membership."""
    rest = (1 << n) - 1
    out = {}
    for s, v in x.clauses:
        bits = membership_bits(s, n)
        out[v] = out.get(v, 0) | bits
        rest &= ~bits
    out[x.default] = out.get(x.default, 0) | rest
    return out


def _first_bit(bits):
    return (bits & -bits).bit_length() or None


def _pointwise(x, y, n):
    """(first t <= n with x_t != y_t, first with x_t < y_t, whether x_t > y_t at the first)."""
    xb, yb = _value_bits(x, n), _value_bits(y, n)
    above = below = 0
    for a, p in xb.items():
        for b, q in yb.items():
            if a > b:
                above |= p & q
            elif a < b:
                below |= p & q
    t = _first_bit(above | below)
    return t, _first_bit(below), t is not None and bool(above >> (t - 1) & 1)


def test_lex_and_weak_are_horizon_invariant_and_pointwise_correct():
    decided = 0
    # The reverse set of the fixed pair is finite{1000}, past the least horizon.
    late = Piecewise(0, ((Finite((1000,)), Fraction(1)),))
    for x, y in _piecewise_pairs(25) + [(constant(0), late), (late, constant(0))]:
        lex, weak = ([fn(x, y, h) for h in (720, 5040, 40320)]
                     for fn in (lex_compare, weakly_dominates))
        for verdicts in (lex, weak):
            assert len({(v.status, v.counterexample, v.witness_set) for v in verdicts}) == 1, (x, y)
        lex, weak = lex[-1], weak[-1]
        n = max(40320, lex.counterexample or 0, *(lex.witness_set.elements if lex.holds else ()))
        first, violation, above = _pointwise(x, y, n)
        if lex.holds:
            assert lex.witness_set == Finite((first,)) and above
        elif lex.status is Status.FAILS:
            assert lex.counterexample == first and not above
        if weak.holds:
            assert violation is None
        elif weak.status is Status.FAILS:
            assert weak.counterexample == violation
        decided += lex.status is not Status.UNDECIDED and weak.status is not Status.UNDECIDED
    assert decided >= 200


def test_counted_pair_answers_before_a_set_error():
    # Block 41 takes the factorial of -1, so a count to the horizon raises;
    # the walk of the set meets the first difference, at t = 1, before it.
    failing = parse_set("fintervals[(2k,2k+1+0*(40-k)!)]")
    x = Piecewise(0, ((failing, Fraction(1)),))
    assert lex_compare(x, constant(1), 200).counterexample == 1
    assert weakly_dominates(x, constant(1), 200).counterexample == 1


def test_piecewise_pairs_with_disjoint_clauses_are_not_walked(monkeypatch):
    import densitylab.dominance as dominance
    import densitylab.streams as streams

    def walk(*args, **kwargs):
        raise AssertionError("scan_pair walked a counted pair")

    monkeypatch.setattr(streams, "scan_pair", walk)
    monkeypatch.setattr(dominance, "scan_pair", walk)
    for x, y in _piecewise_pairs(26, chain=30, single=50):
        assert PairAnalysis(x, y).counted
        lex_compare(x, y)
        for predicate in DOMINANCE_PREDICATES.values():
            predicate(x, y)
        implication_chain_report(x, y)
    u = FactorialPoints(Finite((1, 2, 3, 4, 7)))
    with pytest.raises(AssertionError, match="walked"):
        lex_compare(RankFill(u, Fraction(2)), RankFill(u))


# -- anonymity ---------------------------------------------------------------------


def test_anonymity_under_swap():
    x = Piecewise(0, ((Finite((2,)), Fraction(7)),))
    y = apply_permutation(x, FinitePermutation.swap(2, 5))
    assert anonymity_equivalent(x, y)


def test_anonymity_reflexive():
    assert anonymity_equivalent(constant(4), constant(4))


def test_anonymity_rejects_rank_shift():
    x = RankFill(FactorialPoints(Finite((1, 2, 3, 4, 7))))
    z = RankFill(Diff(FactorialPoints(Finite((1, 2, 3, 4, 7))), Finite((1,))))
    assert not anonymity_equivalent(x, z)


@given(
    st.lists(st.tuples(st.integers(1, 12), st.integers(0, 4)), max_size=4,
             unique_by=lambda kv: kv[0]),
    st.permutations(list(range(1, 9))),
    st.permutations(list(range(1, 9))),
)
@settings(max_examples=50, deadline=None)
def test_anonymity_symmetric_and_transitive(pairs, p1, p2):
    base = Piecewise(0, tuple((Finite((t,)), Fraction(v)) for t, v in sorted(pairs)))
    a = apply_permutation(base, FinitePermutation(8, tuple(p1)))
    b = apply_permutation(base, FinitePermutation(8, tuple(p2)))
    assert anonymity_equivalent(base, a)
    assert anonymity_equivalent(a, base)
    assert anonymity_equivalent(a, b)


def test_chain_report_shape():
    x, y = lifted(ArithProg(1, 3))
    report = implication_chain_report(x, y)
    assert tuple(name for name, _ in report.entries) == CHAIN_ORDER
    assert report.consistent


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_clause_pairs_are_decided(k):
    # Both streams equal i on factorials(ap(i, k+1)); elsewhere x = 9 > y = 0.
    # The clause sets are disjoint because n -> n! is injective.
    clauses = tuple((FactorialPoints(ArithProg(i, k + 1)), Fraction(i)) for i in range(1, k + 1))
    start = time.perf_counter()
    report = implication_chain_report(Piecewise(9, clauses), Piecewise(0, clauses))
    assert time.perf_counter() - start < 1
    assert report.consistent
    by_name = {name: v.status for name, v in report.entries}
    assert by_name["almost_weak"] is Status.FAILS and by_name["density_one"] is Status.HOLDS
    assert Status.UNDECIDED not in by_name.values()


def test_rank_fill_pairs_are_walked_once_per_question(monkeypatch):
    # The pair analysis walks a non-piecewise pair at most three times: for
    # weak dominance, the first strict and the first non-strict coordinate.
    import densitylab.streams as streams

    walks = []
    pair_runs = streams.pair_runs
    monkeypatch.setattr(streams, "pair_runs", lambda *a, **k: walks.append(a) or pair_runs(*a, **k))
    u = FactorialPoints(Finite((1, 2, 3, 4, 7)))
    pairs = [(RankFill(Diff(u, Finite((1,)))), RankFill(u)),
             (RankFill(u, Fraction(2)), RankFill(u)),
             (RankFill(ArithProg(1, 2)), RankFill(ArithProg(2, 2)))]
    for x, y in pairs:
        walks.clear()
        implication_chain_report(x, y)
        assert len(walks) <= 3
        # Neither relation scans for strict sets that a rank-fill pair cannot have.
        walks.clear()
        anonymity_equivalent(x, y)
        suppes_sen_compare(x, y)
        assert walks == []


def test_every_coordinate_strict_decides_the_density_predicates():
    # y's clause is empty, so x exceeds y at every coordinate.
    x = parse_stream("piecewise(default=2;union(diff(factorials(ap(2,1)),interval(36,47)),"
                     "compl(ap(7,2))):3)")
    y = parse_stream("piecewise(default=1;diff(inter(ap(8,9),ap(1,3)),interval(22,41)):2)")
    # z's strict set against a constant, S union compl(S), has no exact density
    # form; only the empty non-strict set shows that it is all of N.
    z = parse_stream("piecewise(default=2;inter(fintervals[((2k-1)!,(2k)!)],ap(1,2)):3)")
    for a, b in ((x, y), (z, constant(1))):
        report = dict(implication_chain_report(a, b).entries)
        assert all(v.holds for v in report.values()), report
        for name in ("density_one", "lower", "upper"):
            d = report[name].witness_density
            assert d.exact and d.lower == d.upper == 1
    assert not density(strict_set(z, constant(1))).exact
