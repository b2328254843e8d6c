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
from densitylab.dsl import parse_stream
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
    Piecewise,
    RankFill,
    apply_permutation,
    constant,
    strict_set,
)
from densitylab.verdicts import Status
from densitylab.verification import brute_force_grading, random_chain_pair, random_window_pair

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


def test_lex_undecided_without_structural_equality():
    x = Piecewise(0, ((FACTS, Fraction(0)),))  # equals const(0) pointwise
    assert lex_compare(x, constant(0), horizon=200).status is Status.UNDECIDED


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
