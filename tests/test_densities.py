from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.densities import (
    checkpoint_schedule,
    contains_long_intervals,
    density,
    sym_diff_finite,
)
from densitylab.indexsets import (
    NAT,
    ArithProg,
    BlockPattern,
    Compl,
    Diff,
    Fact,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    Inter,
    Interval,
    Mul,
    Num,
    Sub,
    Union,
    Var,
    count,
)

from conftest import DENSE_FAMILY

FACTS = FactorialPoints(NAT)


def test_factorials_have_density_zero():
    d = density(FACTS)
    assert d.exact and d.lower == 0 and d.upper == 0


def test_factorial_complement_has_density_one():
    d = density(Compl(FACTS))
    assert d.exact and d.lower == 1 and d.upper == 1


def test_progression_density():
    for a, dd in ((1, 2), (5, 5), (2, 9)):
        r = density(ArithProg(a, dd))
        assert r.exact and r.lower == r.upper == Fraction(1, dd)


def test_interval_family_densities():
    d = density(DENSE_FAMILY)
    assert d.exact and d.lower == 0 and d.upper == 1


def test_interval_family_complement():
    d = density(Compl(DENSE_FAMILY))
    assert d.exact and d.lower == 0 and d.upper == 1


def test_nearly_tiling_block_family_has_density_one():
    # blocks ((2k-1)!, (2k+1)! - (2k+1)!/(2k)!] leave asymptotically
    # negligible gaps, so the family has full density
    from densitylab.indexsets import Add, Div

    two_k = Mul(Num(2), Var())
    dense = FactorialIntervals(
        pattern=BlockPattern(
            lo=Add(Fact(Sub(two_k, Num(1))), Num(1)),
            hi=Sub(Fact(Add(two_k, Num(1))), Div(Fact(Add(two_k, Num(1))), Fact(two_k))),
        )
    )
    d = density(dense)
    assert d.exact and d.lower == 1 and d.upper == 1


def test_union_of_residue_classes():
    d = density(Union(ArithProg(1, 2), ArithProg(2, 2)))
    assert d.exact and d.lower == d.upper == 1


def test_union_with_null_set_is_transparent():
    d = density(Union(FACTS, ArithProg(1, 3)))
    assert d.exact and d.lower == d.upper == Fraction(1, 3)


def test_difference_by_null_set_is_transparent():
    s = Diff(Compl(FACTS), Interval(1, 24))
    d = density(s)
    assert d.exact and d.lower == d.upper == 1


def test_intersection_with_density_one_set():
    d = density(Inter(Compl(FACTS), ArithProg(1, 2)))
    assert d.exact and d.lower == d.upper == Fraction(1, 2)


def test_complement_duality():
    for s in (ArithProg(3, 4), FACTS, DENSE_FAMILY, Union(ArithProg(1, 2), FACTS)):
        d = density(s)
        c = density(Compl(s))
        assert c.lower == 1 - d.upper and c.upper == 1 - d.lower


def test_estimate_fallback_is_flagged():
    s = Inter(DENSE_FAMILY, ArithProg(1, 2))
    d = density(s, max_checkpoint=5040)
    assert not d.exact
    assert d.evidence
    for n, c, ratio in d.evidence:
        assert c == count(s, n) and ratio == Fraction(c, n)
    assert 0 <= d.lower <= d.upper <= 1


def test_checkpoint_schedule_shape():
    sched = checkpoint_schedule(3628800)
    assert 5040 in sched and 3628800 in sched and 1024 in sched
    assert sched == tuple(sorted(sched))


periodic_sets = st.recursive(
    st.one_of(
        st.builds(lambda xs: Finite(tuple(sorted(set(xs)))), st.lists(st.integers(1, 30), max_size=3)),
        st.builds(ArithProg, st.integers(1, 6), st.integers(1, 6)),
        st.builds(lambda lo, w: Interval(lo, lo + w), st.integers(1, 20), st.integers(0, 20)),
    ),
    lambda ch: st.one_of(
        st.builds(Union, ch, ch), st.builds(Inter, ch, ch), st.builds(Diff, ch, ch), st.builds(Compl, ch)
    ),
    max_leaves=5,
)


@given(periodic_sets)
@settings(max_examples=80, deadline=None)
def test_exact_densities_are_ordered(s):
    d = density(s)
    assert d.exact
    assert 0 <= d.lower <= d.upper <= 1


@given(periodic_sets, st.lists(st.integers(1, 25), min_size=1, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
def test_finite_modification_preserves_densities(s, extra):
    modified = Diff(Union(s, Finite(tuple(sorted(extra)))), Finite((extra[0],)))
    assert sym_diff_finite(s, modified) is True
    a, b = density(s), density(modified)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def test_sym_diff_structural_decisions():
    assert sym_diff_finite(FACTS, Diff(FACTS, Finite((1,)))) is True
    assert sym_diff_finite(ArithProg(1, 2), ArithProg(2, 2)) is False
    assert sym_diff_finite(FACTS, ArithProg(1, 2)) is False  # densities differ
    assert sym_diff_finite(Inter(DENSE_FAMILY, ArithProg(1, 2)), Inter(DENSE_FAMILY, ArithProg(1, 3))) is None


def test_long_interval_recognition():
    assert contains_long_intervals(DENSE_FAMILY)
    assert contains_long_intervals(Compl(DENSE_FAMILY))
    assert not contains_long_intervals(ArithProg(1, 2))
    assert not contains_long_intervals(FactorialIntervals(((1, 10),)))
