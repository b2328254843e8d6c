import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab.dsl import (
    DslError,
    format_permutation,
    format_set,
    format_stream,
    parse_permutation,
    parse_rational,
    parse_set,
    parse_stream,
)
from densitylab.indexsets import (
    ArithProg,
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    IndexSetError,
    Inter,
    Interval,
    Union,
)
from densitylab.streams import FinitePermutation, OverlapError, Piecewise, RankFill, prefix


def test_parse_atoms():
    assert parse_set("finite{1,2,3}") == Finite((1, 2, 3))
    assert parse_set("finite{}") == Finite(())
    assert parse_set("ap(1,2)") == ArithProg(1, 2)
    assert parse_set("nat") == ArithProg(1, 1)
    assert parse_set("interval(3,9)") == Interval(3, 9)
    assert parse_set("factorials") == FactorialPoints(ArithProg(1, 1))
    assert parse_set("factorials(finite{2,4})") == FactorialPoints(Finite((2, 4)))


def test_whitespace_insensitive():
    a = parse_set("union( ap( 1 , 2 ) ,   compl(finite{ 7 }) )")
    b = parse_set("union(ap(1,2),compl(finite{7}))")
    assert a == b == Union(ArithProg(1, 2), Compl(Finite((7,))))


def test_parse_interval_blocks_with_factorial_bounds():
    fi = parse_set("fintervals[(4!+1, 5! - 5!/4!)]")
    assert fi.blocks == ((25, 115),)


def test_parse_block_pattern():
    fam = parse_set("fintervals[((2k-1)!, (2k)!)]")
    assert isinstance(fam, FactorialIntervals) and fam.pattern is not None
    assert fam.pattern.start == 1


def test_parse_shifted_pattern():
    fam = parse_set("fintervals[(1,2);((2k-1)!,(2k)!)@2]")
    assert fam.blocks == ((1, 2),) and fam.pattern.start == 2


def test_parse_streams():
    assert parse_stream("const(1/2)") == Piecewise(Fraction(1, 2))
    assert parse_stream("const(-3)") == Piecewise(Fraction(-3))
    pw = parse_stream("piecewise(default=0; ap(2,2):1)")
    assert pw == Piecewise(0, ((ArithProg(2, 2), Fraction(1)),))
    rf = parse_stream("rankfill(factorials(finite{1,2,3,4,7}))")
    assert prefix(rf, 7) == [1, 1, 2, 3, 4, 1, 5]
    rf2 = parse_stream("rankfill(finite{2,4}, -3/2)")
    assert isinstance(rf2, RankFill) and rf2.fill == Fraction(-3, 2)


def test_parse_permutations():
    p = parse_permutation("perm[6](1->6,3->1,4->3,5->4,6->5)")
    assert p(1) == 6 and p(2) == 2 and p(6) == 5
    assert parse_permutation("perm[3]()") == FinitePermutation.identity(3)


def test_parse_rationals():
    assert parse_rational("3") == 3
    assert parse_rational("-2/5") == Fraction(-2, 5)
    with pytest.raises(DslError):
        parse_rational("1/0")


def test_error_positions():
    with pytest.raises(DslError) as exc:
        parse_set("union(ap(1,2) ap(2,2))")
    assert exc.value.position == 14
    with pytest.raises(DslError) as exc:
        parse_set("bogus(1)")
    assert exc.value.position == 0
    with pytest.raises(DslError):
        parse_set("ap(1,2) trailing")


PARSERS = [
    (parse_set, "union(ap(1,2),finite{3})"),
    (parse_stream, "piecewise(default=1/2;ap(2,3):-1)"),
    (parse_permutation, "perm[3](1->2,2->1)"),
    (parse_rational, "-3/4"),
]


@pytest.mark.parametrize("parse, text", PARSERS)
def test_a_repeated_text_gives_the_same_object(parse, text):
    assert parse(text) is parse(text)
    assert 0 < parse.cache_info().maxsize <= 1 << 16


@pytest.mark.parametrize("parse, text, error", [
    (parse_set, "ap(1,2) #", DslError),
    (parse_set, "ap(0,1)", IndexSetError),
    (parse_stream, "piecewise(default=0;ap(1,2):1;ap(1,2):2)", OverlapError),
    (parse_rational, "1/0", DslError),
])
def test_a_failing_text_raises_on_every_repeat(parse, text, error):
    for _ in range(3):
        with pytest.raises(error):
            parse(text)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no int-string limit")
def test_an_integer_past_the_int_string_limit_raises_as_a_lexical_error():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    # Read in text order with the other lexical errors, ahead of any parse error.
    for text in ("x" + digits, digits + "#", "nat " + digits, digits + "(" * 300):
        with pytest.raises(ValueError) as exc:
            parse_set(text)
        assert not isinstance(exc.value, DslError)
    for text, position in (("#" + digits, 0), ("(" * 300 + digits, 256)):
        with pytest.raises(DslError) as exc:
            parse_set(text)
        assert exc.value.position == position


def test_pattern_must_come_last():
    with pytest.raises(DslError):
        parse_set("fintervals[((2k-1)!,(2k)!);(1,2)]")


SET_TEXTS = [
    "finite{1,2,3}",
    "ap(3,7)",
    "interval(2,9)",
    "factorials(ap(1,1))",
    "factorials(finite{1,2,3,4,7})",
    "fintervals[(1,2);((2k-1)!,(2k)!)@2]",
    "fintervals[((2k-1)!,(2k)!)]",
    "fintervals[(4!+1,5!-5!/4!)]",
    "union(diff(nat,finite{1}),inter(ap(2,3),compl(interval(1,10))))",
]


@pytest.mark.parametrize("text", SET_TEXTS)
def test_set_round_trip(text):
    ast = parse_set(text)
    assert parse_set(format_set(ast)) == ast


STREAM_TEXTS = [
    "const(2)",
    "const(-1/3)",
    "piecewise(default=1/3;ap(2,2):5;finite{1}:0)",
    "rankfill(factorials(ap(1,1)))",
    "rankfill(finite{3},7/2)",
]


@pytest.mark.parametrize("text", STREAM_TEXTS)
def test_stream_round_trip(text):
    ast = parse_stream(text)
    assert parse_stream(format_stream(ast)) == ast


def test_permutation_round_trip():
    p = FinitePermutation.cycle([1, 6, 5, 4, 3])
    assert parse_permutation(format_permutation(p)) == p


_atoms = st.one_of(
    st.builds(lambda xs: Finite(tuple(sorted(set(xs)))), st.lists(st.integers(1, 30), max_size=3)),
    st.builds(ArithProg, st.integers(1, 9), st.integers(1, 9)),
    st.builds(lambda lo, w: Interval(lo, lo + w), st.integers(1, 30), st.integers(0, 20)),
    st.builds(lambda b: FactorialPoints(b), st.builds(ArithProg, st.integers(1, 3), st.integers(1, 3))),
)
random_sets = st.recursive(
    _atoms,
    lambda ch: st.one_of(
        st.builds(Union, ch, ch), st.builds(Inter, ch, ch),
        st.builds(Diff, ch, ch), st.builds(Compl, ch),
    ),
    max_leaves=5,
)


@given(random_sets)
@settings(max_examples=100, deadline=None)
def test_generated_set_round_trip(s):
    assert parse_set(format_set(s)) == s


@given(
    st.fractions(min_value=-5, max_value=5),
    st.lists(
        st.tuples(st.integers(1, 20), st.fractions(min_value=-3, max_value=3)),
        max_size=3,
        unique_by=lambda kv: kv[0],
    ),
)
@settings(max_examples=60, deadline=None)
def test_generated_stream_round_trip(default, pairs):
    clauses = tuple((Finite((t,)), v) for t, v in sorted(pairs))
    x = Piecewise(default, clauses)
    assert parse_stream(format_stream(x)) == x
