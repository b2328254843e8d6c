import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitylab import gadgets
from densitylab.gadgets import (
    GadgetError,
    block_set,
    build_sequence_gadget,
    build_threshold_gadget,
    compare_threshold_gadgets,
    compare_thresholds,
    determined_to,
    factorial_ratio_inequality,
    factorial_ratio_terms,
    interval_blocks,
    rational_enum,
    tail_density_certificate,
    threshold_gadget_from_indices,
    verify_density_one_step,
    verify_sequence_chain,
)
from densitylab.indexsets import count, member
from densitylab.streams import FinitePermutation, apply_permutation, eval_at, prefix, scan_pair
from densitylab.verdicts import Status


# -- rational enumeration ------------------------------------------------------


def test_enumeration_start():
    got = [rational_enum(k) for k in range(1, 8)]
    assert got == [
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
        Fraction(2, 5), Fraction(3, 5), Fraction(3, 4),
    ]


def test_enumeration_injective_and_in_range():
    seen = [rational_enum(k) for k in range(1, 10001)]
    assert len(set(seen)) == len(seen)
    assert all(0 < q < 1 for q in seen)


def test_enumeration_covers_small_denominators():
    # every reduced p/q with q <= 6 appears within the first 31 positions
    # (the right-edge fraction 5/6 sits at position 31, the end of level 4)
    targets = {
        Fraction(p, q)
        for q in range(2, 7)
        for p in range(1, q)
        if math.gcd(p, q) == 1
    }
    first31 = {rational_enum(k) for k in range(1, 32)}
    assert targets <= first31
    assert rational_enum(31) == Fraction(5, 6)
    first30 = {rational_enum(k) for k in range(1, 31)}
    assert Fraction(5, 6) not in first30


@given(st.integers(1, 5000), st.integers(1, 5000))
@settings(max_examples=60, deadline=None)
def test_enumeration_injective_property(i, j):
    if i != j:
        assert rational_enum(i) != rational_enum(j)


# -- threshold gadgets -----------------------------------------------------------


def test_reference_instance_prefixes():
    g_r = threshold_gadget_from_indices((1, 2, 3, 4, 7))
    g_s = threshold_gadget_from_indices((1, 2, 7))
    assert prefix(g_r.lower_stream, 7) == [1, 1, 2, 3, 4, 1, 5]
    assert prefix(g_r.upper_stream, 7) == [2, 1, 3, 4, 5, 1, 6]
    assert prefix(g_s.lower_stream, 7) == [1, 1, 2, 3, 4, 5, 6]


def test_canonical_build_covers_horizon():
    g = build_threshold_gadget(Fraction(1, 3), horizon=5040)
    assert g.sound_horizon >= 5040
    assert g.indices[:6] == (1, 2, 3, 5, 6, 7)
    assert g.first_point == 1


def test_density_one_step_verifies():
    g = build_threshold_gadget(Fraction(1, 3), horizon=5040)
    v = verify_density_one_step(g, 5040)
    assert v.holds
    assert v.witness_density.exact and v.witness_density.lower == 1


def test_density_one_step_undecided_below_first_point():
    g = threshold_gadget_from_indices((3, 4, 7))  # first point 3! = 6
    assert verify_density_one_step(g, 5).status is Status.UNDECIDED


def test_reflexive_claim_fails():
    g = threshold_gadget_from_indices((1, 2, 3, 4, 7))
    violation, strict = scan_pair(g.upper_stream, g.upper_stream, 500, g.gap_set)
    assert violation == (3, 3, 3) and strict == 0  # 3 is the first gap coordinate


def test_reference_instance_case_b():
    g_r = threshold_gadget_from_indices((1, 2, 3, 4, 7))
    g_s = threshold_gadget_from_indices((1, 2, 7))
    cmp_res = compare_threshold_gadgets(g_r, g_s, horizon=5040)
    assert cmp_res.case == "b" and cmp_res.u1 == 6 and cmp_res.u2 == 24
    assert cmp_res.all_hold
    zp = apply_permutation(g_r.upper_stream, cmp_res.permutation)
    assert prefix(zp, 7) == [1, 1, 2, 3, 4, 5, 6]
    assert prefix(zp, 23) == prefix(g_s.lower_stream, 23)
    assert eval_at(g_s.lower_stream, 24) == 23
    assert eval_at(zp, 24) == 1
    assert cmp_res.certificate.exact and cmp_res.certificate.lower == 1


def test_reference_permutation_is_the_forced_cycle():
    g_r = threshold_gadget_from_indices((1, 2, 3, 4, 7))
    g_s = threshold_gadget_from_indices((1, 2, 7))
    pi = compare_threshold_gadgets(g_r, g_s, horizon=720).permutation
    assert [pi(t) for t in range(1, 7)] == [6, 2, 1, 3, 4, 5]


def test_compare_case_a():
    cmp_res = compare_thresholds(Fraction(1, 3), Fraction(2, 3), horizon=5040)
    assert cmp_res.case == "a"
    assert cmp_res.permutation is None
    assert cmp_res.all_hold


def test_compare_case_b_small_second_point():
    cmp_res = compare_thresholds(Fraction(1, 4), Fraction(2, 5), horizon=5040)
    assert cmp_res.case == "b"
    assert cmp_res.u1 == 2 and cmp_res.u2 == 24
    assert cmp_res.all_hold


def test_compare_case_b_distant_second_point():
    cmp_res = compare_thresholds(Fraction(1, 3), Fraction(2, 5), horizon=5040)
    assert cmp_res.case == "b"
    assert cmp_res.u2 == math.factorial(10)
    assert cmp_res.all_hold
    assert any(name == "strict_at_second_point" for name, _ in cmp_res.checks)


def test_compare_with_s_above_every_scanned_rational():
    # No index up to the horizon's scan bound has q_n >= 4/5, so both gadgets
    # must be built past it, to the same bound.
    cmp_res = compare_thresholds(Fraction(1, 3), Fraction(4, 5), horizon=40320)
    assert cmp_res.all_hold
    assert cmp_res.case == "a" and cmp_res.u1 == 1 and cmp_res.u2 == 2


def test_equal_thresholds_rejected():
    with pytest.raises(GadgetError):
        compare_thresholds(Fraction(1, 3), Fraction(1, 3))


def test_threshold_validation():
    with pytest.raises(GadgetError):
        build_threshold_gadget(Fraction(3, 2))
    with pytest.raises(GadgetError):
        threshold_gadget_from_indices(())
    with pytest.raises(GadgetError):
        threshold_gadget_from_indices((3, 3))


# -- the factorial ratio inequality ----------------------------------------------


def test_ratio_inequality_reference_values():
    # 720/6 = 120 on the left; 720/120 + 24/6 = 10 on the right
    ts = (1, 2, 3, 4, 5, 6)
    f = math.factorial
    assert f(ts[5]) // f(ts[2]) == 120
    assert f(ts[5]) // f(ts[4]) + f(ts[3]) // f(ts[2]) == 10
    assert factorial_ratio_inequality(ts, 2) is True


def test_ratio_inequality_longer_prefix():
    assert factorial_ratio_inequality((2, 3, 4, 5, 6, 7, 8, 9), 3) is True


def test_ratio_terms_positive():
    terms = factorial_ratio_terms((1, 2, 3, 4, 5, 6), 2)
    assert len(terms) == 2 and all(term > 0 for term in terms)


def test_ratio_terms_regroup_the_difference():
    # the grouped terms, weighted by the pair ratios, recover m*(lhs - rhs)
    for ts, m in (((1, 2, 3, 4, 5, 6), 2), ((2, 3, 5, 6, 8, 9, 11, 12), 3)):
        f = math.factorial
        lhs = Fraction(f(ts[2 * m + 1]), f(ts[2]))
        rhs = sum(Fraction(f(ts[2 * k + 1]), f(ts[2 * k])) for k in range(1, m + 1))
        weights = [Fraction(f(ts[2 * i - 1]), f(ts[2 * i - 2])) for i in range(m + 1, 1, -1)]
        terms = factorial_ratio_terms(ts, m)
        assert sum(w * t for w, t in zip(weights, terms)) == m * (lhs - rhs)


@given(st.sets(st.integers(1, 40), min_size=6, max_size=6), st.just(2))
@settings(max_examples=60, deadline=None)
def test_ratio_inequality_holds_generally_m2(values, m):
    ts = tuple(sorted(values))
    if ts[2] < 3:
        ts = tuple(v + 3 for v in ts)
    assert factorial_ratio_inequality(ts, m) is True
    assert all(term > 0 for term in factorial_ratio_terms(ts, m))


@given(st.sets(st.integers(1, 30), min_size=10, max_size=10))
@settings(max_examples=30, deadline=None)
def test_ratio_inequality_holds_generally_m4(values):
    ts = tuple(sorted(values))
    if ts[2] < 3:
        ts = tuple(v + 3 for v in ts)
    assert factorial_ratio_inequality(ts, 4) is True


def test_ratio_inequality_validation():
    with pytest.raises(GadgetError):
        factorial_ratio_inequality((1, 2, 3, 4, 5, 6), 1)
    with pytest.raises(GadgetError):
        factorial_ratio_inequality((1, 2, 3, 4, 5), 2)
    with pytest.raises(GadgetError):
        factorial_ratio_inequality((1, 2, 2, 4, 5, 6), 2)


# -- sequence gadgets --------------------------------------------------------------


def test_block_construction():
    assert interval_blocks((1, 2, 3)) == [(2, 3)]
    assert count(block_set((1, 2, 3)), 3) == 2  # 3! - 3!/2! - 1! = 2
    assert interval_blocks((1, 2, 3, 4, 5)) == [(2, 3), (7, 115)]
    assert determined_to((1, 2, 3, 4, 5)) == 120


def test_reference_sequence_prefixes():
    g = build_sequence_gadget(tuple(range(1, 8)), "a")
    assert prefix(g.x_full, 7) == [1, 2, 3, 1, 1, 1, 4]
    assert prefix(g.y_full, 4) == [1, 1, 2, 3]
    assert prefix(g.y_full, 25)[19:] == [19, 1, 1, 1, 1, 20]
    assert g.y_full == g.x_sub


def test_case_a_chain():
    g = build_sequence_gadget(tuple(range(1, 8)), "a")
    links = {l.name: l for l in verify_sequence_chain(g, horizon=720)}
    assert links["y_sub_below_x_full"].verdict.holds
    assert links["y_full_equals_x_sub"].verdict.holds
    assert links["x_full_below_y_full"].kind == "assumed"
    assert links["y_sub_below_x_sub"].kind == "derived"


def test_case_a_strictness_on_blocks():
    g = build_sequence_gadget(tuple(range(1, 8)), "a")
    for t in range(1, 720):
        if member(g.set_full, t):
            assert eval_at(g.x_full, t) > eval_at(g.y_sub, t)
        else:
            assert eval_at(g.x_full, t) >= eval_at(g.y_sub, t)


def test_case_b_selection_and_condition():
    g = build_sequence_gadget(tuple(range(1, 9)), "b", m=2)
    assert g.sub == (2, 3, 6, 7, 8)
    assert set(g.sub) <= set(g.ts)
    auto = build_sequence_gadget(tuple(range(1, 9)), "b")
    assert auto.m == 2


def test_case_b_chain_verifies():
    g = build_sequence_gadget(tuple(range(1, 9)), "b", m=2)
    links = {l.name: l for l in verify_sequence_chain(g, horizon=5040)}
    assert links["x_sub_below_y_full"].verdict.holds
    assert links["x_full_below_y_sub"].verdict.holds
    assert links["y_full_below_x_full"].kind == "assumed"
    assert links["x_sub_below_y_sub"].kind == "derived"
    pi = links["x_sub_below_y_full"].permutation
    assert pi is not None
    assert sorted(pi.mapping) == list(range(1, pi.bound + 1))


def test_case_b_rearranged_values_preserved():
    g = build_sequence_gadget(tuple(range(1, 9)), "b", m=2)
    links = {l.name: l for l in verify_sequence_chain(g, horizon=5040)}
    pi = links["x_sub_below_y_full"].permutation
    rearranged = apply_permutation(g.x_sub, pi)
    assert sorted(prefix(rearranged, pi.bound)) == sorted(prefix(g.x_sub, pi.bound))


def test_case_c_structure_and_honest_undecided():
    g = build_sequence_gadget((1, 2, 3, 4, 5, 6, 9, 10), "c")
    assert g.m == 3 and g.sub == (4, 5, 10)
    links = {l.name: l for l in verify_sequence_chain(g, horizon=5040)}
    assert links["y_full_equivalent_x_full"].kind == "assumed"
    assert links["x_sub_below_y_full"].verdict.status is Status.UNDECIDED


def test_case_c_condition_unsatisfiable_reported():
    with pytest.raises(GadgetError) as exc:
        build_sequence_gadget((1, 2, 3, 4, 5, 6), "c")
    assert "cardinality condition" in str(exc.value)


def test_case_b_condition_respected():
    # |U_1| = 2 for a 1,2,3 start; the pair-ratio sum must exceed it
    with pytest.raises(GadgetError):
        build_sequence_gadget((1, 2, 3, 4, 5, 6, 7, 8), "b", m=17)


def test_certificate_rows_are_exact():
    for seq in ((1, 2, 3, 4, 5, 6, 7), (2, 3, 5, 7, 8), (1, 3, 4, 6, 9)):
        cert = tail_density_certificate(seq)
        u = block_set(seq)
        for m, checkpoint, counted, bound in cert.rows:
            assert counted == count(u, checkpoint)
            assert Fraction(counted, checkpoint) >= bound
            f = math.factorial
            assert bound == 1 - Fraction(1, f(seq[2 * m - 1])) - Fraction(
                f(seq[2 * m - 2]), f(seq[2 * m])
            )


def test_invalid_case_rejected():
    with pytest.raises(GadgetError):
        build_sequence_gadget((1, 2, 3, 4), "z")


# -- the sorted matching of rearranged links -------------------------------------


def _reference_matching(moved, fixed, a):
    """The matching as first written, with (-value, position) sort keys."""
    b = len(moved)
    idx = list(range(a, b + 1))
    positions = sorted(idx, key=lambda t: (-fixed[t - 1], t))
    origins = sorted(idx, key=lambda t: (-moved[t - 1], t))
    images = list(range(1, b + 1))
    for pos, org in zip(positions, origins):
        images[pos - 1] = org
    return FinitePermutation(b, tuple(images))


def test_sorted_matching_on_the_sequence_cases(monkeypatch):
    calls = []
    matching = gadgets._sorted_matching

    def recording(moved, fixed, a):
        pi = matching(moved, fixed, a)
        calls.append((moved, fixed, a, pi))
        return pi

    monkeypatch.setattr(gadgets, "_sorted_matching", recording)
    for ts, case, m in (((1, 2, 3, 4, 5, 6, 7), "a", None), ((1, 2, 3, 4, 5, 6, 7, 8), "b", 2),
                        ((1, 2, 3, 4, 5, 6, 9, 10), "c", None)):
        links = verify_sequence_chain(build_sequence_gadget(ts, case, m), horizon=40320)
        made = [l.permutation for l in links if l.permutation is not None]
        assert made == [pi for *_, pi in calls[len(calls) - len(made):]]
    # Case (a) has no rearranged link, and case (c)'s windows pass the cap, so
    # the matchings are case (b)'s two.
    assert len(calls) == 2
    for moved, fixed, a, pi in calls:
        assert pi == _reference_matching(moved, fixed, a)


def test_sorted_matching_on_random_windows_with_ties():
    rng = random.Random(18)
    pool = [1, 2, 3, 4, Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 2)]
    for _ in range(300):
        b = rng.randint(1, 40)
        moved = [rng.choice(pool) for _ in range(b)]
        fixed = [rng.choice(pool[: rng.randint(1, len(pool))]) for _ in range(b)]
        a = rng.randint(1, b)
        assert gadgets._sorted_matching(moved, fixed, a) == _reference_matching(moved, fixed, a)
