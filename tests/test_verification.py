import inspect
import itertools
import math
import operator
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import densitylab
from densitylab import indexsets as ix
from densitylab import verification
from densitylab.dsl import parse_set
from densitylab.indexsets import (
    ArithProg,
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    Inter,
    Interval,
    Union,
    member,
)
from densitylab.streams import Piecewise, RankFill, eval_at
from densitylab.verification import (
    CHECK_NAMES,
    SUITE_SIZES,
    brute_force_grading,
    check_specs,
    membership_bits,
    membership_mask,
    random_chain_pair,
    random_decidable_set,
    random_periodic_set,
    random_window_pair,
    run_check,
    run_verification,
)


def test_membership_mask_matches_member():
    rng = random.Random(17)
    for _ in range(25):
        s = random_decidable_set(rng)
        mask = membership_mask(s, 300)
        for t in (1, 2, 50, 144, 299, 300):
            assert bool(mask[t - 1]) == member(s, t)


def _reference_mask(s, n):
    """The numpy mask that membership_bits replaced, kept as its reference."""
    if isinstance(s, Finite):
        mask = np.zeros(n, dtype=bool)
        for e in s.elements:
            if e <= n:
                mask[e - 1] = True
        return mask
    if isinstance(s, ArithProg):
        idx = np.arange(1, n + 1, dtype=np.int64)
        return (idx >= s.a) & ((idx - s.a) % s.d == 0)
    if isinstance(s, Interval):
        idx = np.arange(1, n + 1, dtype=np.int64)
        return (idx >= s.lo) & (idx <= s.hi)
    if isinstance(s, FactorialPoints):
        mask = np.zeros(n, dtype=bool)
        j, f = 1, 1
        while f <= n:
            if member(s.base, j):
                mask[f - 1] = True
            j += 1
            f *= j
        return mask
    if isinstance(s, FactorialIntervals):
        mask = np.zeros(n, dtype=bool)
        for lo, hi in ix._blocks_up_to(s, n):
            mask[lo - 1 : min(hi, n)] = True
        return mask
    if isinstance(s, Union):
        return _reference_mask(s.left, n) | _reference_mask(s.right, n)
    if isinstance(s, Inter):
        return _reference_mask(s.left, n) & _reference_mask(s.right, n)
    if isinstance(s, Compl):
        return ~_reference_mask(s.arg, n)
    if isinstance(s, Diff):
        return _reference_mask(s.left, n) & ~_reference_mask(s.right, n)
    raise TypeError(f"not an index set: {s!r}")


_BIT_SIZES = (0, 1, 7, 8, 9, 63, 64, 65, 720, 5040, 40320)
_FACTORIAL_SETS = (
    "factorials(nat)",
    "compl(factorials(nat))",
    "factorials(ap(2,2))",
    "factorials(compl(factorials(nat)))",
    "fintervals[((2k-1)!,(2k)!)]",
    "compl(fintervals[((2k-1)!,(2k)!)])",
    "fintervals[(3,5);(8,13)]",
    "factorials(fintervals[((2k-1)!,(2k)!)])",
    "union(ap(1000001,1000000),inter(ap(3,7),fintervals[((2k-1)!,(2k)!)]))",
    "diff(interval(5,40000),union(factorials(nat),finite{6,64,65,40320}))",
)


def _bit_corpus():
    rng = random.Random(43)
    sets = [random_decidable_set(rng) for _ in range(300)]
    sets += [random_periodic_set(rng) for _ in range(100)]
    return sets + [parse_set(text) for text in _FACTORIAL_SETS]


def test_membership_bits_match_the_reference_mask():
    for s in _bit_corpus():
        for n in _BIT_SIZES:
            bits = membership_bits(s, n)
            want = _reference_mask(s, n)
            assert 0 <= bits < 1 << n, (s, n)
            assert bits.bit_count() == int(want.sum()), (s, n)
            got = membership_mask(s, n)
            assert got.dtype == bool and got.shape == (n,), (s, n)
            assert (got == want).all(), (s, n)


def test_membership_bits_of_a_wide_progression_is_immediate():
    # One term below n: the bit is placed without building 2**d.
    started = time.perf_counter()
    assert membership_bits(ArithProg(1, 10**12), 40320) == 1
    assert membership_bits(ArithProg(40320, 10**12), 40320) == 1 << 40319
    assert membership_bits(ArithProg(40321, 10**12), 40320) == 0
    assert membership_bits(Compl(ArithProg(1, 10**12)), 40320) == (1 << 40320) - 2
    assert time.perf_counter() - started < 1


def test_membership_bits_of_wide_periods_at_ten_factorial():
    # A few terms of a period near 10**6: linear in n, where the repunit
    # division took seconds a set.
    n = math.factorial(10)
    for text in ("ap(7,1000003)", "union(ap(5,2000003),compl(ap(2,1000033)))",
                 "diff(ap(1000001,1000000),ap(3,97))"):
        s = parse_set(text)
        started = time.perf_counter()
        bits = membership_bits(s, n)
        assert time.perf_counter() - started < 0.5, text
        assert bits.bit_count() == int(_reference_mask(s, n).sum()), text


def test_periodic_generator_is_profiled():
    from densitylab.indexsets import periodic_profile

    rng = random.Random(23)
    for _ in range(40):
        assert periodic_profile(random_periodic_set(rng)) is not None


def test_chain_pairs_weakly_dominate():
    from densitylab.streams import eval_at

    rng = random.Random(29)
    for _ in range(20):
        x, y = random_chain_pair(rng)
        for t in range(1, 120):
            assert eval_at(x, t) >= eval_at(y, t)


def test_specs_cover_all_checks():
    specs = check_specs(seed=3)
    assert [name for name, _, _ in specs] == list(CHECK_NAMES)


def test_run_check_deterministic():
    spec = check_specs(seed=5, density_sets=10)[0]
    assert run_check(spec) == run_check(spec)


def test_suite_sizes_are_the_defaults_of_every_check():
    specs = {name: kwargs for name, _, kwargs in check_specs(seed=5, density_sets=10)}
    assert specs["density_oracle"] == {"sets": 10}
    assert specs["dominance_chain"]["pairs"] == SUITE_SIZES["chain_pairs"]
    assert specs["ratio_inequality"] == {"max_value": SUITE_SIZES["ratio_max"]}
    with pytest.raises(TypeError, match="density_set"):
        check_specs(seed=5, density_set=10)
    for check, keyword, size in (
        (verification.check_density_oracle, "sets", "density_sets"),
        (verification.check_dominance_chain, "pairs", "chain_pairs"),
        (verification.check_cesaro_properties, "trials", "cesaro_trials"),
        (verification.check_grading_windows, "pairs", "grading_pairs"),
        (verification.check_block_certificates, "prefixes", "block_prefixes"),
        (verification.check_ratio_inequality, "max_value", "ratio_max"),
    ):
        assert inspect.signature(check).parameters[keyword].default == SUITE_SIZES[size]


def test_injected_failure_appended():
    results = run_verification(
        seed=1, density_sets=4, chain_pairs=4, cesaro_trials=2, grading_pairs=2,
        block_prefixes=2, ratio_max=6, inject_failure=True,
    )
    assert results[-1].name == "injected_failure" and not results[-1].passed
    assert all(r.passed for r in results[:-1])


def test_oracle_stays_out_of_the_production_path():
    # The brute-force oracle checks the structural code; only verification
    # may call it, or the checks would compare the code with itself.
    pattern = re.compile(r"\b(membership_bits|membership_mask|brute_force_grading)\b")
    package = Path(densitylab.__file__).parent
    users = sorted(p.name for p in package.glob("*.py")
                   if p.name != "verification.py" and pattern.search(p.read_text()))
    assert users == []


def _grading_by_enumeration(x, y, window):
    """The grading principle by definition: try every permutation.

    Values are scaled to ints first, only to make the 8! enumeration fast.
    """
    xs = [eval_at(x, t) for t in window]
    ys = [eval_at(y, t) for t in window]
    scale = math.lcm(*(Fraction(v).denominator for v in xs + ys))
    xs = [int(v * scale) for v in xs]
    ys = [int(v * scale) for v in ys]
    return any(all(map(operator.ge, perm, ys)) for perm in itertools.permutations(xs))


def _random_grading_stream(rng):
    # Rank-fill streams give int ranks next to a Fraction fill value;
    # piecewise streams give Fractions, halves included, so values tie
    # across types (2 == Fraction(4, 2)).
    if rng.random() < 0.4:
        fill_on = Finite(tuple(sorted(rng.sample(range(1, 13), rng.randint(0, 10)))))
        return RankFill(fill_on, Fraction(rng.randint(0, 12), rng.choice((1, 2))))
    return Piecewise(
        Fraction(rng.randint(0, 4)),
        tuple((Finite((t,)), Fraction(rng.randint(0, 12), rng.choice((1, 2))))
              for t in sorted(rng.sample(range(1, 13), rng.randint(0, 8)))),
    )


def test_grading_oracle_matches_enumeration_on_random_windows():
    rng = random.Random(41)
    verdicts = []
    for _ in range(2000):
        x, y = _random_grading_stream(rng), _random_grading_stream(rng)
        window = sorted(rng.sample(range(1, 13), rng.randint(1, 8)))
        want = _grading_by_enumeration(x, y, window)
        assert brute_force_grading(x, y, window) == want, (x, y, window)
        verdicts.append(want)
    assert 200 < sum(verdicts) < 1800  # both answers are well represented


def test_grading_oracle_matches_enumeration_on_verify_corpora():
    for seed in range(6):
        (grading_seed, kwargs), = [(s, kw) for name, s, kw in check_specs(seed=seed)
                                  if name == "grading_windows"]
        rng = random.Random(grading_seed)
        for _ in range(kwargs["pairs"]):
            x, y, window = random_window_pair(rng)
            assert brute_force_grading(x, y, window) == _grading_by_enumeration(x, y, window)
