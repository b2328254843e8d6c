"""The block-pattern limits against sympy's, which only the tests import."""

import dataclasses
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from densitylab import indexsets as ix
from densitylab.densities import _pattern_limits, density
from densitylab.dsl import parse_set
from densitylab.indexsets import (
    Add,
    BlockPattern,
    Div,
    Fact,
    FactorialIntervals,
    Mul,
    Num,
    Sub,
    Var,
)
from densitylab.verification import (
    _DENSE_PATTERN,
    check_specs,
    random_chain_pair,
    random_decidable_set,
)

from conftest import DENSE_FAMILY
from test_densities import NEARLY_TILING, TWO_K

sp = pytest.importorskip("sympy")

TESTS = Path(__file__).parent


def _to_sympy(expr, k):
    if isinstance(expr, ix.Num):
        return sp.Integer(expr.value)
    if isinstance(expr, ix.Var):
        return k
    if isinstance(expr, ix.Add):
        return _to_sympy(expr.left, k) + _to_sympy(expr.right, k)
    if isinstance(expr, ix.Sub):
        return _to_sympy(expr.left, k) - _to_sympy(expr.right, k)
    if isinstance(expr, ix.Mul):
        return _to_sympy(expr.left, k) * _to_sympy(expr.right, k)
    if isinstance(expr, ix.Div):
        return _to_sympy(expr.left, k) / _to_sympy(expr.right, k)
    if isinstance(expr, ix.Fact):
        return sp.factorial(_to_sympy(expr.arg, k))
    raise TypeError(f"not a bound expression: {expr!r}")


def _sympy_limit(expr, k):
    try:
        lim = sp.limit(sp.combsimp(sp.cancel(expr)), k, sp.oo)
    except Exception:
        try:
            lim = sp.limit(expr, k, sp.oo)
        except Exception:
            return None
    if lim is None or not getattr(lim, "is_rational", False):
        return None
    return Fraction(int(lim.p), int(lim.q))


def _sympy_pattern_limits(pattern):
    k = sp.Symbol("k", integer=True, positive=True)
    lo, hi = _to_sympy(pattern.lo, k), _to_sympy(pattern.hi, k)
    l1 = _sympy_limit(lo / hi, k)
    l2 = _sympy_limit(hi / lo.subs(k, k + 1), k)
    return None if l1 is None or l2 is None else (l1, l2)


def _patterns(node):
    """Every block pattern inside a set or stream AST."""
    if isinstance(node, BlockPattern):
        yield node
    elif isinstance(node, tuple):
        for item in node:
            yield from _patterns(item)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from _patterns(getattr(node, field.name))


def _test_patterns():
    """The families the tests build in Python and every one they spell."""
    found = set(_patterns((DENSE_FAMILY, NEARLY_TILING)))
    for path in sorted(TESTS.rglob("*")):
        if path.suffix not in (".py", ".txt"):
            continue
        for text in re.findall(r"fintervals\[[^\]]*\]", path.read_text()):
            try:
                found.update(_patterns(parse_set(text)))
            except ValueError:
                pass  # the input of a parse-error test
    return found


def _verify_patterns():
    """The families in the verify corpora of seeds 0-5."""
    found = {_DENSE_PATTERN}
    for seed in range(6):
        seeds = {name: s for name, s, _ in check_specs(seed=seed)}
        rng = random.Random(seeds["density_oracle"])
        for _ in range(200):
            found.update(_patterns(random_decidable_set(rng)))
        rng = random.Random(seeds["dominance_chain"])
        for _ in range(500):
            found.update(_patterns(random_chain_pair(rng)))
    return found


def _workload_families():
    """The four shapes of the benchmark's block families, 40 seeds each."""
    sys.path.insert(0, str(TESTS.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    families = []
    for seed in range(40):
        rng = random.Random(seed)
        families.extend(workloads._pattern(rng, shape) for shape in range(4))
    return families


THREE_K = Mul(Num(3), Var())
# In-fragment bounds with limits other than 0, 1 and 1/v, as the corpora
# have none: polynomial factors with leading coefficients, mixed slopes,
# and factorials below the top one.
EXTRA_PATTERNS = {
    BlockPattern(Mul(Var(), Fact(TWO_K)), Fact(Add(TWO_K, Num(1)))),
    BlockPattern(Div(Mul(Num(2), Fact(THREE_K)), Num(3)), Sub(Fact(THREE_K), Fact(Var()))),
    BlockPattern(Add(Fact(TWO_K), Mul(Num(7), Fact(Var()))),
                 Sub(Mul(Num(3), Fact(Add(TWO_K, Num(2)))), Fact(Add(Var(), Num(3))))),
    BlockPattern(Div(Fact(TWO_K), Fact(Sub(TWO_K, Num(2)))), Mul(Num(5), Mul(Var(), Var()))),
    BlockPattern(Mul(Sub(Mul(Num(3), Var()), Num(1)), Fact(Sub(THREE_K, Num(1)))),
                 Add(Fact(THREE_K), Div(Fact(Add(THREE_K, Num(2))), Mul(Num(4), Var())))),
}


def test_limits_agree_with_sympy_on_every_corpus_pattern():
    families = _workload_families()
    patterns = (_test_patterns() | _verify_patterns() | {fi.pattern for fi, _ in families}
                | EXTRA_PATTERNS)
    # The start index does not enter the limits; sympy runs once per bound pair.
    by_bounds = {(p.lo, p.hi): p for p in patterns}
    assert len(by_bounds) >= 20
    for pattern in by_bounds.values():
        mine = _pattern_limits(pattern)
        assert mine is not None, pattern
        assert mine == _sympy_pattern_limits(pattern), pattern
    for fi, known in families:
        d = density(fi)
        assert d.exact and (d.lower, d.upper) == known, fi


def test_zero_times_an_out_of_fragment_factorial_folds_to_zero():
    # As sympy does: 0 * (40 - k)! is 0, so the pattern stays in the fragment.
    hi = Add(Add(TWO_K, Num(1)), Mul(Num(0), Fact(Sub(Num(40), Var()))))
    assert _pattern_limits(BlockPattern(TWO_K, hi)) == (1, 1)


@pytest.mark.parametrize("lo, hi", [
    (Mul(Fact(Var()), Fact(Var())), Fact(TWO_K)),  # two factorial terms multiplied
    (Fact(TWO_K), Add(Fact(Add(TWO_K, Num(1))), Fact(Sub(Num(40), Var())))),  # (40 - k)!
    (Fact(Sub(Num(40), Var())), Fact(TWO_K)),
])
def test_bounds_outside_the_fragment_have_no_limit(lo, hi):
    assert _pattern_limits(BlockPattern(lo, hi)) is None


def test_family_outside_the_fragment_gets_a_labelled_estimate():
    square = Mul(Fact(Var()), Fact(Var()))
    family = FactorialIntervals(pattern=BlockPattern(square, Add(square, Num(1))))
    assert _pattern_limits(family.pattern) is None
    assert not density(family, max_checkpoint=5040).exact
