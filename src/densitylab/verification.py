"""Randomized corpora and the invariant suite behind the verify command.

Each check returns a CheckResult with JSON-friendly details; the whole
suite is deterministic for a fixed seed.  The brute-force counting oracle
is a vectorized membership mask computed from the definitional semantics
of each node, independent of the closed-form counting path.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import indexsets as ix
from .densities import density, sym_diff_finite
from .dominance import (
    CHAIN_ORDER,
    implication_chain_report,
    suppes_sen_compare,
)
from .dsl import format_set
from .gadgets import (
    block_set,
    build_sequence_gadget,
    build_threshold_gadget,
    compare_threshold_gadgets,
    compare_thresholds,
    factorial_ratio_inequality,
    factorial_ratio_terms,
    tail_density_certificate,
    threshold_gadget_from_indices,
    verify_density_one_step,
    verify_sequence_chain,
)
from .indexsets import (
    DEFAULT_HORIZON,
    ArithProg,
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    IndexSet,
    Inter,
    Interval,
    Union,
    count,
)
from .streams import FinitePermutation, Piecewise, apply_permutation, eval_at, prefix
from .verdicts import Status
from .welfare import cesaro_liminf

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CheckResult",
    "membership_mask",
    "random_periodic_set",
    "random_decidable_set",
    "random_chain_pair",
    "random_window_pair",
    "brute_force_grading",
    "run_verification",
    "CHECK_NAMES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict


# ---------------------------------------------------------------------------
# The independent counting oracle
# ---------------------------------------------------------------------------


def membership_mask(s: IndexSet, n: int) -> np.ndarray:
    """Boolean membership of 1..n by definitional semantics, vectorized."""
    import numpy as np  # here, so that importing the CLI does not load numpy

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
            if ix.member(s.base, j):
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
        return membership_mask(s.left, n) | membership_mask(s.right, n)
    if isinstance(s, Inter):
        return membership_mask(s.left, n) & membership_mask(s.right, n)
    if isinstance(s, Compl):
        return ~membership_mask(s.arg, n)
    if isinstance(s, Diff):
        return membership_mask(s.left, n) & ~membership_mask(s.right, n)
    raise TypeError(f"not an index set: {s!r}")


# ---------------------------------------------------------------------------
# Random corpora
# ---------------------------------------------------------------------------


def _random_atom(rng: random.Random) -> IndexSet:
    kind = rng.randrange(5)
    if kind == 0:
        size = rng.randrange(0, 5)
        elems = sorted(rng.sample(range(1, 60), size))
        return Finite(tuple(elems))
    if kind == 1:
        return ArithProg(rng.randint(1, 12), rng.randint(1, 9))
    if kind == 2:
        lo = rng.randint(1, 40)
        return Interval(lo, lo + rng.randrange(0, 50))
    if kind == 3:
        return FactorialPoints(ArithProg(rng.randint(1, 3), rng.randint(1, 3)))
    blocks = []
    edge = 0
    for _ in range(rng.randrange(1, 4)):
        lo = edge + rng.randint(1, 30)
        hi = lo + rng.randint(1, 40)
        blocks.append((lo, hi))
        edge = hi
    return FactorialIntervals(tuple(blocks))


def random_decidable_set(rng: random.Random, depth: int = 3) -> IndexSet:
    """A random AST over the decidable fragment (used by the count oracle)."""
    if depth == 0 or rng.random() < 0.4:
        return _random_atom(rng)
    kind = rng.randrange(4)
    if kind == 0:
        return Union(random_decidable_set(rng, depth - 1), random_decidable_set(rng, depth - 1))
    if kind == 1:
        return Inter(random_decidable_set(rng, depth - 1), random_decidable_set(rng, depth - 1))
    if kind == 2:
        return Diff(random_decidable_set(rng, depth - 1), random_decidable_set(rng, depth - 1))
    return Compl(random_decidable_set(rng, depth - 1))


def random_periodic_set(rng: random.Random, depth: int = 2) -> IndexSet:
    """A random eventually-periodic set (profiles always exist)."""
    if depth == 0 or rng.random() < 0.5:
        kind = rng.randrange(3)
        if kind == 0:
            size = rng.randrange(0, 4)
            return Finite(tuple(sorted(rng.sample(range(1, 40), size))))
        if kind == 1:
            return ArithProg(rng.randint(1, 8), rng.randint(1, 6))
        lo = rng.randint(1, 30)
        return Interval(lo, lo + rng.randrange(0, 30))
    kind = rng.randrange(4)
    if kind == 0:
        return Union(random_periodic_set(rng, depth - 1), random_periodic_set(rng, depth - 1))
    if kind == 1:
        return Inter(random_periodic_set(rng, depth - 1), random_periodic_set(rng, depth - 1))
    if kind == 2:
        return Diff(random_periodic_set(rng, depth - 1), random_periodic_set(rng, depth - 1))
    return Compl(random_periodic_set(rng, depth - 1))


_DENSE_PATTERN = ix.BlockPattern(
    lo=ix.Fact(ix.Sub(ix.Mul(ix.Num(2), ix.Var()), ix.Num(1))),
    hi=ix.Fact(ix.Mul(ix.Num(2), ix.Var())),
)


def _strict_patterns(rng: random.Random):
    """Strict-improvement patterns with decidable verdicts at every level."""
    facts = FactorialPoints(ArithProg(1, 1))
    fam = FactorialIntervals(pattern=_DENSE_PATTERN)
    periodic = [
        Compl(Finite(())),
        Compl(Finite(tuple(sorted(rng.sample(range(1, 30), rng.randint(1, 4)))))),
        ArithProg(rng.randint(1, 6), rng.randint(2, 6)),
        Finite(tuple(sorted(rng.sample(range(1, 30), rng.randint(1, 5))))),
        Finite(()),
        Union(ArithProg(1, 3), ArithProg(2, 3)),
    ]
    factorial = [facts, Compl(facts), fam, Compl(fam), FactorialPoints(ArithProg(2, 2))]
    return periodic, factorial


def random_chain_pair(rng: random.Random):
    """A stream pair x >= y whose strict set admits exact verdicts."""
    periodic, factorial = _strict_patterns(rng)
    gap = Fraction(rng.choice((1, 1, 2, Fraction(1, 2), 0)))
    if rng.random() < 0.5:
        # Periodic strict pattern over a refined periodic baseline.
        pattern = rng.choice(periodic)
        d = rng.choice((2, 3))
        clauses = []
        for r in range(1, d):
            if rng.random() < 0.7:
                region = ArithProg(r, d)
                v = Fraction(rng.randint(0, 3))
                clauses.append((region, v))
        y = Piecewise(Fraction(rng.randint(0, 2)), tuple(clauses))
        x_clauses = []
        for region, v in clauses:
            x_clauses.append((Inter(region, pattern), v + gap))
            x_clauses.append((Diff(region, pattern), v))
        covered = None
        for region, _ in clauses:
            covered = region if covered is None else Union(covered, region)
        default_region = Compl(covered) if covered is not None else Compl(Finite(()))
        x_clauses.append((Inter(default_region, pattern), y.default + gap))
        x = Piecewise(y.default, tuple(x_clauses))
    else:
        # Factorial strict pattern over a constant baseline.
        pattern = rng.choice(factorial)
        base = Fraction(rng.randint(0, 2))
        y = Piecewise(base)
        x = Piecewise(base, ((pattern, base + gap),))
    return x, y


def random_window_pair(rng: random.Random, max_window: int = 8):
    """Streams equal outside a small explicit window, for grading checks."""
    size = rng.choice((2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8))
    size = min(size, max_window)
    window = sorted(rng.sample(range(1, 20), size))
    default = Fraction(rng.randint(0, 2))
    xv = [rng.randint(0, 4) for _ in window]
    yv = [rng.randint(0, 4) for _ in window]
    x = Piecewise(default, tuple((Finite((t,)), Fraction(v)) for t, v in zip(window, xv)))
    y = Piecewise(default, tuple((Finite((t,)), Fraction(v)) for t, v in zip(window, yv)))
    return x, y, window


def brute_force_grading(x, y, window) -> bool:
    """Whether some permutation of x's window values dominates y's."""
    xs = [eval_at(x, t) for t in window]
    ys = [eval_at(y, t) for t in window]
    return any(
        all(a >= b for a, b in zip(perm, ys)) for perm in itertools.permutations(xs)
    )


# ---------------------------------------------------------------------------
# Suite checks
# ---------------------------------------------------------------------------


def check_density_oracle(rng: random.Random, sets: int = 200,
                         checkpoints=(720, 5040, 40320)) -> CheckResult:
    mismatches = []
    for i in range(sets):
        s = random_decidable_set(rng)
        for n in checkpoints:
            structural = count(s, n)
            brute = int(membership_mask(s, n).sum())
            if structural != brute:
                mismatches.append(
                    {"set": format_set(s), "n": n, "count": structural, "brute": brute}
                )
    return CheckResult(
        name="density_oracle",
        passed=not mismatches,
        details={"sets": sets, "checkpoints": list(checkpoints), "mismatches": mismatches},
    )


def check_reference_densities() -> CheckResult:
    facts = FactorialPoints(ArithProg(1, 1))
    fam = FactorialIntervals(pattern=_DENSE_PATTERN)
    rows = []
    ok = True
    for name, s, lo, hi in (
        ("factorial_points", facts, Fraction(0), Fraction(0)),
        ("factorial_points_complement", Compl(facts), Fraction(1), Fraction(1)),
        ("interval_family", fam, Fraction(0), Fraction(1)),
        ("interval_family_complement", Compl(fam), Fraction(0), Fraction(1)),
    ):
        d = density(s)
        good = d.exact and d.lower == lo and d.upper == hi
        ok = ok and good
        rows.append({"set": name, "lower": str(d.lower), "upper": str(d.upper),
                     "exact": d.exact, "ok": good})
    return CheckResult(name="reference_densities", passed=ok, details={"rows": rows})


def check_dominance_chain(rng: random.Random, pairs: int = 500,
                          horizon: int = DEFAULT_HORIZON) -> CheckResult:
    violations = []
    undecided = 0
    holds_hist = {name: 0 for name in CHAIN_ORDER}
    for i in range(pairs):
        x, y = random_chain_pair(rng)
        report = implication_chain_report(x, y, horizon)
        for name, verdict in report.entries:
            if verdict.status is Status.HOLDS:
                holds_hist[name] += 1
            elif verdict.status is Status.UNDECIDED:
                undecided += 1
        for stronger, weaker in report.violations:
            violations.append({"pair": i, "stronger": stronger, "weaker": weaker})
    return CheckResult(
        name="dominance_chain",
        passed=not violations and undecided == 0,
        details={"pairs": pairs, "violations": violations,
                 "undecided_verdicts": undecided, "holds_counts": holds_hist},
    )


def check_cesaro_properties(rng: random.Random, trials: int = 100) -> CheckResult:
    anomalies = []
    for i in range(trials):
        # Anonymity: a finite permutation never moves the Cesàro value.
        d = rng.choice((2, 3, 4))
        clauses = tuple(
            (ArithProg(r, d), Fraction(rng.randint(0, 5)))
            for r in range(1, d)
            if rng.random() < 0.8
        )
        base = Piecewise(Fraction(rng.randint(0, 3)), clauses)
        n = rng.randint(1, 40)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        permuted = apply_permutation(base, FinitePermutation(n, tuple(images)))
        a, b = cesaro_liminf(base), cesaro_liminf(permuted)
        if a != b:
            anomalies.append({"trial": i, "kind": "anonymity", "a": str(a), "b": str(b)})
        # Sensitivity: a positive gap off a finite exception set (a strict
        # set of density one) strictly raises the value.
        exceptions = tuple(sorted(rng.sample(range(1, 30), rng.randint(0, 3))))
        exc_set = Finite(exceptions)
        gap = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
        y = base
        x = Piecewise(
            y.default + gap,
            tuple((Diff(s, exc_set), v + gap) for s, v in y.clauses)
            + tuple((Finite((t,)), eval_at(y, t)) for t in exceptions),
        )
        wx, wy = cesaro_liminf(x), cesaro_liminf(y)
        if not (wx.kind == wy.kind == "finite" and wx.value > wy.value):
            anomalies.append({"trial": i, "kind": "sensitivity",
                              "x": str(wx.value), "y": str(wy.value)})
    return CheckResult(
        name="cesaro_properties",
        passed=not anomalies,
        details={"trials": trials, "anomalies": anomalies},
    )


def check_threshold_gadgets(horizon: int = DEFAULT_HORIZON) -> CheckResult:
    rows = []
    ok = True

    g = build_threshold_gadget(Fraction(1, 3), horizon=horizon)
    v = verify_density_one_step(g, horizon)
    rows.append({"check": "density_one_step_r=1/3", "status": str(v.status)})
    ok = ok and v.holds

    for r, s, want_case in ((Fraction(1, 3), Fraction(2, 3), "a"),
                            (Fraction(1, 4), Fraction(2, 5), "b")):
        cmpres = compare_thresholds(r, s, horizon=horizon)
        good = cmpres.case == want_case and cmpres.all_hold
        rows.append({"check": f"compare_{r}_{s}", "case": cmpres.case, "ok": good})
        ok = ok and good

    g_r = threshold_gadget_from_indices((1, 2, 3, 4, 7))
    g_s = threshold_gadget_from_indices((1, 2, 7))
    expected = {
        "lower": [1, 1, 2, 3, 4, 1, 5],
        "upper": [2, 1, 3, 4, 5, 1, 6],
        "challenger": [1, 1, 2, 3, 4, 5, 6],
    }
    got = {
        "lower": [int(q) for q in prefix(g_r.lower_stream, 7)],
        "upper": [int(q) for q in prefix(g_r.upper_stream, 7)],
        "challenger": [int(q) for q in prefix(g_s.lower_stream, 7)],
    }
    good = got == expected
    rows.append({"check": "reference_prefixes", "ok": good, "got": got})
    ok = ok and good
    cmpres = compare_threshold_gadgets(g_r, g_s, horizon=horizon)
    good = cmpres.case == "b" and cmpres.u1 == 6 and cmpres.u2 == 24 and cmpres.all_hold
    rows.append({"check": "reference_instance_case_b", "ok": good})
    ok = ok and good
    return CheckResult(name="threshold_gadgets", passed=ok, details={"rows": rows})


def check_ratio_inequality(max_value: int = 12, ms=(2, 3, 4)) -> CheckResult:
    failures = []
    checked = 0
    for m in ms:
        length = 2 * m + 2
        for combo in itertools.combinations(range(1, max_value + 1), length):
            checked += 1
            if not factorial_ratio_inequality(combo, m):
                failures.append({"t": list(combo), "m": m, "kind": "main"})
            if any(term <= 0 for term in factorial_ratio_terms(combo, m)):
                failures.append({"t": list(combo), "m": m, "kind": "terms"})
    return CheckResult(
        name="ratio_inequality",
        passed=not failures,
        details={"checked": checked, "failures": failures},
    )


def check_block_certificates(rng: random.Random, prefixes: int = 20,
                             brute_cap: int = 3628800) -> CheckResult:
    failures = []
    rows = 0
    for i in range(prefixes):
        length = rng.randint(3, 8)
        seq = tuple(sorted(rng.sample(range(1, 13), length)))
        u = block_set(seq)
        for m, checkpoint, counted, bound in tail_density_certificate(seq).rows:
            if checkpoint > brute_cap:
                continue
            rows += 1
            brute = int(membership_mask(u, checkpoint).sum())
            if brute != counted:
                failures.append({"seq": list(seq), "m": m, "counted": counted, "brute": brute})
            if Fraction(counted, checkpoint) < bound:
                failures.append({"seq": list(seq), "m": m, "kind": "bound"})
    return CheckResult(
        name="block_certificates",
        passed=not failures and rows > 0,
        details={"prefixes": prefixes, "rows_checked": rows, "failures": failures},
    )


def check_grading_windows(rng: random.Random, pairs: int = 100) -> CheckResult:
    disagreements = []
    alternating_ok = False
    x = Piecewise(0, ((ArithProg(1, 2), Fraction(1)),))
    y = Piecewise(0, ((ArithProg(2, 2), Fraction(1)),))
    alternating_ok = suppes_sen_compare(x, y).status is Status.INCOMPARABLE
    for i in range(pairs):
        x, y, window = random_window_pair(rng)
        verdict = suppes_sen_compare(x, y)
        brute = brute_force_grading(x, y, window)
        if (verdict.status is Status.HOLDS) != brute:
            disagreements.append({"pair": i, "verdict": str(verdict.status), "brute": brute})
    return CheckResult(
        name="grading_windows",
        passed=alternating_ok and not disagreements,
        details={"pairs": pairs, "alternating_incomparable": alternating_ok,
                 "disagreements": disagreements},
    )


def check_sequence_chains(horizon: int = DEFAULT_HORIZON) -> CheckResult:
    rows = []
    ok = True
    ga = build_sequence_gadget(tuple(range(1, 8)), "a")
    links = {l.name: l for l in verify_sequence_chain(ga, horizon)}
    good = (
        links["y_sub_below_x_full"].verdict.holds
        and links["y_full_equals_x_sub"].verdict.holds
        and links["x_full_below_y_full"].kind == "assumed"
    )
    rows.append({"case": "a", "ok": good})
    ok = ok and good
    gb = build_sequence_gadget(tuple(range(1, 9)), "b", m=2)
    links = {l.name: l for l in verify_sequence_chain(gb, horizon)}
    good = (
        links["x_sub_below_y_full"].verdict.holds
        and links["x_full_below_y_sub"].verdict.holds
        and links["y_full_below_x_full"].kind == "assumed"
    )
    rows.append({"case": "b", "ok": good})
    ok = ok and good
    gc = build_sequence_gadget((1, 2, 3, 4, 5, 6, 9, 10), "c")
    links = {l.name: l for l in verify_sequence_chain(gc, horizon)}
    good = (
        links["y_full_equivalent_x_full"].kind == "assumed"
        and links["x_sub_below_y_full"].verdict.status is Status.UNDECIDED
    )
    rows.append({"case": "c", "ok": good, "note": "first link window exceeds the cap"})
    ok = ok and good
    return CheckResult(name="sequence_chains", passed=ok, details={"rows": rows})


def check_symmetric_difference(rng: random.Random, trials: int = 60) -> CheckResult:
    anomalies = []
    for i in range(trials):
        a = random_periodic_set(rng)
        drop = Finite(tuple(sorted(rng.sample(range(1, 25), rng.randint(1, 3)))))
        b = Diff(a, drop) if rng.random() < 0.5 else Union(a, drop)
        if sym_diff_finite(a, b) is not True:  # False or undecided
            anomalies.append({"trial": i, "kind": "finite_mod"})
        else:
            da, db = density(a), density(b)
            if (da.lower, da.upper) != (db.lower, db.upper):
                anomalies.append({"trial": i, "kind": "density_mismatch"})
    return CheckResult(
        name="symmetric_difference",
        passed=not anomalies,
        details={"trials": trials, "anomalies": anomalies},
    )


CHECK_NAMES = (
    "density_oracle",
    "reference_densities",
    "dominance_chain",
    "cesaro_properties",
    "threshold_gadgets",
    "ratio_inequality",
    "block_certificates",
    "grading_windows",
    "sequence_chains",
    "symmetric_difference",
)


def check_specs(
    seed: int = 0,
    density_sets: int = 200,
    chain_pairs: int = 500,
    cesaro_trials: int = 100,
    grading_pairs: int = 100,
    block_prefixes: int = 20,
    ratio_max: int = 12,
    horizon: int = DEFAULT_HORIZON,
) -> list[tuple]:
    """Deterministic (name, seed, kwargs) specs for the whole suite."""
    rng = random.Random(seed)
    seeds = {name: rng.getrandbits(64) for name in CHECK_NAMES}
    return [
        ("density_oracle", seeds["density_oracle"], {"sets": density_sets}),
        ("reference_densities", 0, {}),
        ("dominance_chain", seeds["dominance_chain"],
         {"pairs": chain_pairs, "horizon": horizon}),
        ("cesaro_properties", seeds["cesaro_properties"], {"trials": cesaro_trials}),
        ("threshold_gadgets", 0, {"horizon": horizon}),
        ("ratio_inequality", 0, {"max_value": ratio_max}),
        ("block_certificates", seeds["block_certificates"], {"prefixes": block_prefixes}),
        ("grading_windows", seeds["grading_windows"], {"pairs": grading_pairs}),
        ("sequence_chains", 0, {"horizon": horizon}),
        ("symmetric_difference", seeds["symmetric_difference"], {}),
    ]


_CHECKS_BY_NAME = {
    "density_oracle": check_density_oracle,
    "dominance_chain": check_dominance_chain,
    "cesaro_properties": check_cesaro_properties,
    "block_certificates": check_block_certificates,
    "grading_windows": check_grading_windows,
    "symmetric_difference": check_symmetric_difference,
}
_SEEDLESS_CHECKS = {
    "reference_densities": check_reference_densities,
    "threshold_gadgets": check_threshold_gadgets,
    "ratio_inequality": check_ratio_inequality,
    "sequence_chains": check_sequence_chains,
}


def run_check(spec: tuple) -> CheckResult:
    """Execute one spec (safe to run in a worker process)."""
    name, seed, kwargs = spec
    if name in _SEEDLESS_CHECKS:
        return _SEEDLESS_CHECKS[name](**kwargs)
    return _CHECKS_BY_NAME[name](random.Random(seed), **kwargs)


def run_verification(
    seed: int = 0,
    density_sets: int = 200,
    chain_pairs: int = 500,
    cesaro_trials: int = 100,
    grading_pairs: int = 100,
    block_prefixes: int = 20,
    ratio_max: int = 12,
    horizon: int = DEFAULT_HORIZON,
    inject_failure: bool = False,
    parallelism: int = 1,
) -> list[CheckResult]:
    """Run the whole invariant suite deterministically for the seed.

    With parallelism > 1 the checks run in worker processes; the report
    order stays that of the spec list either way.
    """
    specs = check_specs(
        seed=seed,
        density_sets=density_sets,
        chain_pairs=chain_pairs,
        cesaro_trials=cesaro_trials,
        grading_pairs=grading_pairs,
        block_prefixes=block_prefixes,
        ratio_max=ratio_max,
        horizon=horizon,
    )
    if parallelism > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(run_check, specs))
    else:
        results = [run_check(spec) for spec in specs]
    if inject_failure:
        results.append(
            CheckResult(
                name="injected_failure",
                passed=False,
                details={"note": "test fixture: deliberately failing check"},
            )
        )
    return results
