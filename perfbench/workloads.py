"""Seeded workload plans.

A plan is a list of cycles; a cycle is a list of ops.  The worker runs whole
cycles, in order, until the measuring time is used up, so every run measures
the same mix of op kinds whatever the seed.  The seed only varies the
parameters inside each op.  A plan may also hold timed ops, which run at
fixed points of the clock (query_mix's 2-clause pair).

No op of a workload fails on the program as it stands: every op answers
within its time limit and the oracle accepts every answer.  Inputs that do
fail today (the k >= 3 clause pairs, which run for minutes, and the
reproducers of known defects) form the plan's probe instead, which the
traced run executes once, after the measured ops, and reports on its own.

Each op carries ``args``, the JSON-friendly text inputs sent to the worker
(the program sees nothing else), and ``ctx``, the generator's own ASTs and
answers known by construction, which stay in the benchmark process for the
oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from densitylab import indexsets as ix
from densitylab.dsl import format_set, format_stream
from densitylab.streams import Piecewise, RankFill
from densitylab.verification import (
    membership_mask,
    random_chain_pair,
    random_decidable_set,
    random_periodic_set,
    random_window_pair,
)
from densitylab.verification import _strict_patterns
from oracle import CHAIN_PREDICATES, mentions_factorials, pair_values

WORKLOADS = ("query_mix", "long_scan", "verify_cli")

# Horizon of every pointwise scan in query_mix (the CLI default).
QUERY_HORIZON = 5040
# Per-query time limit in query_mix.  The slowest query (a first sympy
# limit on a nested block pattern) takes about 0.4 s, so a loaded host
# does not push it to the limit.
QUERY_TIME_LIMIT_S = 5.0
# Time limit of each probe op; the k >= 3 clause pairs read "timed out at" it.
PROBE_TIME_LIMIT_S = 1.0
# Largest n for count and nth_element queries.
COUNT_MAX_N = math.factorial(10)

PAIR_RELATIONS = CHAIN_PREDICATES + ("suppes_sen", "lex", "anonymity")
CLAUSE_KS = (2, 3, 4, 5, 6)


@dataclass
class Op:
    kind: str
    args: dict
    ctx: dict = field(default_factory=dict)


@dataclass
class Plan:
    """``cycles`` run whole and in turn; ``timed`` ops run at evenly spaced
    points of the measuring clock, one each, whatever the throughput.
    ``probe`` ops run once, after the measured ops of a traced run."""

    workload: str
    seed: int
    cycles: list[list[Op]]
    timed: list[Op] = field(default_factory=list)
    time_limit_s: float | None = None
    probe: list[Op] = field(default_factory=list)

    def op(self, ci: int, i: int) -> Op:
        """Op i of cycle ci; ci = -1 for the timed ops, -2 for the probe."""
        return self.timed[i] if ci == -1 else self.probe[i] if ci == -2 else self.cycles[ci][i]

    def wire(self) -> dict:
        """What the worker receives: op kinds and text inputs only."""
        def ops(seq):
            return [{"kind": op.kind, **op.args} for op in seq]

        return {
            "workload": self.workload,
            "time_limit_s": self.time_limit_s,
            "cycles": [ops(cycle) for cycle in self.cycles],
            "timed": ops(self.timed),
        }

    def wire_probe(self) -> list[dict]:
        return [{"kind": op.kind, **op.args} for op in self.probe]


def _spread(groups: list[list[Op]]) -> list[Op]:
    """Interleave op groups evenly, in an order that does not depend on the seed."""
    keyed = []
    for g, ops in enumerate(groups):
        for i, op in enumerate(ops):
            keyed.append(((i + 0.5) / len(ops), g, op))
    keyed.sort(key=lambda item: (item[0], item[1]))
    return [op for _, _, op in keyed]


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------


def clause_pair(k: int) -> tuple[Piecewise, Piecewise]:
    """The two-sided k-clause pair factorials(ap(i,k+1)):i, i = 1..k (ROADMAP item 2)."""
    clauses = [(ix.FactorialPoints(ix.ArithProg(i, k + 1)), i) for i in range(1, k + 1)]
    return Piecewise(9, clauses), Piecewise(0, clauses)


def _pattern(rng: random.Random, shape: int) -> tuple[ix.FactorialIntervals, tuple]:
    """A block family with affine factorial bounds and its known densities.

    Every family here has lim hi_k / lo_(k+1) = 0, so its lower density is 0
    and its upper density is 1 - lim lo_k / hi_k.  Shape 3 costs sympy about
    0.4 s on first use, the others a few milliseconds.
    """
    a = rng.choice((2, 3, 4) if shape != 2 else (3, 4))
    ak = ix.Mul(ix.Num(a), ix.Var())
    hi = ix.Fact(ak)
    below = ix.Fact(ix.Sub(ak, ix.Num(rng.randint(1, a - 1))))
    start = rng.choice((1, 1, 2, 3))
    upper = Fraction(1)
    if shape == 0:
        lo = below
    elif shape == 1:
        v = rng.choice([v for v in (2, 3, 4, 6, 8, 12) if math.factorial(a) % v == 0])
        lo, upper = ix.Div(hi, ix.Num(v)), 1 - Fraction(1, v)
    elif shape == 2:
        lo = ix.Mul(ix.Num(rng.randint(2, a - 1)), ix.Fact(ix.Sub(ak, ix.Num(1))))
    else:
        # At k = 1 these bounds are not an interval, so the family starts later.
        lo = ix.Add(below, ix.Num(1))
        hi = ix.Sub(hi, ix.Div(hi, ix.Fact(ix.Sub(ak, ix.Num(1)))))
        start = max(start, 2)
    pattern = ix.BlockPattern(lo=lo, hi=hi, start=start)
    return ix.FactorialIntervals(pattern=pattern), (Fraction(0), upper)


def _rankfill_stream(rng: random.Random, factorial: bool) -> RankFill:
    """A rank-fill stream over a factorial or a periodic fill set."""
    if factorial:
        fill_on = ix.FactorialPoints(ix.ArithProg(rng.randint(1, 3), rng.randint(1, 3)))
    else:
        # The rank rule needs an infinite complement.  A random periodic set
        # is periodic beyond 60 with a period dividing 60, so one missing
        # element in (60, 120] shows an infinite complement.
        fill_on = random_periodic_set(rng)
        while membership_mask(fill_on, 120)[60:].all():
            fill_on = random_periodic_set(rng)
    return RankFill(fill_on, Fraction(rng.randint(0, 2)))


# The cost of a scan over a chain pair swings with the pair's stratum: which
# strict pattern x carries (periodic, or one of the generator's five factorial
# patterns) and whether the pair differs nowhere, on a finite set, or on an
# infinite set below the horizon (a scan stops at the first difference or
# runs to the horizon).  Each block draws the costly ops once per stratum.
FACTORIAL_PATTERNS = tuple(format_set(p) for p in _strict_patterns(random.Random(0))[1])
STRATA = (("periodic", "equal"), ("periodic", "finite"), ("periodic", "infinite")) + tuple(
    (p, c) for p in FACTORIAL_PATTERNS for c in ("equal", "infinite"))
_MAX_DRAWS = 100_000


def _stratum(x, y) -> tuple[str, str]:
    # A chain pair that differs anywhere differs below 60, so 720
    # coordinates tell the classes apart.
    xv, yv, _ = pair_values(x, y, 720)
    diff = np.flatnonzero(xv != yv)
    cls = "equal" if not len(diff) else "finite" if diff[-1] < 60 else "infinite"
    return (format_set(x.clauses[0][0]) if mentions_factorials(x) else "periodic"), cls


def _stratified_pairs(rng: random.Random, per_stratum: int) -> dict[tuple, list]:
    pairs: dict[tuple, list] = {s: [] for s in STRATA}
    for _ in range(_MAX_DRAWS):
        if all(len(p) >= per_stratum for p in pairs.values()):
            return pairs
        x, y = random_chain_pair(rng)
        bucket = pairs.get(_stratum(x, y))
        if bucket is not None and len(bucket) < per_stratum:
            bucket.append((x, y))
    raise RuntimeError(f"strata left empty after {_MAX_DRAWS} chain pairs")


def query_mix(seed: int, tiny: bool = False) -> Plan:
    rng = random.Random(seed)
    rngs = {name: random.Random(rng.getrandbits(64)) for name in (
        "density", "pattern", "count", "nth", "chain_pairs", "window_pairs", "swf",
    )}
    n_blocks = 1 if tiny else QUERY_BLOCKS
    patterns = [_pattern(rngs["pattern"], shape)
                for shape in range(4) for _ in range(1 if tiny else PATTERNS_PER_SHAPE)]
    blocks = [_query_block(rngs, tiny, patterns[b::n_blocks]) for b in range(n_blocks)]
    return Plan("query_mix", seed, blocks, timed=[_clause_op(2)],
                time_limit_s=QUERY_TIME_LIMIT_S, probe=probe_ops())


def _clause_op(k: int) -> Op:
    x, y = clause_pair(k)
    return Op("clause", {"k": k, "x": format_stream(x), "y": format_stream(y), "h": QUERY_HORIZON},
              {"x": x, "y": y, "pair_source": "clause"})


def probe_ops() -> list[Op]:
    """Inputs that fail today, the same in every plan: the clause family
    k = 2..6 (k >= 3 runs for minutes, ROADMAP item 2) and one reproducer of
    each known defect (see oracle.known_defect)."""
    cesaro = [
        # ROADMAP item 4's reproducer: the left value is +infinity.
        (RankFill(ix.ArithProg(1, 2)), Piecewise(100000), "rankfill"),
        # Both values are 2; a Cesàro estimate answers "above".
        (Piecewise(2, [(ix.FactorialPoints(ix.ArithProg(1, 1)), 3)]), Piecewise(2), "chain"),
    ]
    return [_clause_op(k) for k in CLAUSE_KS] + [
        Op("induced", {"which": "cesaro", "x": format_stream(x), "y": format_stream(y),
                       "delta": None},
           {"x": x, "y": y, "source": source, "window": None})
        for x, y, source in cesaro
    ] + [
        # s above every rational indexed below 8! (3/4): GadgetError.
        Op("compare", {"r": "1/3", "s": "4/5", "h": 40320}),
    ]


# Distinct blocks; the worker cycles through them, so later passes run warm.
# One block is about 165 ops and runs in about 0.25 s once warm.
QUERY_BLOCKS = 20
PATTERNS_PER_SHAPE = 3
# Relations whose cost depends on the stratum; the others cost microseconds.
SCANNING_RELATIONS = ("anonymity", "lex")


def _query_block(rngs: dict, tiny: bool, patterns: list) -> list[Op]:
    n = 1 if tiny else 0  # the tiny block keeps one op of each kind
    groups: list[list[Op]] = []
    r = rngs["density"]
    groups.append([Op("density", {"set": format_set(s)}, {"set": s})
                   for s in (random_decidable_set(r) for _ in range(n or 20))])
    groups.append([Op("density", {"set": format_set(s)}, {"set": s, "pattern": expected})
                   for s, expected in patterns])
    r = rngs["count"]
    groups.append([Op("count", {"set": format_set(s), "n": k}, {"set": s})
                   for s, k in ((random_decidable_set(r), _log_uniform(r, COUNT_MAX_N))
                                for _ in range(n or 15))])
    r = rngs["nth"]
    groups.append([Op("nth", {"set": format_set(s), "m": r.randint(1, 200)}, {"set": s})
                   for s in (_infinite_set(r) for _ in range(n or 10))])

    r = rngs["chain_pairs"]
    strata = STRATA[:1] if tiny else STRATA
    pairs = _stratified_pairs(r, per_stratum=len(SCANNING_RELATIONS) + 2)
    pair_ops = []
    for stratum in strata:
        stream = iter(pairs[stratum])
        for rel in SCANNING_RELATIONS:
            pair_ops.append(_pair_op("pred", rel, *next(stream), "chain"))
        pair_ops.append(_pair_op("chain", "chain", *next(stream), "chain"))
        if stratum[1] == "infinite":
            x, _ = next(stream)
            pair_ops.append(Op("swf", {"which": "cesaro", "x": format_stream(x), "delta": None},
                               {"x": x, "source": "chain", "window": None}))
    cheap = [rel for rel in PAIR_RELATIONS if rel not in SCANNING_RELATIONS]
    for rel in cheap[:n or None] * (1 if tiny else 3):
        pair_ops.append(_pair_op("pred", rel, *random_chain_pair(r), "chain"))
    r = rngs["window_pairs"]
    for rel in PAIR_RELATIONS[:n or None]:
        x, y, window = random_window_pair(r)
        pair_ops.append(_pair_op("pred", rel, x, y, "window", window))
    groups.append(pair_ops)

    r = rngs["swf"]
    swf = {
        "cesaro": ["window"] * 4 + ["rankfill", "rankfill_factorial"],
        "discounted": ["window"] * 4 + ["chain"] * 2 + ["chain_factorial"] * 2,
        "min": ["window"] * 4 + ["chain"] * 2 + ["chain_factorial"] * 2,
        "liminf": ["window"] * 8,
    }
    # A Cesàro ordering on a chain pair with factorial atoms is decided by an
    # estimate today (the known defect in the probe), so chain pairs here are
    # periodic, with an exact Cesàro value.
    induced = {
        "cesaro": ["rankfill_factorial", "chain", "window"],
        "discounted": ["chain", "chain_factorial", "window"],
        "min": ["window"] * 3,
        "liminf": ["window"] * 3,
    }
    ops = []
    for which, sources in swf.items():
        for source in sources[:n or None]:
            x, window = _swf_stream(r, source)
            ops.append(Op("swf", {"which": which, "x": format_stream(x),
                                  "delta": _delta(r, which)},
                          {"x": x, "source": source.split("_")[0], "window": window}))
    for which, sources in induced.items():
        for source in sources[:n or None]:
            window = None
            if source == "window":
                x, y, window = random_window_pair(r)
            elif source == "rankfill_factorial":
                x, y = _rankfill_stream(r, True), Piecewise(Fraction(r.randint(0, 4)))
            else:
                x, y = _chain_pair(r, source == "chain_factorial")
            ops.append(Op("induced", {"which": which, "x": format_stream(x),
                                      "y": format_stream(y), "delta": _delta(r, which)},
                          {"x": x, "y": y, "source": source.split("_")[0], "window": window}))
    groups.append(ops)
    return _spread(groups)


def _chain_pair(rng: random.Random, factorial: bool):
    """A chain pair whose upper stream does (or does not) mention factorials."""
    while True:
        x, y = random_chain_pair(rng)
        if mentions_factorials(x) == factorial:
            return x, y


def _delta(rng: random.Random, which: str) -> str | None:
    return rng.choice(("1/2", "2/3", "3/4", "9/10")) if which == "discounted" else None


def _log_uniform(rng: random.Random, top: int) -> int:
    return min(top, int(math.exp(rng.uniform(0, math.log(top)))))


def _infinite_set(rng: random.Random):
    """A random decidable set with at least 200 elements below 8!."""
    while True:
        s = random_decidable_set(rng)
        if int(membership_mask(s, 40320).sum()) >= 200:
            return s


def _pair_op(kind, rel, x, y, source, window=None) -> Op:
    return Op(kind, {"rel": rel, "x": format_stream(x), "y": format_stream(y), "h": QUERY_HORIZON},
              {"x": x, "y": y, "pair_source": source, "window": window})


def _swf_stream(rng: random.Random, source: str):
    if source == "window":
        x, y, window = random_window_pair(rng)
        return (x if rng.random() < 0.5 else y), window
    if source.startswith("rankfill"):
        return _rankfill_stream(rng, source == "rankfill_factorial"), None
    return _chain_pair(rng, source == "chain_factorial")[0], None


# ---------------------------------------------------------------------------
# long_scan
# ---------------------------------------------------------------------------

# Reference prefixes of the three sequence-gadget cases (their scan cost
# swings by 10x with the prefix, so they are fixed rather than drawn).
SEQUENCE_CASES = (
    ((1, 2, 3, 4, 5, 6, 7), "a", None),
    ((1, 2, 3, 4, 5, 6, 7, 8), "b", 2),
    ((1, 2, 3, 4, 5, 6, 9, 10), "c", None),
)


def _threshold(rng: random.Random, lo=Fraction(1, 10), hi=Fraction(9, 10)) -> Fraction:
    while True:
        q = rng.randint(2, 10)
        r = Fraction(rng.randint(1, q - 1), q)
        if lo <= r <= hi:
            return r


def _factorial_points(rng: random.Random) -> tuple[int, ...]:
    """A sparse increasing index prefix reaching past 9! (so past every horizon)."""
    idx = sorted(rng.sample(range(1, 9), rng.randint(2, 5)))
    return tuple(idx) + (9, 10)


def long_scan(seed: int, tiny: bool = False) -> Plan:
    """One cycle of gadget and scan calls, repeated for the whole run."""
    rng = random.Random(seed)
    big, mid = (362880, 40320) if not tiny else (720, 720)
    # Above 3/4 the first gadget point lies past 8!, and the density-one step
    # returns undecided without scanning; the scan is what long_scan measures.
    # At 9! the scan's cost swings 2.5x with the gadget's points, so that slot
    # keeps ROADMAP's reference threshold 1/3.
    r1 = _threshold(rng, hi=Fraction(3, 4))
    r2 = _threshold(rng, hi=Fraction(1, 2))
    s2 = _threshold(rng, lo=r2 + Fraction(1, 6), hi=Fraction(3, 4))
    # s above every rational indexed below the scan bound (3/4 at 8!) makes
    # compare_thresholds raise today; that case is in the probe.
    r4 = _threshold(rng, hi=Fraction(1, 2))
    s4 = _threshold(rng, lo=r4 + Fraction(1, 6), hi=Fraction(3, 4))
    idx = _factorial_points(rng)
    points = ix.FactorialPoints(ix.Finite(idx))
    # Moving a fill point from a to b permutes values on [a, b] only.
    factorials = {math.factorial(j) for j in range(1, 10)}
    a, b = sorted(rng.sample([t for t in range(3, min(5000, mid)) if t not in factorials], 2))
    eq_x = ix.Union(points, ix.Finite((a,)))
    eq_y = ix.Union(points, ix.Finite((b,)))
    shifted = ix.Diff(points, ix.Finite((math.factorial(idx[0]),)))
    prefix_set = ix.FactorialPoints(ix.Finite(_factorial_points(rng)))
    cycle = [
        Op("lemma1", {"r": str(r1), "h": mid}),
        Op("compare", {"r": str(r2), "s": str(s2), "h": mid}),
        Op("compare", {"r": str(r4), "s": str(s4), "h": mid}),
        _seq_op(0, mid),
        Op("anonymity", {"x": f"rankfill({format_set(eq_x)})",
                         "y": f"rankfill({format_set(eq_y)})", "h": mid},
           {"equivalent": True}),
        Op("prefix", {"x": f"rankfill({format_set(prefix_set)})", "n": big},
           {"fill": prefix_set}),
        _seq_op(1, mid),
        Op("anonymity", {"x": f"rankfill({format_set(points)})",
                         "y": f"rankfill({format_set(shifted)})", "h": mid},
           {"equivalent": False}),
        _seq_op(2, mid),
        Op("lemma1", {"r": "1/3", "h": big}),
    ]
    return Plan("long_scan", seed, [cycle], probe=probe_ops())


def _seq_op(case_index: int, horizon: int) -> Op:
    ts, case, m = SEQUENCE_CASES[case_index]
    return Op("seqchain", {"t": list(ts), "case": case, "m": m, "h": horizon})


# ---------------------------------------------------------------------------
# verify_cli
# ---------------------------------------------------------------------------

VERIFY_SEEDS_PER_CYCLE = 6
# Corpus sizes for the self-check's tiny verify runs.
TINY_VERIFY_ARGS = ["--density-sets", "4", "--chain-pairs", "4", "--cesaro-trials", "4",
                    "--grading-pairs", "4", "--block-prefixes", "2", "--ratio-max", "9"]


def verify_cli(seed: int, tiny: bool = False) -> Plan:
    rng = random.Random(seed)
    seeds = [rng.randrange(1_000_000) for _ in range(VERIFY_SEEDS_PER_CYCLE)]
    extra = TINY_VERIFY_ARGS if tiny else []
    cycle = [Op("verify", {"argv": ["verify", "--seed", str(s)] + extra}) for s in seeds]
    # Repeating the cycle is what lets the oracle check that a seed's report
    # is byte-identical on every run.
    return Plan("verify_cli", seed, [cycle], probe=probe_ops())


BUILDERS = {"query_mix": query_mix, "long_scan": long_scan, "verify_cli": verify_cli}


def build(workload: str, seed: int, tiny: bool = False) -> Plan:
    return BUILDERS[workload](seed, tiny)
