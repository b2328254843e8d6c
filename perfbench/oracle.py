"""The benchmark's correctness oracle.

It never calls the code path it checks.  Counts and stream values come from
``verification.membership_mask``, the package's definitional, vectorized
membership oracle; suppes_sen on window pairs is decided by
``verification.brute_force_grading``; everything else is an answer known by
construction of the generated inputs:

* ``random_chain_pair`` gives x >= y, so every chain report is consistent,
  no predicate fails by a descent, and the identity permutation grades x
  above y;
* a rank-fill stream whose complement has positive lower density has Cesàro
  value +infinity;
* ``random_decidable_set`` sets are, on [5041, 37800], periodic with a period
  dividing 2520 (their progressions have differences up to 9; their finite
  parts end below 211 and no factorial lies in that window), so the count on
  that window divided by its length 32760 is their exact density;
* the block families of ``workloads._pattern`` have known densities;
* threshold gadgets satisfy their lemma for every r, and comparisons of two
  thresholds hold in the case fixed by the enumeration of the rationals,
  which the oracle enumerates on its own;
* every verified link of a sequence-gadget chain is a true statement;
* a ``verify`` report says ``ok: true`` and is byte-identical whenever the
  same seed runs.

Only a definite answer can be contradicted: estimates, ``undecided`` and
``incomparable`` verdicts (outside grading) pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from densitylab import indexsets as ix
from densitylab.streams import Permuted, Piecewise, RankFill
from densitylab.verification import brute_force_grading, membership_mask

WINDOW = (5041, 37800)
# The implication chain, strongest premise first, as implication_chain_report lists it.
CHAIN_PREDICATES = (
    "uniform", "weak", "almost_weak", "density_one", "lower", "upper", "infinite", "pareto",
)
UNIFORM_GAP = ("uniform", "weak")  # predicates that need x > y everywhere


# ---------------------------------------------------------------------------
# Independent evaluation
# ---------------------------------------------------------------------------


def denominator(*streams) -> int:
    """A common denominator of every value the streams take."""
    d = 1
    for x in streams:
        while isinstance(x, Permuted):
            x = x.base
        vals = [x.fill] if isinstance(x, RankFill) else [x.default] + [v for _, v in x.clauses]
        for v in vals:
            d = math.lcm(d, Fraction(v).denominator)
    return d


def values(x, n: int, d: int = 1) -> np.ndarray:
    """Coordinates 1..n of a stream times d, as integers, from membership masks.

    d must clear every denominator of the stream's values (see denominator).
    """
    if isinstance(x, Piecewise):
        out = np.full(n, int(x.default * d), dtype=np.int64)
        for s, v in x.clauses:
            out[membership_mask(s, n)] = int(v * d)
        return out
    if isinstance(x, RankFill):
        mask = membership_mask(x.fill_on, n)
        ranks = np.cumsum(~mask, dtype=np.int64) + 1
        return np.where(mask, int(x.fill * d), ranks * d)
    if isinstance(x, Permuted):
        base = values(x.base, max(n, x.perm.bound), d)
        return base[[x.perm(t) - 1 for t in range(1, n + 1)]]
    raise TypeError(f"not a stream: {x!r}")


def pair_values(x, y, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    d = denominator(x, y)
    return values(x, n, d), values(y, n, d), d


def window_density(s) -> Fraction:
    lo, hi = WINDOW
    return Fraction(int(membership_mask(s, hi)[lo - 1:].sum()), hi - lo + 1)


def atoms(s):
    """The leaves of an index-set AST (factorial points count as one leaf)."""
    if isinstance(s, (ix.Union, ix.Inter, ix.Diff)):
        yield from atoms(s.left)
        yield from atoms(s.right)
    elif isinstance(s, ix.Compl):
        yield from atoms(s.arg)
    else:
        yield s


def stream_atoms(x):
    sets = [x.fill_on] if isinstance(x, RankFill) else [s for s, _ in x.clauses]
    return [a for s in sets for a in atoms(s)]


def mentions_factorials(x) -> bool:
    return any(isinstance(a, (ix.FactorialPoints, ix.FactorialIntervals)) for a in stream_atoms(x))


def known_defect(op) -> str | None:
    """The ROADMAP defect that explains a wrong answer to this op, if any.

    Such answers still count as failed ops; only an unlisted wrong answer
    makes a run incorrect.
    """
    if op.kind == "induced" and op.args["which"] == "cesaro" and any(
            isinstance(s, RankFill) or mentions_factorials(s) for s in (op.ctx["x"], op.ctx["y"])):
        return "ROADMAP item 4 (wrong welfare ordering): a Cesàro estimate decided the order"
    return None


def exact_cesaro(x) -> Fraction | None:
    """The Cesàro value of a bounded piecewise stream without block families:
    its mean over the window, where the stream is periodic."""
    if not isinstance(x, Piecewise) or any(
            isinstance(a, ix.FactorialIntervals) and a.pattern for a in stream_atoms(x)):
        return None
    lo, hi = WINDOW
    width = hi - lo + 1
    counts = [int(membership_mask(s, hi)[lo - 1:].sum()) for s, _ in x.clauses]
    total = x.default * (width - sum(counts)) + sum(v * c for (_, v), c in zip(x.clauses, counts))
    return Fraction(total, width)


def discounted_bounds(x, delta: Fraction, n: int = 400) -> tuple[Fraction, Fraction]:
    """An interval of width (vmax - vmin) delta^n / (1 - delta) around the sum."""
    d = denominator(x)
    partial = sum(delta ** t * int(v) for t, v in enumerate(values(x, n, d))) / d
    everything = [x.default] + [v for _, v in x.clauses]
    tail = delta ** n / (1 - delta)
    return partial + min(everything) * tail, partial + max(everything) * tail


def rationals_bfs(count: int) -> list[Fraction]:
    """The first ``count`` rationals of (0, 1) in breadth-first Stern–Brocot order."""
    out: list[Fraction] = []
    level = [(0, 1, 1, 1)]  # (p_lo, q_lo, p_hi, q_hi) of each open interval
    while len(out) < count:
        nxt = []
        for a, b, c, d in level:
            out.append(Fraction(a + c, b + d))
            nxt += [(a, b, a + c, b + d), (a + c, b + d, c, d)]
        level = nxt
    return out[:count]


_ENUM = rationals_bfs(4096)


def _qualifying(r: Fraction, upto: int) -> list[int]:
    return [n for n in range(1, upto + 1) if _ENUM[n - 1] >= r]


def digest(vals) -> str:
    return hashlib.sha256(",".join(str(v) for v in vals).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Checks: each returns None when the answer stands, else why it does not
# ---------------------------------------------------------------------------


class Oracle:
    """Checks op results; caches what it derives per op."""

    def __init__(self, plan):
        self.plan = plan
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def check(self, ci: int, i: int, result) -> str | None:
        """Why the answer is wrong, or None.  A repeated answer is checked once."""
        op = self.plan.op(ci, i)
        return self._memo(("check", ci, i, repr(result)),
                          lambda: getattr(self, f"_check_{op.kind}")((ci, i), op, result))

    # -- query_mix ---------------------------------------------------------

    def _check_density(self, key, op, res):
        lower, upper, exact, evidence = res
        if exact:
            want = op.ctx.get("pattern") or self._memo(
                key, lambda: (window_density(op.ctx["set"]),) * 2)
            got = (Fraction(lower), Fraction(upper))
            return None if got == tuple(want) else f"exact density {got}, expected {want}"
        if not evidence:
            return None
        s = op.ctx["set"]
        top = max(n for n, _ in evidence)
        cum = self._memo(key, lambda: np.cumsum(membership_mask(s, top)))
        for n, c in evidence:
            if int(cum[n - 1]) != c:
                return f"estimate evidence count({n}) = {c}, mask gives {int(cum[n - 1])}"
        return None

    def _check_count(self, key, op, res):
        want = self._memo(key, lambda: int(membership_mask(op.ctx["set"], op.args["n"]).sum()))
        return None if res == want else f"count {res}, mask gives {want}"

    def _check_nth(self, key, op, res):
        m = op.args["m"]
        want = self._memo(
            key, lambda: int(np.flatnonzero(membership_mask(op.ctx["set"], 40320))[m - 1]) + 1)
        return None if res == want else f"nth_element {res}, mask gives {want}"

    def _pair_values(self, key, op, n=5040):
        return self._memo(("values", key, n), lambda: pair_values(op.ctx["x"], op.ctx["y"], n))

    def _relation(self, key, op, rel, verdict) -> str | None:
        status, cex = verdict
        xv, yv, d = self._pair_values(key, op)
        ge_known = op.ctx["pair_source"] in ("chain", "clause")
        if rel in ("suppes_sen", "lex"):
            return getattr(self, f"_relation_{rel}")(op, xv, yv, status, cex)
        if status == "holds":
            if not (xv >= yv).all():
                return f"{rel} holds but x < y at t={int(np.argmax(xv < yv)) + 1}"
            if rel in UNIFORM_GAP and not (xv > yv).all():
                return f"{rel} holds but x = y at t={int(np.argmax(xv <= yv)) + 1}"
        if status == "fails" and cex is not None and cex <= 1_000_000:
            if cex > len(xv):
                xv, yv, d = pair_values(op.ctx["x"], op.ctx["y"], cex)
            a, b = xv[cex - 1], yv[cex - 1]
            if not (a < b or (rel in UNIFORM_GAP and a <= b)):
                return (f"{rel} fails with counterexample t={cex}, but x={Fraction(int(a), d)}, "
                        f"y={Fraction(int(b), d)} there")
        if status == "fails" and ge_known and rel == "pareto" and (xv > yv).any():
            return "pareto fails although x >= y and x > y somewhere"
        return None

    def _relation_suppes_sen(self, op, xv, yv, status, cex):
        if op.ctx["pair_source"] == "window":
            want = brute_force_grading(op.ctx["x"], op.ctx["y"], op.ctx["window"])
            if status in ("holds", "fails", "incomparable") and (status == "holds") != want:
                return f"suppes_sen {status}, brute-force grading says {want}"
        elif status in ("fails", "incomparable"):
            return f"suppes_sen {status} although x >= y (identity permutation)"
        return None

    def _relation_lex(self, op, xv, yv, status, cex):
        diff = np.flatnonzero(xv != yv)
        if len(diff):
            t = int(diff[0]) + 1
            want = "holds" if xv[t - 1] > yv[t - 1] else "fails"
            if status in ("holds", "fails") and (status != want or (want == "fails" and cex != t)):
                return f"lex {status} (t={cex}), first difference at t={t} says {want}"
        elif status == "holds":
            return "lex holds but no difference below the horizon"
        return None

    def _check_pred(self, key, op, res):
        rel = op.args["rel"]
        if rel == "anonymity":
            return self._anonymity(key, op, res)
        return self._relation(key, op, rel, res)

    def _anonymity(self, key, op, res):
        if op.ctx["pair_source"] == "window":
            w = op.ctx["window"]
            xv, yv, _ = self._pair_values(key, op, max(w))
            want = Counter(xv[t - 1] for t in w) == Counter(yv[t - 1] for t in w)
        else:
            # x >= y and a finite permutation keeps the sum of any window that
            # contains the moved points, so equivalence means equality; every
            # strict coordinate of a chain pair lies below the horizon.
            xv, yv, _ = self._pair_values(key, op)
            want = bool((xv == yv).all())
        return None if res == want else f"anonymity {res}, expected {want}"

    def _check_chain(self, key, op, res):
        entries, consistent = res
        if not consistent:
            return "chain report inconsistent although x >= y"
        for rel, verdict in zip(CHAIN_PREDICATES, entries):
            why = self._relation(key, op, rel, verdict)
            if why:
                return f"chain entry {why}"
        return None

    _check_clause = _check_chain

    def _value(self, op, x, which):
        """The exact welfare value by construction, or None when unknown."""
        source = op.ctx["source"]
        if source == "rankfill":
            return "plus_infinity" if which == "cesaro" else None
        if source == "window":
            vals = [x.default] + [v for _, v in x.clauses]
            if which in ("cesaro", "liminf"):
                return x.default
            if which == "min":
                return min(vals)
            delta = Fraction(op.args["delta"])
            return x.default / (1 - delta) + sum(
                delta ** (s.elements[0] - 1) * (v - x.default) for s, v in x.clauses)
        if which == "cesaro":
            return exact_cesaro(x)
        if which == "min":
            return Fraction(int(values(x, 5040, denominator(x)).min()), denominator(x))
        return None

    def _check_swf(self, key, op, res):
        kind, value, lo, hi = res
        which, x = op.args["which"], op.ctx["x"]
        want = self._value(op, x, which)
        if op.ctx["source"] == "chain" and which == "discounted":
            blo, bhi = discounted_bounds(x, Fraction(op.args["delta"]))
            got = (Fraction(value),) * 2 if kind == "finite" else (
                (Fraction(lo), Fraction(hi)) if kind == "interval" else None)
            if got is None or got[1] < blo or got[0] > bhi:
                return f"discounted {res} outside [{blo}, {bhi}]"
            return None
        if want is None:
            return None
        if want == "plus_infinity":
            if kind in ("plus_infinity", "interval"):
                return None
            return f"{which} {res}, expected +inf"
        if kind == "finite" and Fraction(value) != want:
            return f"{which} = {value}, expected {want}"
        # Cesàro intervals are checkpoint estimates; discounted ones are certified.
        if kind == "interval" and which != "cesaro" and not Fraction(lo) <= want <= Fraction(hi):
            return f"{which} interval [{lo}, {hi}] misses {want}"
        if kind == "plus_infinity":
            return f"{which} +inf, expected {want}"
        return None

    def _check_induced(self, key, op, res):
        if res == "undecided":
            return None
        which, x, y = op.args["which"], op.ctx["x"], op.ctx["y"]
        source = op.ctx["source"]
        if source == "rankfill":
            want = "above"
        elif source == "window" or which == "cesaro":
            a = self._value(op, x, which)
            b = self._value(op, y, which)
            if a is None or b is None:
                return "an ordering below x >= y" if res == "below" else None
            want = "above" if a > b else "below" if a < b else "equivalent"
        else:
            delta = Fraction(op.args["delta"])
            (alo, ahi), (blo, bhi) = discounted_bounds(x, delta), discounted_bounds(y, delta)
            want = "above" if alo > bhi else "below" if ahi < blo else None
            if want is None:
                return "ordering below x >= y" if res == "below" else None
        return None if res == want else f"induced {which} {res}, expected {want}"

    # -- long_scan ---------------------------------------------------------

    def _check_lemma1(self, key, op, res):
        r, h = Fraction(op.args["r"]), op.args["h"]
        depth = max(n for n in range(1, 20) if math.factorial(n) <= h)
        want = _qualifying(r, depth)
        got = [n for n in res["indices"] if n <= depth]
        if got != want:
            return f"gadget indices {got} below {h}, enumeration gives {want}"
        status = res["verdict"][0]
        return None if status != "fails" else "density-one step fails, but the lemma holds"

    def _check_compare(self, key, op, res):
        r, s = Fraction(op.args["r"]), Fraction(op.args["s"])
        sep = [n for n in range(1, len(_ENUM) + 1) if r <= _ENUM[n - 1] < s][:2]
        first = _qualifying(r, len(_ENUM))[0]
        want = ("a" if sep[0] == first else "b", math.factorial(sep[0]), math.factorial(sep[1]))
        got = (res["case"], res["u1"], res["u2"])
        if got != want:
            return f"comparison (case, u1, u2) = {got}, expected {want}"
        return None if res["all_hold"] else f"comparison checks {res['checks']} do not all hold"

    def _check_seqchain(self, key, op, res):
        for name, kind, verdict in res:
            if verdict is not None and verdict[0] == "fails":
                return f"link {name} fails, but every link of the construction is true"
        return None

    def _check_prefix(self, key, op, res):
        n = op.args["n"]
        # The fill value is 1, so every value is an integer.
        want = self._memo(key, lambda: [n, digest(values(RankFill(op.ctx["fill"]), n))])
        return None if res == want else "prefix values differ from the mask evaluation"

    def _check_anonymity(self, key, op, res):
        want = op.ctx["equivalent"]
        return None if res == want else f"anonymity {res}, expected {want}"

    # -- verify_cli --------------------------------------------------------

    def _check_verify(self, key, op, res):
        if res["code"] != 0:
            return f"verify exited with {res['code']}"
        try:
            report = json.loads(res["stdout"])
        except ValueError:
            return "verify printed no JSON report"
        if report.get("results", {}).get("ok") is not True:
            return "verify report is not ok"
        first = self._memo(("stdout", tuple(op.args["argv"])), lambda: res["stdout"])
        return None if first == res["stdout"] else "verify report differs between runs of one seed"

