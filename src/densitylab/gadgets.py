"""Explicit stream-pair constructions verified at finite truncation.

Two families of gadgets:

* Threshold gadgets: for a rational threshold r, the indices n with
  q_n >= r (under a fixed enumeration q of the rationals in (0,1)) select
  a sparse factorial set U; the pair of rank-fill streams over U and over
  U minus its first point differ on a density-one set.  Comparing the
  gadgets of two thresholds r < s splits into two cases, one of which
  needs an explicit finite rearrangement.

* Sequence gadgets: an increasing sequence T induces a union of factorial
  interval blocks U(T) and a ranked stream; dropping selected entries of T
  produces a subsequence S whose streams compare against T's in a
  three-case chain, each case combining pointwise scans, explicit finite
  rearrangements, and exact block-count density certificates.

Gadgets materialize finite prefixes only.  Every verdict is sound for the
truncation actually scanned; each gadget tracks the horizon below which
its truncated sets agree with their infinite counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import verdicts
from .densities import DensityResult, density
from .dominance import anonymity_equivalent
from .indexsets import (
    DEFAULT_HORIZON,
    Compl,
    Diff,
    FactorialIntervals,
    FactorialPoints,
    Finite,
    IndexSet,
    Interval,
    Union,
    elements_up_to,
)
from .streams import (
    FinitePermutation,
    RankFill,
    Stream,
    Value,
    apply_permutation,
    eval_at,
    prefix,
    scan_pair,
)
from .verdicts import RelationVerdict

__all__ = [
    "GadgetError",
    "rational_enum",
    "ThresholdGadget",
    "build_threshold_gadget",
    "threshold_gadget_from_indices",
    "verify_density_one_step",
    "ThresholdComparison",
    "compare_thresholds",
    "compare_threshold_gadgets",
    "factorial_ratio_inequality",
    "factorial_ratio_terms",
    "interval_blocks",
    "block_set",
    "ranked_stream",
    "determined_to",
    "BlockDensityCertificate",
    "tail_density_certificate",
    "SequenceGadget",
    "build_sequence_gadget",
    "LinkReport",
    "verify_sequence_chain",
    "DEFAULT_PERMUTATION_CAP",
]

DEFAULT_PERMUTATION_CAP = 40320
# The largest enumeration index a threshold gadget or comparison scans.
INDEX_SCAN_CAP = 100_000


class GadgetError(ValueError):
    """Raised when a gadget cannot be built from the given parameters."""


# ---------------------------------------------------------------------------
# A canonical enumeration of the rationals in (0, 1): breadth-first order
# on the Stern-Brocot subtree below 1/2's level.  Deterministic, duplicate
# free, and surjective onto the reduced fractions of (0, 1).
# ---------------------------------------------------------------------------


def rational_enum(k: int) -> Fraction:
    """The k-th rational of (0,1) in breadth-first Stern-Brocot order (k >= 1)."""
    if k < 1:
        raise GadgetError(f"enumeration index must be >= 1, got {k}")
    lo = (0, 1)
    hi = (1, 1)
    for bit in bin(k)[3:]:
        med = (lo[0] + hi[0], lo[1] + hi[1])
        if bit == "0":
            hi = med
        else:
            lo = med
    return Fraction(lo[0] + hi[0], lo[1] + hi[1])


# ---------------------------------------------------------------------------
# Threshold gadgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdGadget:
    """A sparse factorial set with its pair of rank-fill streams.

    ``lower_stream`` ranks the complement of the full point set;
    ``upper_stream`` ranks the complement of the point set minus its first
    element, which shifts every later rank up by one.  ``gap_set`` is the
    density-one set of coordinates beyond the first point and off the
    point set; ``sound_horizon`` bounds the coordinates at which the
    truncated sets agree with their infinite continuation.
    """

    threshold: Fraction | None
    indices: tuple[int, ...]
    point_set: IndexSet
    complement_set: IndexSet
    gap_set: IndexSet
    lower_stream: Stream
    upper_stream: Stream
    sound_horizon: int

    @property
    def first_point(self) -> int:
        return math.factorial(self.indices[0])


def threshold_gadget_from_indices(
    indices, threshold=None, sound_horizon=None
) -> ThresholdGadget:
    """Build the gadget for an explicit increasing index prefix."""
    idx = tuple(indices)
    if not idx or any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
        raise GadgetError("indices must be a nonempty strictly increasing prefix")
    points = FactorialPoints(Finite(idx))
    first = math.factorial(idx[0])
    if sound_horizon is None:
        sound_horizon = math.factorial(idx[-1] + 1) - 1
    return ThresholdGadget(
        threshold=None if threshold is None else Fraction(threshold),
        indices=idx,
        point_set=points,
        complement_set=Compl(points),
        gap_set=Diff(Compl(points), Interval(1, first)),
        lower_stream=RankFill(points),
        upper_stream=RankFill(Diff(points, Finite((first,)))),
        sound_horizon=sound_horizon,
    )


def _qualifying_indices(r: Fraction, scan_to: int) -> tuple[int, ...]:
    return tuple(n for n in range(1, scan_to + 1) if rational_enum(n) >= r)


def _scan_bound_for(horizon: int) -> int:
    n = 1
    while math.factorial(n + 1) <= horizon:
        n += 1
    return n


def build_threshold_gadget(r, horizon: int = DEFAULT_HORIZON, scan_to: int | None = None) -> ThresholdGadget:
    """Materialize the gadget for threshold r with values sound through ``horizon``."""
    r = Fraction(r)
    if not (0 < r < 1):
        raise GadgetError(f"threshold must lie in (0, 1), got {r}")
    # The scan bound is the least n with (n+1)! - 1 >= horizon, or scan_to if larger,
    # extended until some index qualifies.
    n = max(scan_to or 0, _scan_bound_for(horizon))
    idx = list(_qualifying_indices(r, n))
    while not idx:
        n += 1
        if n > INDEX_SCAN_CAP:
            raise GadgetError(f"no index n with q_n >= {r} found below {INDEX_SCAN_CAP}")
        if rational_enum(n) >= r:
            idx.append(n)
    return threshold_gadget_from_indices(
        idx, threshold=r, sound_horizon=math.factorial(n + 1) - 1
    )


def verify_density_one_step(g: ThresholdGadget, horizon: int) -> RelationVerdict:
    """Verify that the upper stream dominates the lower one with strictness
    exactly on the first point plus the gap set, certified density one."""
    h = min(horizon, g.sound_horizon)
    first = g.first_point
    if h < first:
        return verdicts.undecided(horizon=h, note="horizon below the first strict coordinate")
    expected = Union(Finite((first,)), g.gap_set)
    mismatch = _scan_mismatch(g.upper_stream, g.lower_stream, h, expected,
                              "strict set does not match the first point plus the gaps")
    if mismatch:
        return mismatch
    cert = density(g.gap_set)
    if not (cert.exact and cert.lower == 1 and cert.upper == 1):
        return verdicts.undecided(horizon=h, note="gap set density certificate unavailable")
    return verdicts.holds(witness_set=g.gap_set, witness_density=cert,
                          note=f"verified through t={h}")


@dataclass(frozen=True)
class ThresholdComparison:
    """Outcome of comparing the gadgets of two thresholds r < s."""

    case: str  # "a" or "b"
    u1: int
    u2: int
    permutation: FinitePermutation | None
    checks: tuple[tuple[str, RelationVerdict], ...]
    claimed_set: IndexSet
    certificate: DensityResult

    @property
    def all_hold(self) -> bool:
        return all(v.holds for _, v in self.checks)


def compare_threshold_gadgets(
    g_r: ThresholdGadget, g_s: ThresholdGadget, horizon: int = DEFAULT_HORIZON
) -> ThresholdComparison:
    """Classify and verify the comparison of two threshold gadgets.

    Case (a): the first point of the r-gadget leaves the s-gadget's point
    set, and the s-gadget's lower stream dominates the r-gadget's upper
    stream directly.  Case (b): the first points coincide, and dominance
    appears only after cyclically rearranging the r-gadget's upper stream
    on a finite window.
    """
    extra = set(g_r.indices) - set(g_s.indices)
    if not set(g_s.indices) <= set(g_r.indices):
        raise GadgetError("the s-gadget's indices must be a subset of the r-gadget's")
    if len(extra) < 2:
        raise GadgetError("need at least two indices separating the thresholds")
    diff_points = sorted(math.factorial(n) for n in extra)
    u1, u2 = diff_points[0], diff_points[1]
    h = min(horizon, g_r.sound_horizon, g_s.sound_horizon)
    claimed = Union(
        Finite((u2,)), Diff(Compl(g_s.point_set), Interval(1, u2))
    )
    cert = density(claimed)
    checks = []
    if u1 == g_r.first_point:
        case = "a"
        pi = None
        target: Stream = g_r.upper_stream
    else:
        case = "b"
        first = g_r.first_point
        between = [t for t in elements_up_to(g_r.complement_set, u1) if t >= first]
        pi = FinitePermutation.cycle([first, u1] + list(reversed(between)), bound=u1)
        target = apply_permutation(g_r.upper_stream, pi)
        checks.append((
            "rearrangement_preserves_values",
            verdicts.holds(note="finite rearrangement of the same stream")
            if anonymity_equivalent(target, g_r.upper_stream, horizon=min(h, 2 * u1 + 16))
            else verdicts.fails(note="value multisets differ"),
        ))
    checks.append((
        "challenger_dominates",
        _scan_mismatch(g_s.lower_stream, target, h, claimed, "strict pattern mismatch")
        or verdicts.holds(note=f"strict pattern verified through t={h}"),
    ))
    if u2 > h and u2 <= min(g_r.sound_horizon, g_s.sound_horizon):
        xt = eval_at(g_s.lower_stream, u2)
        zt = eval_at(target, u2)
        checks.append((
            "strict_at_second_point",
            verdicts.holds(witness_set=Finite((u2,)), note=f"values {xt} > {zt} at t={u2}")
            if xt > zt
            else verdicts.fails(counterexample=u2),
        ))
    return ThresholdComparison(
        case=case, u1=u1, u2=u2, permutation=pi,
        checks=tuple(checks), claimed_set=claimed, certificate=cert,
    )


def _scan_mismatch(
    x: Stream, z: Stream, h: int, expected: IndexSet, mismatch: str
) -> RelationVerdict | None:
    """The failing verdict when x >= z with strictness exactly on ``expected``
    breaks at some coordinate up to h, else None."""
    violation, _ = scan_pair(x, z, h, expected_strict=expected)
    if violation is None:
        return None
    t, xt, zt = violation
    note = "pointwise dominance fails" if xt < zt else mismatch
    return verdicts.fails(counterexample=t, note=note)


def compare_thresholds(r, s, horizon: int = DEFAULT_HORIZON) -> ThresholdComparison:
    """Compare the canonical gadgets of two rational thresholds r < s."""
    r, s = Fraction(r), Fraction(s)
    if not (0 < r < s < 1):
        raise GadgetError(f"thresholds must satisfy 0 < r < s < 1, got r={r}, s={s}")
    # Both gadgets share one scan bound n, which keeps the s-gadget's indices a subset
    # of the r-gadget's: n holds two indices separating r from s and one at or above s.
    scan, n, separating, above = _scan_bound_for(horizon), 0, 0, False
    while n < scan or separating < 2 or not above:
        n += 1
        if n > INDEX_SCAN_CAP:
            raise GadgetError(f"no separating indices found below {INDEX_SCAN_CAP}")
        q = rational_enum(n)
        separating += r <= q < s
        above = above or q >= s
    g_r = build_threshold_gadget(r, horizon=horizon, scan_to=n)
    g_s = build_threshold_gadget(s, horizon=horizon, scan_to=n)
    return compare_threshold_gadgets(g_r, g_s, horizon=horizon)


# ---------------------------------------------------------------------------
# Factorial ratio inequality
# ---------------------------------------------------------------------------


def _validate_ratio_args(ts, m) -> tuple[int, ...]:
    seq = tuple(ts)
    if m < 2:
        raise GadgetError(f"need m >= 2, got {m}")
    if len(seq) < 2 * m + 2:
        raise GadgetError(f"need at least {2 * m + 2} terms, got {len(seq)}")
    if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)) or seq[0] < 1:
        raise GadgetError("sequence must be strictly increasing naturals")
    if seq[2] < 3:
        raise GadgetError(f"the third term must be at least 3, got {seq[2]}")
    return seq


def factorial_ratio_inequality(ts, m: int) -> bool:
    """Exact check that t_{2m+2}!/t_3! exceeds the sum of the m consecutive
    pair ratios t_4!/t_3! + t_6!/t_5! + ... + t_{2m+2}!/t_{2m+1}!."""
    seq = _validate_ratio_args(ts, m)
    f = math.factorial
    lhs = f(seq[2 * m + 1]) // f(seq[2])
    rhs = sum(f(seq[2 * k + 1]) // f(seq[2 * k]) for k in range(1, m + 1))
    return lhs > rhs


def factorial_ratio_terms(ts, m: int) -> list[Fraction]:
    """The m grouped terms t_{2m+2}! t_{2i-1}! / (t_{2i}! t_3!) - m, for
    i = m+1 down to 2; each is positive exactly when the grouped form of
    the ratio inequality certifies it."""
    seq = _validate_ratio_args(ts, m)
    f = math.factorial
    top = f(seq[2 * m + 1])
    return [
        Fraction(top * f(seq[2 * i - 2]), f(seq[2 * i - 1]) * f(seq[2]))
        - m
        for i in range(m + 1, 1, -1)
    ]


# ---------------------------------------------------------------------------
# Sequence gadgets
# ---------------------------------------------------------------------------


def interval_blocks(seq) -> list[tuple[int, int]]:
    """Concrete blocks [t_{2k-1}! + 1, t_{2k+1}! - t_{2k+1}!/t_{2k}!]
    determined by the prefix."""
    seq = tuple(seq)
    f = math.factorial
    out = []
    k = 1
    while 2 * k + 1 <= len(seq):
        lo = f(seq[2 * k - 2]) + 1
        hi = f(seq[2 * k]) - f(seq[2 * k]) // f(seq[2 * k - 1])
        out.append((lo, hi))
        k += 1
    return out


def block_set(seq) -> FactorialIntervals:
    return FactorialIntervals(tuple(interval_blocks(seq)))


def ranked_stream(seq) -> RankFill:
    """Value 1 off the block union, k+1 at the k-th block-union element.

    Built from the determined blocks only; values are faithful to the
    infinite construction for coordinates up to determined_to(seq).
    """
    return RankFill(Compl(block_set(seq)), truncated=True)


def determined_to(seq) -> int:
    """Largest coordinate whose membership the prefix fully determines."""
    seq = tuple(seq)
    if not seq:
        return 0
    k = (len(seq) - 1) // 2
    return math.factorial(seq[2 * k]) if k >= 1 else math.factorial(seq[0])


def block_mass(seq, m: int) -> int:
    """|block m| = t_{2m+1}! - t_{2m+1}!/t_{2m}! - t_{2m-1}!."""
    seq = tuple(seq)
    f = math.factorial
    return f(seq[2 * m]) - f(seq[2 * m]) // f(seq[2 * m - 1]) - f(seq[2 * m - 2])


@dataclass(frozen=True)
class BlockDensityCertificate:
    """Exact block-count evidence that a block family has density one.

    Row m states count(U, c_m) >= c_m * bound_m at the checkpoint
    c_m = t_{2m+1}!, with bound_m = 1 - 1/t_{2m}! - t_{2m-1}!/t_{2m+1}!.
    Both factors of the slack vanish for every strictly increasing
    continuation of the prefix, so the bounds tend to one.
    """

    rows: tuple[tuple[int, int, int, Fraction], ...]  # (m, checkpoint, count, bound)


def tail_density_certificate(seq) -> BlockDensityCertificate:
    seq = tuple(seq)
    f = math.factorial
    u = block_set(seq)
    from .indexsets import count as _count

    rows = []
    m = 1
    while 2 * m + 1 <= len(seq):
        checkpoint = f(seq[2 * m])
        bound = 1 - Fraction(1, f(seq[2 * m - 1])) - Fraction(f(seq[2 * m - 2]), f(seq[2 * m]))
        rows.append((m, checkpoint, _count(u, checkpoint), bound))
        m += 1
    return BlockDensityCertificate(rows=tuple(rows))


@dataclass(frozen=True)
class SequenceGadget:
    """Streams of a sequence prefix and of its case-specific subsequence."""

    ts: tuple[int, ...]
    case: str
    m: int | None
    sub: tuple[int, ...]
    set_full: FactorialIntervals
    set_sub: FactorialIntervals
    x_full: Stream   # ranked stream of ts
    y_full: Stream   # ranked stream of ts minus its first entry
    x_sub: Stream    # ranked stream of sub
    y_sub: Stream    # ranked stream of sub minus its first entry


def _case_b_condition(ts, m) -> tuple[int, int]:
    f = math.factorial
    lhs = block_mass(ts, 1)
    rhs = sum(f(ts[2 * k]) // f(ts[2 * k - 1]) for k in range(2, m + 1))
    return lhs, rhs


def _case_c_condition(ts, m) -> tuple[int, int]:
    f = math.factorial
    lhs = block_mass(ts, 1) + block_mass(ts, 2)
    rhs = sum(f(ts[2 * k]) // f(ts[2 * k - 1]) for k in range(3, m + 1))
    return lhs, rhs


def build_sequence_gadget(ts, case: str, m: int | None = None) -> SequenceGadget:
    """Build the gadget for a prefix and one of the three comparison cases.

    Cases (b) and (c) drop interior entries subject to an exact
    cardinality condition; when m is not given, the smallest admissible
    value is selected, and an unsatisfiable condition is reported by name.
    """
    seq = tuple(ts)
    if len(seq) < 3 or seq[0] < 1 or any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
        raise GadgetError("need a strictly increasing natural prefix of length >= 3")
    if case == "a":
        sub = seq[1:]
        m_used = None
    elif case in ("b", "c"):
        lo = 2 if case == "b" else 3
        cond = _case_b_condition if case == "b" else _case_c_condition
        candidates = [m] if m is not None else list(range(lo, (len(seq) - 2) // 2 + 1))
        m_used = None
        for cand in candidates:
            if cand < lo or 2 * cand + 2 > len(seq):
                continue
            lhs, rhs = cond(seq, cand)
            if lhs < rhs:
                m_used = cand
                break
        if m_used is None:
            name = "|U_1| < sum of pair ratios" if case == "b" else "|U_1| + |U_2| < sum of pair ratios"
            raise GadgetError(
                f"cardinality condition {name} unsatisfiable for this prefix"
                + (f" at m={m}" if m is not None else "")
            )
        if case == "b":
            sub = seq[1:3] + seq[2 * m_used + 1 :]
        else:
            sub = seq[3:5] + seq[2 * m_used + 1 :]
    else:
        raise GadgetError(f"case must be one of a, b, c, got {case!r}")
    return SequenceGadget(
        ts=seq,
        case=case,
        m=m_used,
        sub=sub,
        set_full=block_set(seq),
        set_sub=block_set(sub),
        x_full=ranked_stream(seq),
        y_full=ranked_stream(seq[1:]),
        x_sub=ranked_stream(sub),
        y_sub=ranked_stream(sub[1:]),
    )


@dataclass(frozen=True)
class LinkReport:
    """One link of a case chain: verified, assumed by the case hypothesis,
    or derived by transitivity from the other links."""

    name: str
    kind: str  # "verified" | "assumed" | "derived"
    verdict: RelationVerdict | None = None
    permutation: FinitePermutation | None = None
    certificate: BlockDensityCertificate | None = None


def _sorted_matching(moved: list[Value], fixed: list[Value], a: int) -> FinitePermutation:
    """The permutation of [1, len(moved)] that takes, on the window from a,
    the k-th largest value of ``moved`` to the position of the k-th largest
    of ``fixed``, ties in position order; the identity below a."""
    # 0-based window coordinates, largest value first: the sort is stable
    # under reverse=True, so ties keep their position order.
    window = range(a - 1, len(moved))
    positions = sorted(window, key=fixed.__getitem__, reverse=True)
    origins = sorted(window, key=moved.__getitem__, reverse=True)
    images = list(range(1, len(moved) + 1))
    for pos, org in zip(positions, origins):
        images[pos] = org + 1
    return FinitePermutation(len(moved), tuple(images))


def _rearranged_dominance(
    low: Stream,
    high: Stream,
    window: tuple[int, int],
    scan_to: int,
    permutation_cap: int,
    permute: str,
    certificate: BlockDensityCertificate,
    name: str,
) -> LinkReport:
    """Rearrange one side on a window so the other dominates pointwise.

    The rearrangement matches positions by sorted values (largest against
    largest, ties by position), the only freedom anonymity grants.  The
    result is scanned coordinatewise; a scan violation fails the link.
    """
    a, b = window
    if b > permutation_cap:
        return LinkReport(
            name=name,
            kind="verified",
            verdict=verdicts.undecided(
                horizon=permutation_cap,
                note=f"rearrangement window end {b} exceeds the cap {permutation_cap}",
            ),
        )
    if b > scan_to:
        return LinkReport(
            name=name,
            kind="verified",
            verdict=verdicts.undecided(
                horizon=scan_to,
                note=f"rearrangement window end {b} is beyond the determined prefix {scan_to}",
            ),
        )
    lows, highs = prefix(low, b), prefix(high, b)
    if permute == "low":
        pi = _sorted_matching(lows, highs, a)
        low = apply_permutation(low, pi)
    else:
        pi = _sorted_matching(highs, lows, a)
        high = apply_permutation(high, pi)
    violation, strict_seen = scan_pair(high, low, scan_to)
    if violation:
        return LinkReport(
            name=name,
            kind="verified",
            verdict=verdicts.fails(
                counterexample=violation[0], note="dominance fails after rearrangement"
            ),
            permutation=pi,
        )
    return LinkReport(
        name=name,
        kind="verified",
        verdict=verdicts.holds(
            note=f"dominance after rearrangement, {strict_seen} strict coordinates through t={scan_to}"
        ),
        permutation=pi,
        certificate=certificate,
    )


def verify_sequence_chain(
    g: SequenceGadget,
    horizon: int = DEFAULT_HORIZON,
    permutation_cap: int = DEFAULT_PERMUTATION_CAP,
) -> list[LinkReport]:
    """Verify every order-free link of the gadget's case chain.

    Pointwise inequalities, stream equalities, rearrangement dominance and
    density certificates are checked at truncation; links expressing the
    case hypothesis itself are labeled assumed, and the closing comparison
    is labeled derived.
    """
    f = math.factorial
    links: list[LinkReport] = []
    if g.case == "a":
        h12 = min(horizon, determined_to(g.ts), determined_to(g.sub[1:]))
        # Off the blocks x_full is 1, the least value of y_sub, so x_full is
        # strict exactly on the blocks and the strict count is the block count.
        strict_fail, strict_on_blocks = scan_pair(g.x_full, g.y_sub, h12, g.set_full)
        links.append(
            LinkReport(
                name="y_sub_below_x_full",
                kind="verified",
                verdict=(
                    verdicts.fails(counterexample=strict_fail[0])
                    if strict_fail
                    else verdicts.holds(
                        note=f"strict on all {strict_on_blocks} scanned block coordinates through t={h12}"
                    )
                ),
                certificate=tail_density_certificate(g.ts),
            )
        )
        links.append(LinkReport(name="x_full_below_y_full", kind="assumed"))
        heq = min(horizon, determined_to(g.ts[1:]))
        eq_fail, _ = scan_pair(g.y_full, g.x_sub, heq, expected_strict=Finite(()))
        links.append(
            LinkReport(
                name="y_full_equals_x_sub",
                kind="verified",
                verdict=(
                    verdicts.fails(counterexample=eq_fail[0])
                    if eq_fail
                    else verdicts.holds(note=f"coordinatewise equal through t={heq}")
                ),
            )
        )
        links.append(LinkReport(name="y_sub_below_x_sub", kind="derived"))
        return links

    # Cases (b) and (c) share their link structure.
    m = g.m
    window1 = (f(g.ts[1]), f(g.ts[2 * m + 1]))
    scan1 = min(horizon, determined_to(g.sub), determined_to(g.ts[1:]))
    links.append(
        _rearranged_dominance(
            g.x_sub,
            g.y_full,
            window1,
            scan1,
            permutation_cap,
            permute="low",
            certificate=tail_density_certificate(g.ts[1:]),
            name="x_sub_below_y_full",
        )
    )
    links.append(
        LinkReport(
            name="y_full_below_x_full" if g.case == "b" else "y_full_equivalent_x_full",
            kind="assumed",
        )
    )
    if 2 * m + 3 <= len(g.ts):
        end = f(g.ts[2 * m + 2]) - f(g.ts[2 * m + 2]) // f(g.ts[2 * m + 1])
        scan3 = min(horizon, determined_to(g.ts), determined_to(g.sub[1:]))
        links.append(
            _rearranged_dominance(
                g.x_full,
                g.y_sub,
                (1, end),
                scan3,
                permutation_cap,
                permute="high" if g.case == "b" else "low",
                certificate=tail_density_certificate(g.sub[1:]),
                name="x_full_below_y_sub",
            )
        )
    else:
        links.append(
            LinkReport(
                name="x_full_below_y_sub",
                kind="verified",
                verdict=verdicts.undecided(
                    horizon=horizon,
                    note="rearrangement window depends on sequence entries beyond the prefix",
                ),
            )
        )
    links.append(LinkReport(name="x_sub_below_y_sub", kind="derived"))
    return links
