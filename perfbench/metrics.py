"""Metric definitions: names, units, and how each is computed from a run.

The names and units here are the ones listed in BENCHMARK.json;
selfcheck.py fails when the two disagree.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PREDICATES = {
    "uniform": "uniform_dominates",
    "weak": "weak_pareto_dominates",
    "almost_weak": "almost_weak_dominates",
    "density_one": "density_one_dominates",
    "lower": "lower_asym_dominates",
    "upper": "upper_asym_dominates",
    "infinite": "infinite_pareto_dominates",
    "pareto": "pareto_dominates",
    "suppes_sen": "suppes_sen_compare",
    "lex": "lex_compare",
    "anonymity": "anonymity_equivalent",
    "chain": "implication_chain_report",
}
WELFARE = {
    "cesaro": "cesaro_liminf",
    "discounted": "discounted_sum",
    "min": "min_swf",
    "liminf": "liminf_swf",
    "induced_compare": "induced_compare",
}
GADGETS = ("build_threshold_gadget", "verify_density_one_step", "compare_thresholds",
           "build_sequence_gadget", "verify_sequence_chain")
CHECKS = ("density_oracle", "reference_densities", "dominance_chain", "cesaro_properties",
          "threshold_gadgets", "ratio_inequality", "block_certificates", "grading_windows",
          "sequence_chains", "symmetric_difference")
PARSERS = ("dsl.parse_set", "dsl.parse_stream", "dsl.parse_permutation", "dsl.parse_rational")
VERDICTS = ("holds", "fails", "undecided", "incomparable")
CLAUSE_KS = (2, 3, 4, 5, 6)

PER_LAYER = {
    "cli.import_s": "s",
    "cli.emit_s": "s",
    "dsl.parse.calls": "count",
    "dsl.parse.self_s": "s",
    "dsl.format_set.self_s": "s",
    "indexsets.count.calls": "count",
    "indexsets.count.self_s": "s",
    "indexsets.count.cache_hit_ratio": "ratio",
    "indexsets.member.calls": "count",
    "indexsets.member.self_s": "s",
    "indexsets.nth_element.self_s": "s",
    "indexsets.periodic_profile.cache_hit_ratio": "ratio",
    "indexsets.provably_nonempty.self_s": "s",
    "densities.density.calls": "count",
    "densities.density.self_s": "s",
    "densities.exact_share": "ratio",
    "densities.sympy.calls": "count",
    "densities.sympy.self_s": "s",
    "densities.sympy.import_s": "s",
    "streams.eval_at.calls": "count",
    "streams.eval_at.self_s": "s",
    "streams.prefix.self_s": "s",
    "streams.weakly_dominates.self_s": "s",
    "streams.strict_set.self_s": "s",
    **{f"dominance.{name}.self_s": "s" for name in PREDICATES},
    **{f"dominance.verdicts.{v}": "count" for v in VERDICTS},
    **{f"dominance.chain.k{k}_s": "s" for k in CLAUSE_KS},
    "dominance.chain.timeouts": "count",
    "probe.failed": "count",
    **{f"welfare.{name}.self_s": "s" for name in WELFARE},
    **{f"gadgets.{name}.self_s": "s" for name in GADGETS},
    **{f"verification.{name}.self_s": "s" for name in CHECKS},
    "verification.sum_s": "s",
    "verification.critical_path_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.ops": "count",
}

UNITS = {**END_TO_END, **PER_LAYER}

TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples beyond it) for the highest percentile that
    has at least ten samples beyond it, by nearest rank; None if none has."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def best_latencies(records: list) -> list[float]:
    """Each distinct op's lowest latency over its repetitions in the run.

    Load from other tenants of the machine only ever adds time, so the best
    repetition is the op's own cost; the cold first pass drops out too.
    """
    best: dict = {}
    for ci, i, _, latency, _ in records:
        best[ci, i] = min(latency, best.get((ci, i), latency))
    return list(best.values())


def end_to_end(run: dict) -> tuple[dict, list[str]]:
    latencies = [r[3] for r in run["records"]]
    best = best_latencies(run["records"])
    values = {
        "setup_s": statistics.median(run["setup"]),
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1000,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = [f"setup_s samples = {[round(s, 4) for s in run['setup']]}",
             f"{len(best)} distinct ops, {len(latencies)} runs of them; over all runs "
             f"ops_per_s would read {len(latencies) / sum(latencies):.4f} and latency_p50_ms "
             f"{statistics.median(latencies) * 1000:.4f}"]
    t = tail(latencies)
    if t is None:
        notes.append(f"latency_tail_ms omitted: {len(latencies)} ops are too few")
    else:
        p, v, beyond = t
        notes.append(f"latency_tail_ms = {v * 1000:.3f} (p{p:g} of {len(latencies)} ops, "
                     f"{beyond} beyond it)")
    return values, notes


def merge_traces(summaries: list[dict]) -> dict:
    merged: dict = {"calls": Counter(), "self_s": Counter(), "total_s": Counter(),
                    "spans": Counter(), "verdicts": Counter(), "n_spans": 0, "spans_kept": 0,
                    "density_exact": [0, 0], "sympy_import_s": 0.0,
                    "cache": {}}
    for s in summaries:
        for key in ("calls", "self_s", "total_s", "spans", "verdicts"):
            merged[key].update(s[key])
        merged["n_spans"] += s["n_spans"]
        merged["spans_kept"] += s.get("spans_kept", 0)
        merged["sympy_import_s"] += s["sympy_import_s"]
        for i in (0, 1):
            merged["density_exact"][i] += s["density_exact"][i]
        for name, (hits, misses) in s["cache"].items():
            h, m = merged["cache"].get(name, (0, 0))
            merged["cache"][name] = (h + hits, m + misses)
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: dict) -> tuple[dict, list[str]]:
    t = run["trace"]
    calls, self_s, total_s = t["calls"], t["self_s"], t["total_s"]
    hits, misses = t["cache"]["indexsets.count"]
    p_hits, p_misses = t["cache"]["indexsets.periodic_profile"]
    exact, attempts = t["density_exact"]
    sympy = [n for n in self_s if n.startswith("sympy.")]
    runs = run["verify_runs"]
    checks_total = {c: _ratio(total_s[f"verification.{c}"], runs) for c in CHECKS}
    probe = {k: (status, latency) for k, status, latency in run["clause_probe"]}
    values = {
        "cli.import_s": run["import_s"],
        "cli.emit_s": self_s["cli.emit"],
        "dsl.parse.calls": sum(calls[p] for p in PARSERS),
        "dsl.parse.self_s": sum(self_s[p] for p in PARSERS),
        "dsl.format_set.self_s": self_s["dsl.format_set"],
        "indexsets.count.calls": calls["indexsets.count"],
        "indexsets.count.self_s": self_s["indexsets.count"],
        "indexsets.count.cache_hit_ratio": _ratio(hits, hits + misses),
        "indexsets.member.calls": calls["indexsets.member"],
        "indexsets.member.self_s": self_s["indexsets.member"],
        "indexsets.nth_element.self_s": self_s["indexsets.nth_element"],
        "indexsets.periodic_profile.cache_hit_ratio": _ratio(p_hits, p_hits + p_misses),
        "indexsets.provably_nonempty.self_s": self_s["indexsets.provably_nonempty"],
        "densities.density.calls": calls["densities.density"],
        "densities.density.self_s": self_s["densities.density"],
        "densities.exact_share": _ratio(exact, attempts),
        "densities.sympy.calls": sum(calls[n] for n in calls if n.startswith("sympy.")),
        "densities.sympy.self_s": sum(self_s[n] for n in sympy),
        "densities.sympy.import_s": t["sympy_import_s"],
        "streams.eval_at.calls": calls["streams.eval_at"],
        "streams.eval_at.self_s": self_s["streams.eval_at"],
        "streams.prefix.self_s": self_s["streams.prefix"],
        "streams.weakly_dominates.self_s": self_s["streams.weakly_dominates"],
        "streams.strict_set.self_s": self_s["streams.strict_set"],
        **{f"dominance.{n}.self_s": self_s[f"dominance.{f}"] for n, f in PREDICATES.items()},
        **{f"dominance.verdicts.{v}": t["verdicts"][v] for v in VERDICTS},
        **{f"dominance.chain.k{k}_s": probe[k][1] for k in CLAUSE_KS},
        "dominance.chain.timeouts": sum(1 for s, _ in probe.values() if s == "timeout"),
        "probe.failed": run["probe_failed"],
        **{f"welfare.{n}.self_s": self_s[f"welfare.{f}"] for n, f in WELFARE.items()},
        **{f"gadgets.{n}.self_s": self_s[f"gadgets.{n}"] for n in GADGETS},
        **{f"verification.{c}.self_s": _ratio(self_s[f"verification.{c}"], runs) for c in CHECKS},
        "verification.sum_s": sum(checks_total.values()),
        "verification.critical_path_s": max(checks_total.values()),
        "trace.overhead_ratio": run["overhead_ratio"],
        "trace.spans": t["n_spans"],
        "trace.ops": len(run["records"]),
    }
    notes = [
        f"trace.overhead_ratio = {run['overhead_ratio']:.4f} (traced wall over untraced wall, "
        f"same ops, fresh processes)",
        f"spans written to {run['spans_file']}: {t['spans_kept']} of {t['n_spans']}",
        f"indexsets.count.cache_hit_ratio base: {hits} hits, {misses} misses",
        f"indexsets.periodic_profile.cache_hit_ratio base: {p_hits} hits, {p_misses} misses",
        f"densities.exact_share base: {exact} exact of {attempts} density results",
        "self_s and calls are totals over the traced ops; verification.* are per verify run",
    ]
    for k in CLAUSE_KS:
        status, latency = probe[k]
        notes.append(f"dominance.chain.k{k}_s = " + (
            f"timed out at {run['probe_limit_s']:g} s" if status == "timeout" else f"{latency:.4f}"))
    if runs:
        notes.append("verification check wall times per run (inclusive): " + ", ".join(
            f"{c} {v:.3f}" for c, v in checks_total.items()))
    return values, notes
