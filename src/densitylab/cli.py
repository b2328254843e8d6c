"""Command-line front end.

Subcommands: density, compare, swf, gadget, verify.  Reports are JSON by
default (sorted keys, rationals as p/q strings, never floats), with text
and CSV as convenience views.  Exit codes: 0 on success, 1 when a
verification run fails, 2 on an error with a code from ``_ERROR_CODES``
on stderr, 141 (the shell's code for SIGPIPE) when stdout closes before
the report is written.  Timing goes to stderr so that reports stay
byte-identical for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .densities import DEFAULT_CHECKPOINT_MAX, DensityResult, density
from .dominance import (
    DOMINANCE_PREDICATES,
    anonymity_equivalent,
    implication_chain_report,
    lex_compare,
    suppes_sen_compare,
)
from .dsl import DslError, format_permutation, format_set, parse_rational, parse_set, parse_stream
from .gadgets import (
    DEFAULT_PERMUTATION_CAP,
    GadgetError,
    build_sequence_gadget,
    build_threshold_gadget,
    compare_threshold_gadgets,
    compare_thresholds,
    threshold_gadget_from_indices,
    verify_density_one_step,
    verify_sequence_chain,
)
from .indexsets import IndexSetError
from .streams import DEFAULT_HORIZON, StreamError, prefix, values
from .verdicts import RelationVerdict
from .verification import run_verification
from .welfare import EVALUATORS, SwfError, SwfValue, discounted_sum

SCHEMA_VERSION = "1"


class ValueTooLongError(ValueError):
    """An exact value has more digits than Python will convert to text."""


# Matched with isinstance, so subclasses such as OverlapError keep their code.
_ERROR_CODES = (
    (ValueTooLongError, "value_too_long"),
    (DslError, "parse_error"),
    (GadgetError, "gadget_error"),
    (IndexSetError, "set_error"),
    (StreamError, "stream_error"),
    (SwfError, "welfare_error"),
)


@dataclass(frozen=True)
class RunConfig:
    horizon: int = DEFAULT_HORIZON
    checkpoint_max: int = DEFAULT_CHECKPOINT_MAX
    output: str = "json"
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if self.horizon > self.checkpoint_max:
            raise ValueError(
                f"horizon {self.horizon} exceeds checkpoint-max {self.checkpoint_max}"
            )
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _frac(q) -> str:
    q = Fraction(q)
    try:
        return str(q)
    except ValueError as e:  # past sys.get_int_max_str_digits()
        digits = max(abs(q.numerator), q.denominator).bit_length() * 3 // 10
        raise ValueTooLongError(
            f"exact value has about {digits} digits, past the interpreter's "
            "limit for printing an integer"
        ) from e


def density_to_dict(d: DensityResult) -> dict:
    return {
        "lower": _frac(d.lower),
        "upper": _frac(d.upper),
        "exact": d.exact,
        "evidence": [
            {"n": n, "count": c, "ratio": _frac(r)} for n, c, r in d.evidence
        ],
    }


def verdict_to_dict(v: RelationVerdict) -> dict:
    witness = None
    if v.witness_set is not None:
        witness = {
            "strict_set": format_set(v.witness_set),
            "density": density_to_dict(v.witness_density) if v.witness_density else None,
        }
    return {
        "status": str(v.status),
        "witness": witness,
        "counterexample": v.counterexample,
        "horizon": v.horizon,
        "note": v.note,
    }


def swf_to_dict(v: SwfValue) -> dict:
    return {
        "kind": v.kind,
        "value": _frac(v.value) if v.value is not None else None,
        "lo": _frac(v.lo) if v.lo is not None else None,
        "hi": _frac(v.hi) if v.hi is not None else None,
        "evidence": [[n, _frac(val)] for n, val in v.evidence],
    }


def make_report(command: str, config: RunConfig, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": {
            "horizon": config.horizon,
            "checkpoint_max": config.checkpoint_max,
            "output": config.output,
            "seed": config.seed,
            "parallelism": config.parallelism,
        },
        "results": results,
        "timing": None,  # wall-clock goes to stderr to keep reports reproducible
    }


def emit(report: dict, config: RunConfig, out) -> None:
    if config.output == "json":
        json.dump(report, out, sort_keys=True, indent=2)
        out.write("\n")
    elif config.output == "text":
        out.write(f"# {report['command']} (densitylab {report['version']})\n")
        _emit_text(report["results"], out, indent="")
    elif config.output == "csv":
        writer = csv.writer(out)
        writer.writerow(["key", "value"])
        for key, value in sorted(_flatten(report["results"])):
            writer.writerow([key, value])
    else:
        raise ValueError(f"unknown output format {config.output!r}")


def _emit_text(value, out, indent):
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                out.write(f"{indent}{k}:\n")
                _emit_text(v, out, indent + "  ")
            else:
                out.write(f"{indent}{k}: {v}\n")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if isinstance(item, (dict, list)):
                out.write(f"{indent}[{i}]\n")
                _emit_text(item, out, indent + "  ")
            else:
                out.write(f"{indent}{item}\n")
    else:
        out.write(f"{indent}{value}\n")


def _flatten(value, prefix_key=""):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _flatten(value[k], f"{prefix_key}{k}.")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix_key}{i}.")
    else:
        yield (prefix_key.rstrip("."), value)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def run_density(args, config: RunConfig) -> tuple[dict, int]:
    s = parse_set(args.set)
    d = density(s, max_checkpoint=config.checkpoint_max)
    return {"set": format_set(s), **density_to_dict(d)}, 0


_EXTRA_AXIOMS = ("suppes_sen", "lex", "anonymity", "chain")


def run_compare(args, config: RunConfig) -> tuple[dict, int]:
    x = parse_stream(args.x)
    y = parse_stream(args.y)
    horizon = config.horizon
    if args.axiom == "anonymity":
        eq = anonymity_equivalent(x, y, horizon)
        return {"axiom": args.axiom, "horizon": horizon, "equivalent": eq}, 0
    if args.axiom == "chain":
        report = implication_chain_report(x, y, horizon)
        return {
            "axiom": "chain",
            "horizon": horizon,
            "entries": [
                {"predicate": name, **verdict_to_dict(v)} for name, v in report.entries
            ],
            "violations": [list(v) for v in report.violations],
            "consistent": report.consistent,
        }, 0
    predicate = {
        "suppes_sen": suppes_sen_compare,
        "lex": lex_compare,
    }.get(args.axiom, DOMINANCE_PREDICATES.get(args.axiom))
    verdict = predicate(x, y, horizon)
    out = verdict_to_dict(verdict)
    out["axiom"] = args.axiom
    out["horizon"] = out["horizon"] if out["horizon"] is not None else horizon
    return out, 0


def run_swf(args, config: RunConfig) -> tuple[dict, int]:
    x = parse_stream(args.x)
    if args.which == "discounted":
        if args.delta is None:
            raise ValueError("--delta is required for the discounted sum")
        kwargs = {"delta": parse_rational(args.delta)}
        if args.tol is not None:
            kwargs["tol"] = parse_rational(args.tol)
        value = discounted_sum(x, **kwargs)
    else:
        value = EVALUATORS[args.which](x)
    return {"which": args.which, **swf_to_dict(value)}, 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as e:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from e


def run_gadget(args, config: RunConfig) -> tuple[dict, int]:
    for flag in ("dump_prefix", "permutation_cap"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be non-negative, got {value}")
    horizon = config.horizon
    if args.kind == "lemma1":
        return _run_threshold_gadget(args, horizon)
    return _run_sequence_gadget(args, horizon, config)


def _run_threshold_gadget(args, horizon: int) -> tuple[dict, int]:
    if args.indices:
        g_r = threshold_gadget_from_indices(_parse_int_list(args.indices))
    elif args.r:
        g_r = build_threshold_gadget(parse_rational(args.r), horizon=horizon)
    else:
        raise ValueError("lemma1 needs --r or --indices")
    results: dict = {
        "indices": list(g_r.indices),
        "first_point": g_r.first_point,
        "sound_horizon": min(g_r.sound_horizon, 10**18),
        "gap_set": format_set(g_r.gap_set),
    }
    if args.s or args.s_indices:
        if args.s_indices:
            g_s = threshold_gadget_from_indices(_parse_int_list(args.s_indices))
            cmp_res = compare_threshold_gadgets(g_r, g_s, horizon=horizon)
        else:
            cmp_res = compare_thresholds(
                parse_rational(args.r), parse_rational(args.s), horizon=horizon
            )
        results["comparison"] = {
            "case": cmp_res.case,
            "u1": cmp_res.u1,
            "u2": cmp_res.u2,
            "permutation": (
                format_permutation(cmp_res.permutation) if cmp_res.permutation else None
            ),
            "claimed_set": format_set(cmp_res.claimed_set),
            "certificate": density_to_dict(cmp_res.certificate),
            "checks": [
                {"name": name, **verdict_to_dict(v)} for name, v in cmp_res.checks
            ],
            "all_hold": cmp_res.all_hold,
        }
        ok = cmp_res.all_hold
    else:
        verdict = verify_density_one_step(g_r, horizon)
        results["density_one_step"] = verdict_to_dict(verdict)
        ok = verdict.holds
    if args.dump_prefix:
        n = args.dump_prefix
        results["prefixes"] = {
            "lower": [_frac(q) for q in prefix(g_r.lower_stream, n)],
            "upper": [_frac(q) for q in prefix(g_r.upper_stream, n)],
        }
    return results, 0 if ok else 1


def _run_sequence_gadget(args, horizon: int, config: RunConfig) -> tuple[dict, int]:
    if not args.t:
        raise ValueError("lemma2 needs --t")
    g = build_sequence_gadget(_parse_int_list(args.t), args.case, args.m)
    links = verify_sequence_chain(
        g, horizon, permutation_cap=args.permutation_cap
    )
    rows = []
    for link in links:
        row: dict = {"name": link.name, "kind": link.kind}
        if link.verdict is not None:
            row["verdict"] = verdict_to_dict(link.verdict)
        if link.permutation is not None:
            moved = link.permutation.moved_points()
            row["permutation"] = {
                "bound": link.permutation.bound,
                "moved_points": len(moved),
                "table": (
                    format_permutation(link.permutation) if len(moved) <= 64 else None
                ),
            }
        if link.certificate is not None:
            row["certificate"] = [
                {"m": m, "checkpoint": cp, "count": c, "bound": _frac(b)}
                for m, cp, c, b in link.certificate.rows
            ]
        rows.append(row)
    results = {
        "t": list(g.ts),
        "case": g.case,
        "m": g.m,
        "subsequence": list(g.sub),
        "links": rows,
    }
    if args.dump_prefix:
        n = args.dump_prefix
        results["prefixes"] = {
            name: [_frac(q) for q in prefix(stream, n)]
            for name, stream in (
                ("x_full", g.x_full),
                ("y_full", g.y_full),
                ("x_sub", g.x_sub),
                ("y_sub", g.y_sub),
            )
        }
    if args.dump_csv:
        n = args.dump_prefix or 120
        with open(args.dump_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x_full", "y_full", "x_sub", "y_sub"])
            cols = [values(s, n) for s in (g.x_full, g.y_full, g.x_sub, g.y_sub)]
            for t, row in enumerate(zip(*cols), 1):
                writer.writerow([t] + [_frac(q) for q in row])
    failed = any(
        link.verdict is not None and link.verdict.status.value == "fails" for link in links
    )
    return results, 1 if failed else 0


def run_verify(args, config: RunConfig) -> tuple[dict, int]:
    results = run_verification(
        seed=config.seed,
        density_sets=args.density_sets,
        chain_pairs=args.chain_pairs,
        cesaro_trials=args.cesaro_trials,
        grading_pairs=args.grading_pairs,
        block_prefixes=args.block_prefixes,
        ratio_max=args.ratio_max,
        horizon=config.horizon,
        inject_failure=args.inject_failure,
        parallelism=config.parallelism,
    )
    passed = sum(1 for r in results if r.passed)
    report = {
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details} for r in results
        ],
        "passed": passed,
        "failed": len(results) - passed,
        "ok": passed == len(results),
    }
    return report, 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--horizon", type=int, default=None,
        help=f"pointwise scan horizon (default {DEFAULT_HORIZON}; env DENSITYLAB_HORIZON)",
    )
    common.add_argument("--checkpoint-max", type=int, default=DEFAULT_CHECKPOINT_MAX,
                        help="largest density checkpoint (default 10!)")
    common.add_argument("--output", choices=("json", "text", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--parallelism", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="densitylab",
        description="Exact asymptotic densities, dominance hierarchies, and "
        "verified welfare constructions.",
    )
    parser.add_argument("--version", action="version", version=f"densitylab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("density", parents=[common],
                       help="exact or estimated asymptotic density of a set")
    p.add_argument("set", help="index set in the text syntax, e.g. 'factorials(nat)'")
    p.set_defaults(handler=run_density)

    p = sub.add_parser("compare", parents=[common],
                       help="compare two streams under a named relation")
    p.add_argument("--axiom", required=True,
                   choices=sorted(DOMINANCE_PREDICATES) + list(_EXTRA_AXIOMS))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(handler=run_compare)

    p = sub.add_parser("swf", parents=[common],
                       help="evaluate a welfare function on a stream")
    p.add_argument("--which", required=True, choices=sorted(EVALUATORS))
    p.add_argument("--x", required=True)
    p.add_argument("--delta", default=None, help="discount factor p/q in (0,1)")
    p.add_argument("--tol", default=None, help="interval tolerance p/q")
    p.set_defaults(handler=run_swf)

    p = sub.add_parser("gadget", parents=[common],
                       help="build and verify a named construction")
    p.add_argument("kind", choices=("lemma1", "lemma2"))
    p.add_argument("--r", default=None, help="threshold p/q in (0,1)")
    p.add_argument("--s", default=None, help="second threshold p/q, r < s")
    p.add_argument("--indices", default=None, help="explicit index prefix, e.g. 1,2,3,4,7")
    p.add_argument("--s-indices", default=None, help="explicit second prefix")
    p.add_argument("--t", default=None, help="sequence prefix, e.g. 1,2,3,4,5,6,7,8")
    p.add_argument("--case", choices=("a", "b", "c"), default="a")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--permutation-cap", type=int, default=DEFAULT_PERMUTATION_CAP)
    p.add_argument("--dump-prefix", type=int, default=None,
                   help="include the first N stream values in the report")
    p.add_argument("--dump-csv", default=None, help="write stream prefixes to a CSV file")
    p.set_defaults(handler=run_gadget)

    p = sub.add_parser("verify", parents=[common], help="run the full invariant suite")
    p.add_argument("--density-sets", type=int, default=200)
    p.add_argument("--chain-pairs", type=int, default=500)
    p.add_argument("--cesaro-trials", type=int, default=100)
    p.add_argument("--grading-pairs", type=int, default=100)
    p.add_argument("--block-prefixes", type=int, default=20)
    p.add_argument("--ratio-max", type=int, default=12)
    p.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler=run_verify)
    return parser


def _resolve_horizon(args) -> int:
    if getattr(args, "horizon", None) is not None:
        return args.horizon
    env = os.environ.get("DENSITYLAB_HORIZON")
    if env:
        try:
            return int(env)
        except ValueError as e:
            raise ValueError(f"DENSITYLAB_HORIZON must be an integer, got {env!r}") from e
    return DEFAULT_HORIZON


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config = RunConfig(
            horizon=_resolve_horizon(args),
            checkpoint_max=args.checkpoint_max,
            output=args.output,
            seed=args.seed,
            parallelism=args.parallelism,
        )
        results, code = args.handler(args, config)
    except ValueError as e:
        error_code = next(
            (code for cls, code in _ERROR_CODES if isinstance(e, cls)), "usage_error"
        )
        json.dump({"error": {"code": error_code, "message": str(e)}}, stderr)
        stderr.write("\n")
        return 2
    command = " ".join(argv if argv is not None else sys.argv[1:])
    report = make_report(command, config, results)
    try:
        emit(report, config, stdout)
        stdout.flush()
    except BrokenPipeError:
        # The reader left early (``| head``).  Point stdout at /dev/null so
        # the interpreter's own flush at exit cannot fail a second time.
        if stdout is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    stderr.write(f"completed in {time.perf_counter() - started:.3f}s\n")
    return code


def entry() -> None:
    """Process entry point: run ``main`` and exit with its code."""
    code = main()
    # Spare the collection at interpreter exit a pass over every object
    # still alive.  Not in main, which tests call in process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
