"""Fast self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

1. Runs every workload at a tiny size, untraced and traced, and fails when
   the result line is malformed, its metric names and units differ from
   BENCHMARK.json, or an op of the workload failed.
2. Runs one op of every kind at a tiny size in this process, checks that the
   oracle accepts the true answer, and fails when it accepts a deliberately
   corrupted one.
3. Copies BENCHMARK.json and the benchmark's own files into an otherwise
   empty directory and checks that the benchmark exits non-zero there,
   without printing a result.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
import worker  # noqa: E402
from oracle import Oracle, pair_values  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result_lines(spec: dict) -> list[str]:
    errors = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{where}: result keys {sorted(result)}")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
            if missing or extra:
                errors.append(f"{where}: missing metrics {missing}, unlisted metrics {extra}")
            errors += [f"{where}: {name} in {got[name]}, BENCHMARK.json says {unit}"
                       for name, unit in want.items() if name in got and got[name] != unit]
            if not result["correct"] or result["attempted"] < 1 or result["failed"]:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']} failed={result['failed']}")
            print(f"ok  {where}: {result['attempted']} ops, {result['failed']} failed")
    return errors


# ---------------------------------------------------------------------------
# Corrupted answers
# ---------------------------------------------------------------------------


def _strict_coordinate(op) -> int | None:
    xv, yv, _ = pair_values(op.ctx["x"], op.ctx["y"], 5040)
    strict = np.flatnonzero(xv > yv)
    return int(strict[0]) + 1 if len(strict) else None


def corrupt(op, res):
    """A wrong version of a true answer, or None when this op has none to offer."""
    kind = op.kind
    if kind == "density":
        lower, upper, exact, evidence = res
        if exact:
            return [lower, str(Fraction(upper) / 2 + Fraction(1, 7)), exact, evidence]
        return [lower, upper, exact, [[n, c + 1] for n, c in evidence]]
    if kind in ("count", "nth"):
        return res + 1
    if kind in ("chain", "clause"):
        return [res[0], False]
    if isinstance(res, bool):
        return not res
    if kind == "pred":
        # Claiming a descent where x is strictly above y is always wrong.
        t = _strict_coordinate(op)
        return None if t is None or op.args["rel"] in ("lex", "suppes_sen") else ["fails", t]
    if kind == "swf":
        if op.ctx["source"] != "window" or res[0] != "finite":
            return None
        return ["finite", str(Fraction(res[1]) + 1), None, None]
    if kind == "induced":
        if op.ctx["source"] != "window" or res == "undecided":
            return None
        return {"above": "below", "below": "above", "equivalent": "above"}[res]
    if kind == "lemma1":
        return {**res, "verdict": ["fails", None]}
    if kind == "compare":
        return {**res, "u2": res["u2"] + 1}
    if kind == "seqchain":
        links = [list(link) for link in res]
        for link in links:
            if link[2] is not None:
                link[2] = ["fails", 1]
                return links
        return None
    if kind == "prefix":
        return [res[0], "0" * 64]
    if kind == "verify":
        return {**res, "stdout": res["stdout"].replace('"ok": true', '"ok": false')}
    raise ValueError(f"no corruption for {kind}")


def check_oracle() -> list[str]:
    dl = {name: importlib.import_module(f"densitylab.{name}") for name in (
        "dsl", "indexsets", "densities", "streams", "dominance", "welfare", "gadgets", "cli")}
    errors, caught = [], {}
    for workload in workloads.WORKLOADS:
        plan = workloads.build(workload, 0, tiny=True)
        oracle = Oracle(plan)
        indexed = [(ci, i) for ci, c in enumerate(plan.cycles) for i in range(len(c))]
        indexed += [(-1, i) for i in range(len(plan.timed))]
        for ci, i in indexed:
            op = plan.op(ci, i)
            call, summarize = worker.prepare({"kind": op.kind, **op.args}, dl)
            try:
                res = summarize(call())
            except Exception as e:
                errors.append(f"{workload} {op.kind}: raised {type(e).__name__}: {e}")
                continue
            why = oracle.check(ci, i, res)
            if why:
                errors.append(f"{workload} {op.kind}: oracle rejects the true answer: {why}")
                continue
            bad = corrupt(op, res)
            if bad is None:
                continue
            caught.setdefault(op.kind, [0, 0])[1] += 1
            if oracle.check(ci, i, bad) is None:
                errors.append(f"{workload} {op.kind}: oracle accepts corrupted {bad!r:.200}")
            else:
                caught[op.kind][0] += 1
    kinds = {op.kind for w in workloads.WORKLOADS
             for c in workloads.build(w, 0, tiny=True).cycles for op in c} | {"clause"}
    errors += [f"no corrupted {kind} answer was tried" for kind in sorted(kinds - set(caught))]
    for kind, (n_caught, tried) in sorted(caught.items()):
        print(f"ok  oracle caught {n_caught} of {tried} corrupted {kind} answers")
    return errors


def check_bare_directory() -> list[str]:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, "perfbench/run.py", "--workload", "query_mix", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without src/ the benchmark exited {done.returncode} and printed "
                f"{done.stdout.strip()[-200:]!r}"]
    print(f"ok  without src/ the benchmark exits {done.returncode} and prints no result")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_result_lines(spec) + check_oracle() + check_bare_directory()
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
