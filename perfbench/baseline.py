"""Re-measure the baseline table of ROADMAP.md's Open items and compare.

    python3 perfbench/baseline.py

Each row runs the `densitylab` command of this checkout in fresh processes,
one at a time, and reports the median and minimum wall time.  A row
reproduces when its median is within 25 % of the ROADMAP figure; the
3-clause chain report is stopped at a time limit and reads "timed out at T".
The table goes to stdout as Markdown and to perfbench/out/baseline.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TOLERANCE = 0.25
CLAUSE_LIMIT_S = 10.0

CLAUSE_X = ("piecewise(default=9;factorials(ap(1,4)):1;factorials(ap(2,4)):2;"
            "factorials(ap(3,4)):3)")
CLAUSE_Y = CLAUSE_X.replace("default=9", "default=0")
CLAUSE2_X = "piecewise(default=9;factorials(ap(1,3)):1;factorials(ap(2,3)):2)"
CLAUSE2_Y = CLAUSE2_X.replace("default=9", "default=0")

# Prints the import's own time, so that the row leaves out interpreter start.
_IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"

# (row, ROADMAP seconds, argv after the interpreter, runs)
ROWS = [
    ("CLI startup (`density nat`)", 0.086, ["-m", "densitylab.cli", "density", "nat"], 5),
    ("`import densitylab.cli`, in-process", 0.062,
     ["-c", _IMPORT_TIMER.format("densitylab.cli")], 5),
    ("first block-pattern density", 0.25,
     ["-m", "densitylab.cli", "density", "fintervals[((2k-1)!,(2k)!)]"], 3),
    ("sympy import alone, in-process", 0.11, ["-c", _IMPORT_TIMER.format("sympy")], 3),
    ("`verify --seed 0`", 1.4, ["-m", "densitylab.cli", "verify", "--seed", "0"], 3),
    ("`verify --seed 0 --parallelism 2`", 1.37,
     ["-m", "densitylab.cli", "verify", "--seed", "0", "--parallelism", "2"], 3),
    ("`gadget lemma1 --r 1/3 --horizon 362880`", 3.2,
     ["-m", "densitylab.cli", "gadget", "lemma1", "--r", "1/3", "--horizon", "362880"], 3),
    ("`compare --axiom anonymity`, rank-fill pair, horizon 362880", 7.1,
     ["-m", "densitylab.cli", "compare", "--axiom", "anonymity", "--horizon", "362880",
      "--x", "rankfill(factorials(nat))", "--y", "rankfill(diff(factorials(nat),finite{1}))"], 1),
    ("chain report, two-sided 3-clause pair", 206.0,
     ["-m", "densitylab.cli", "compare", "--axiom", "chain", "--x", CLAUSE_X, "--y", CLAUSE_Y], 1),
    ("chain report, same shape with 2 clauses", 0.08,
     ["-m", "densitylab.cli", "compare", "--axiom", "chain", "--x", CLAUSE2_X, "--y", CLAUSE2_Y],
     3),
]


def timed_run(argv: list[str], limit: float) -> float | None:
    """Wall time of one process (or the time an import timer prints), or None
    when it hit the limit and was killed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return None
    wall = time.perf_counter() - t0
    return float(done.stdout) if argv[1].startswith("import time") else wall


def main() -> int:
    rows = []
    print("| What | ROADMAP | median | min | runs | reproduces |")
    print("| --- | --- | --- | --- | --- | --- |")
    for what, roadmap_s, argv, runs in ROWS:
        limit = CLAUSE_LIMIT_S if roadmap_s > 60 else 120.0
        times = [timed_run(argv, limit) for _ in range(runs)]
        if any(t is None for t in times):
            row = {"what": what, "roadmap_s": roadmap_s, "timed_out_at_s": limit}
            verdict = (f"consistent (still running at {limit:g} s)" if roadmap_s > limit
                       else "**no** (timed out)")
            cells = (f"timed out at {limit:g} s", "-")
        else:
            med = statistics.median(times)
            ok = abs(med - roadmap_s) <= TOLERANCE * roadmap_s
            row = {"what": what, "roadmap_s": roadmap_s, "median_s": med, "min_s": min(times),
                   "reproduces": ok}
            verdict = "yes" if ok else f"**no** ({med / roadmap_s:.2f}x)"
            cells = (f"{med:.3f} s", f"{min(times):.3f} s")
        rows.append(row)
        print(f"| {what} | {roadmap_s:g} s | {cells[0]} | {cells[1]} | {runs} | {verdict} |",
              flush=True)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "baseline.json").write_text(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
