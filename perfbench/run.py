"""densitylab benchmark: one seeded, closed-loop, single-client workload per run.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and README.md): ``query_mix``, ``long_scan`` and
``verify_cli``.  With ``--trace 0`` the run measures the end-to-end metrics;
with ``--trace 1`` it runs the workload once untraced and once traced, in two
fresh worker processes, and reports the per-layer metrics and the tracing
overhead.  Every answer is checked by the oracle in oracle.py.

The program under test is ``src/densitylab`` of the checkout this file sits
in; nothing is installed.  Human-readable lines go to stdout first, prefixed
with ``#``; the last stdout line is the JSON result.  The full result, with
the environment, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import densitylab  # noqa: E402
except ImportError as e:
    sys.exit(f"benchmark failed: densitylab is not importable from {ROOT}/src: {e}")
if Path(densitylab.__file__).resolve().parent != ROOT / "src" / "densitylab":
    sys.exit(f"benchmark failed: densitylab imported from {densitylab.__file__}, not {ROOT}/src")

import metrics  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle, known_defect  # noqa: E402

SETUP_SAMPLES = 5
# Share of --seconds that the untraced half of a traced run measures.
TRACE_BASE_SHARE = 0.3
# A run must end within 180 s; no single worker answer may take longer than this.
CHILD_TIMEOUT_S = 150
VERIFY_TIMEOUT_S = 60

_perf = time.perf_counter


class BenchError(RuntimeError):
    pass


def _no_answer(signum, frame):
    raise BenchError(f"a worker gave no answer within {CHILD_TIMEOUT_S} s")


# ---------------------------------------------------------------------------
# Child processes (at most one at a time)
# ---------------------------------------------------------------------------


class Worker:
    """A worker.py process; set-up time runs from launch to its ready line."""

    def __init__(self, wire: dict, trace: bool = False):
        self.t0 = _perf()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(ROOT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            self._send({**wire, "trace": trace})
            self.ready = self._receive()
        except BaseException:
            self.close()
            raise
        self.setup_s = _perf() - self.t0

    def _send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def _receive(self) -> dict:
        signal.signal(signal.SIGALRM, _no_answer)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            line = self.proc.stdout.readline()
        finally:
            signal.alarm(0)
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()} before answering")
        return json.loads(line)

    def go(self, **kwargs) -> dict:
        try:
            self._send({"go": True, **kwargs})
            return self._receive()
        finally:
            self.close()

    def exit(self) -> None:
        try:
            self._send({"exit": True})
        finally:
            self.close()

    def close(self) -> None:
        """Wait for the worker to end; kill it if it does not end on its own."""
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setup_samples(wire: dict, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        w = Worker(wire)
        samples.append(w.setup_s)
        w.exit()
    return samples


def run_cli(argv: list[str]) -> tuple[str, float, dict | None]:
    """One `densitylab ...` invocation in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    t0 = _perf()
    try:
        done = subprocess.run([sys.executable, "-m", "densitylab.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=VERIFY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", _perf() - t0, None
    latency = _perf() - t0
    return "ok", latency, {"code": done.returncode, "stdout": done.stdout}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def end_to_end(plan, seconds: float) -> dict:
    wire = plan.wire()
    if plan.workload == "verify_cli":
        setup = setup_samples(wire, SETUP_SAMPLES)
        records = []
        started = _perf()
        for passes in itertools.count(1):
            for i, op in enumerate(plan.cycles[0]):
                records.append([0, i, *run_cli(op.args["argv"])])
            if passes >= 2 and _perf() - started >= seconds:
                break
    else:
        setup = setup_samples(wire, SETUP_SAMPLES - 1)
        worker = Worker(wire)
        setup.append(worker.setup_s)
        records = worker.go(seconds=seconds, timed=True)["records"]
    # The largest child is the one that did the work: the worker, or a verify run.
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"setup": setup, "records": records, "peak_rss_mb": peak_kb / 1024}


def traced(plan, seconds: float) -> dict:
    """An untraced and a traced pass over the same ops, each from a fresh process."""
    OUT.mkdir(exist_ok=True)
    spans_out = OUT / f"spans-{plan.workload}-seed{plan.seed}.npz"
    probe = plan.wire_probe()
    limit = workloads.PROBE_TIME_LIMIT_S
    if plan.workload == "verify_cli":
        # verify runs cold: every op gets its own pair of processes.
        base_wall = traced_wall = 0.0
        records, summaries, imports = [], [], []
        for i, op in enumerate(plan.cycles[0]):
            single = workloads.Plan(plan.workload, plan.seed, [[op]])
            base = Worker(single.wire()).go(seconds=0, max_ops=1, probe_limit_s=limit,
                                            probe=probe if i == 0 else [])
            if i == 0:
                probe_records = base["probe"]
            run = Worker(single.wire(), trace=True).go(
                seconds=0, max_ops=1, spans_out=str(spans_out) if i == 0 else None)
            base_wall += base["wall_s"]
            traced_wall += run["wall_s"]
            records += [[0, i, *r[2:]] for r in run["records"]]
            summaries.append(run["trace"])
            imports.append(run["import_s"])
    else:
        base = Worker(plan.wire()).go(seconds=seconds * TRACE_BASE_SHARE, probe=probe,
                                      probe_limit_s=limit)
        probe_records = base["probe"]
        run = Worker(plan.wire(), trace=True).go(seconds=0, max_ops=len(base["records"]),
                                                 spans_out=str(spans_out))
        base_wall, traced_wall = base["wall_s"], run["wall_s"]
        records, summaries, imports = run["records"], [run["trace"]], [run["import_s"]]
    return {
        "records": records,
        "trace": metrics.merge_traces(summaries),
        "import_s": statistics.mean(imports),
        "overhead_ratio": traced_wall / base_wall,
        "probe": [[-2, i, *r] for i, r in enumerate(probe_records)],
        "clause_probe": [[op.args["k"], r[0], r[1]] for op, r in zip(plan.probe, probe_records)
                         if op.kind == "clause"],
        "probe_limit_s": limit,
        "verify_runs": len(summaries) if plan.workload == "verify_cli" else 0,
        "spans_file": str(spans_out.relative_to(ROOT)),
    }


def check(plan, records, limit_s) -> tuple[int, int, int, list[str]]:
    """(failed ops, wrong answers, wrong answers no known defect explains, reasons)."""
    oracle = Oracle(plan)
    failed, wrong, unexplained, reasons = 0, 0, 0, []
    for ci, i, status, latency, result in records:
        op = plan.op(ci, i)
        if status != "ok":
            failed += 1
            detail = (f"at the {limit_s:g} s limit after {latency:.3f} s"
                      if status == "timeout" else str(result))
            reasons.append(f"{op.kind}[{ci}.{i}] {status} {detail}")
            continue
        why = oracle.check(ci, i, result)
        if why:
            failed += 1
            wrong += 1
            defect = known_defect(op)
            unexplained += defect is None
            reasons.append(f"{op.kind}[{ci}.{i}] wrong: {why}; "
                           + (f"known defect: {defect}" if defect else "NOT a known defect"))
    return failed, wrong, unexplained, reasons


def time_by_kind(plan, records) -> dict[str, float]:
    seconds: dict[str, float] = {}
    for ci, i, _, latency, _ in records:
        op = plan.op(ci, i)
        kind = op.kind + (f".{op.args['rel']}" if op.kind == "pred" else
                          f".{op.args['which']}" if op.kind in ("swf", "induced") else "")
        seconds[kind] = seconds.get(kind, 0.0) + latency
    return seconds


def environment(plan, seconds: float) -> dict:
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "workload": plan.workload,
        "seed": plan.seed,
        "op_seeds": [op.args["argv"][2] for op in plan.cycles[0]]
        if plan.workload == "verify_cli" else None,
        "seconds": seconds,
        "time_limit_s": plan.time_limit_s,
        "probe_time_limit_s": workloads.PROBE_TIME_LIMIT_S,
    }


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for selfcheck.py")
    args = parser.parse_args(argv)

    plan = workloads.build(args.workload, args.seed, tiny=args.tiny)
    env = environment(plan, args.seconds)
    probe_unexplained, probe_reasons = 0, []
    if args.trace:
        run = traced(plan, args.seconds)
        env["tracing_overhead_ratio"] = run["overhead_ratio"]
        run["probe_failed"], _, probe_unexplained, probe_reasons = check(
            plan, run["probe"], run["probe_limit_s"])
        values, notes = metrics.per_layer(run)
        notes.append(f"probe: {run['probe_failed']} of {len(run['probe'])} ops failed "
                     f"(not part of the workload; not counted in failed)")
        probe_reasons = [f"probe {why}" for why in probe_reasons]
    else:
        run = end_to_end(plan, args.seconds)
        values, notes = metrics.end_to_end(run)
    failed, wrong, unexplained, reasons = check(plan, run["records"],
                                                plan.time_limit_s or VERIFY_TIMEOUT_S)
    notes.append("seconds by op kind: " + ", ".join(
        f"{kind} {secs:.3f}" for kind, secs in sorted(
            time_by_kind(plan, run["records"]).items(), key=lambda item: -item[1])))
    attempted = len(run["records"])
    notes.append(f"failed_share = {failed / attempted:.6f} ({failed} of {attempted} ops failed; "
                 f"{wrong} answers contradicted by the oracle, {unexplained} of them "
                 f"not explained by a known defect)")
    result = {
        "correct": unexplained + probe_unexplained == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": metrics.UNITS[name]} for name, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "environment": env, "notes": notes, "failures": reasons,
         "probe_failures": probe_reasons}, indent=1))
    for line in [f"{k} = {v}" for k, v in env.items()] + notes + reasons[:20] + probe_reasons:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        sys.exit(1)
