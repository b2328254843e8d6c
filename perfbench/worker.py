"""The process that runs densitylab for the benchmark.

Started by run.py, one at a time, from a fresh interpreter so that the
program's caches start empty.  Protocol on stdin/stdout, one JSON line each:

1. run.py writes the plan (op kinds and text inputs only).
2. The worker imports ``densitylab.cli``, installs tracing if asked, parses
   every text input with ``densitylab.dsl`` and writes ``{"ready": ...}``.
3. run.py writes ``{"go": ...}`` (or ``{"exit": true}`` for a set-up probe).
4. The worker runs whole cycles of ops in a closed loop, one at a time,
   every cycle at least twice and until the time budget is used (or until
   the op budget of a traced run is used), and writes its results.

Each op runs under ``signal.setitimer`` when the plan sets a time limit; the
timer raises in the main thread, so no thread or process is started per op.

Usage (from run.py only): python3 perfbench/worker.py ROOT
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import signal
import sys
import time
from pathlib import Path

_perf = time.perf_counter


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def _send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _receive() -> dict:
    line = sys.stdin.readline()
    if not line:
        raise SystemExit("run.py closed the pipe")
    return json.loads(line)


# ---------------------------------------------------------------------------
# Result summaries (JSON-friendly, computed after the op's clock stops)
# ---------------------------------------------------------------------------


def _verdict(v) -> list:
    return [v.status.value, v.counterexample]


def _density(d) -> list:
    return [str(d.lower), str(d.upper), d.exact, [[n, c] for n, c, _ in d.evidence]]


def _swf(v) -> list:
    return [v.kind] + [None if q is None else str(q) for q in (v.value, v.lo, v.hi)]


def _chain(report) -> list:
    return [[_verdict(v) for _, v in report.entries], report.consistent]


def _values_digest(values) -> str:
    return hashlib.sha256(",".join(str(v) for v in values).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Op preparation: parse the inputs, return (call, summarize)
# ---------------------------------------------------------------------------


def prepare(op: dict, dl: dict):
    """Parse one op's text inputs; return a zero-argument call and its summarizer."""
    dsl, ix, den, dom, wel, gad, cli = (dl[k] for k in (
        "dsl", "indexsets", "densities", "dominance", "welfare", "gadgets", "cli"))
    kind = op["kind"]
    if kind == "density":
        s = dsl.parse_set(op["set"])
        return (lambda: den.density(s)), _density
    if kind == "count":
        s, n = dsl.parse_set(op["set"]), op["n"]
        return (lambda: ix.count(s, n)), int
    if kind == "nth":
        s, m = dsl.parse_set(op["set"]), op["m"]
        return (lambda: ix.nth_element(s, m)), int
    if kind in ("pred", "chain", "clause", "anonymity"):
        x, y, h = dsl.parse_stream(op["x"]), dsl.parse_stream(op["y"]), op["h"]
        if kind in ("chain", "clause"):
            return (lambda: dom.implication_chain_report(x, y, h)), _chain
        rel = op.get("rel", "anonymity")
        if rel == "anonymity":
            return (lambda: dom.anonymity_equivalent(x, y, h)), bool
        fn = {"suppes_sen": dom.suppes_sen_compare, "lex": dom.lex_compare}.get(rel)
        fn = fn or dom.DOMINANCE_PREDICATES[rel]
        return (lambda: fn(x, y, h)), _verdict
    if kind in ("swf", "induced"):
        which = op["which"]
        kwargs = {"delta": dsl.parse_rational(op["delta"])} if op["delta"] else {}
        x = dsl.parse_stream(op["x"])
        if kind == "induced":
            y = dsl.parse_stream(op["y"])
            return (lambda: wel.induced_compare(which, x, y, **kwargs)), str
        fn = wel.EVALUATORS[which]
        return (lambda: fn(x, **kwargs)), _swf
    if kind == "lemma1":
        r, h = dsl.parse_rational(op["r"]), op["h"]

        def lemma1():
            g = gad.build_threshold_gadget(r, horizon=h)
            return g, gad.verify_density_one_step(g, h)

        return lemma1, lambda res: {"indices": list(res[0].indices),
                                    "verdict": _verdict(res[1])}
    if kind == "compare":
        r, s, h = dsl.parse_rational(op["r"]), dsl.parse_rational(op["s"]), op["h"]
        return (lambda: gad.compare_thresholds(r, s, horizon=h)), lambda c: {
            "case": c.case, "u1": c.u1, "u2": c.u2, "all_hold": c.all_hold,
            "checks": [[name, _verdict(v)] for name, v in c.checks],
            "permutation": list(c.permutation.mapping) if c.permutation else None,
        }
    if kind == "seqchain":
        ts, case, m, h = tuple(op["t"]), op["case"], op["m"], op["h"]

        def seqchain():
            return gad.verify_sequence_chain(gad.build_sequence_gadget(ts, case, m), h)

        return seqchain, lambda links: [
            [l.name, l.kind, _verdict(l.verdict) if l.verdict else None] for l in links
        ]
    if kind == "prefix":
        x, n = dsl.parse_stream(op["x"]), op["n"]
        return (lambda: dl["streams"].prefix(x, n)), lambda vals: [len(vals),
                                                                   _values_digest(vals)]
    if kind == "verify":
        argv = op["argv"]
        cli.build_parser().parse_args(argv)  # reject bad arguments in set-up

        def verify():
            out, err = io.StringIO(), io.StringIO()
            return cli.main(argv, stdout=out, stderr=err), out.getvalue()

        return verify, lambda res: {"code": res[0], "stdout": res[1]}
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _run_op(call, limit, tracer, span_id):
    """Run one op under the time limit; return (status, raw result, latency).

    The clock covers the call only, not arming and disarming the timer.
    """
    status, result = "ok", None
    try:
        if limit:
            signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = _perf()
        try:
            result = tracer.run(span_id, "bench", call) if tracer else call()
        finally:
            t1 = _perf()
            if limit:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except Exception as e:  # an op that raises is a failed op, not a crash
        status, result = "error", f"{type(e).__name__}: {e}"
    return status, result, t1 - t0


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    plan = _receive()
    sys.path.insert(0, str(root / "src"))
    t0 = _perf()
    import densitylab.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    import_s = _perf() - t0
    import densitylab

    if Path(densitylab.__file__).resolve().parent != root / "src" / "densitylab":
        raise SystemExit(f"densitylab imported from {densitylab.__file__}, not {root}/src")

    tracer = None
    if plan.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    dl = {name: importlib.import_module(f"densitylab.{name}") for name in (
        "dsl", "indexsets", "densities", "streams", "dominance", "welfare", "gadgets", "cli")}

    def setup():
        return ([[prepare(op, dl) for op in cycle] for cycle in plan["cycles"]],
                [prepare(op, dl) for op in plan["timed"]])

    cycles, timed = tracer.run(tracer.name_id("bench.setup"), "bench", setup) if tracer \
        else setup()
    _send({"ready": True, "import_s": import_s})
    go = _receive()
    if go.get("exit"):
        return 0

    limit = plan.get("time_limit_s")
    signal.signal(signal.SIGALRM, _on_alarm)
    max_ops, seconds = go.get("max_ops"), go["seconds"]
    timed = timed if go.get("timed") else []
    marks = [(j + 0.5) * seconds / len(timed) for j in range(len(timed))]
    records = []

    def run(ci, i, call, summarize, kind):
        span_id = tracer.name_id(f"bench.op.{kind}") if tracer else None
        status, result, latency = _run_op(call, limit, tracer, span_id)
        records.append([ci, i, status, latency, summarize(result) if status == "ok" else result])

    started = _perf()
    # Every op runs at least twice, so that each has a best repetition.
    min_cycles = 2 * len(cycles)
    for done, ci in enumerate(itertools.cycle(range(len(cycles))), start=1):
        for i, (call, summarize) in enumerate(cycles[ci]):
            while marks and _perf() - started >= marks[0]:
                j = len(timed) - len(marks)
                marks.pop(0)
                run(-1, j, *timed[j], plan["timed"][j]["kind"])
            run(ci, i, call, summarize, plan["cycles"][ci][i]["kind"])
            if len(records) == max_ops:
                break
        if len(records) == max_ops or (max_ops is None and not marks and done >= min_cycles
                                       and _perf() - started >= seconds):
            break
    wall_s = _perf() - started

    # The plan's probe, each op once after the loop, untraced.
    probe = []
    for op in go.get("probe", []):
        call, summarize = prepare(op, dl)
        status, result, latency = _run_op(call, go["probe_limit_s"], None, None)
        probe.append([status, latency, summarize(result) if status == "ok" else result])

    out = {
        "records": records,
        "wall_s": wall_s,
        "import_s": import_s,
        "probe": probe,
    }
    if tracer:
        out["trace"] = tracer.summary()
        if go.get("spans_out"):
            out["trace"]["spans_kept"] = tracer.write_spans(go["spans_out"])
    _send(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
