import ast
import gc
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from densitylab import cli
from densitylab.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    return code, json.loads(out), err


def test_density_of_factorials():
    code, report, _ = run_json(["density", "factorials(nat)"])
    assert code == 0
    r = report["results"]
    assert r["lower"] == "0" and r["upper"] == "0" and r["exact"] is True


def test_density_of_odds():
    code, report, _ = run_json(["density", "ap(1,2)"])
    assert code == 0
    r = report["results"]
    assert r["lower"] == "1/2" and r["upper"] == "1/2" and r["exact"] is True


def test_density_of_full_union():
    code, report, _ = run_json(["density", "union(ap(1,2), ap(2,2))"])
    assert code == 0
    r = report["results"]
    assert r["lower"] == "1" and r["upper"] == "1" and r["exact"] is True


def test_density_estimate_carries_evidence():
    code, report, _ = run_json(
        ["density", "inter(fintervals[((2k-1)!,(2k)!)], ap(1,2))", "--checkpoint-max", "5040"]
    )
    assert code == 0
    r = report["results"]
    assert r["exact"] is False and r["evidence"]


def test_compare_density_one():
    code, report, _ = run_json(
        ["compare", "--axiom", "density_one", "--x", "const(1)", "--y", "const(0)"]
    )
    assert code == 0
    r = report["results"]
    assert r["status"] == "holds"
    assert r["witness"]["density"]["lower"] == "1"


def test_compare_chain():
    code, report, _ = run_json(
        ["compare", "--axiom", "chain", "--x", "piecewise(default=0;factorials:1)",
         "--y", "const(0)"]
    )
    assert code == 0
    r = report["results"]
    assert r["consistent"] is True
    by_name = {e["predicate"]: e["status"] for e in r["entries"]}
    assert by_name["pareto"] == "holds" and by_name["upper"] == "fails"


def test_compare_anonymity():
    code, report, _ = run_json(
        ["compare", "--axiom", "anonymity", "--x", "const(1)", "--y", "const(1)"]
    )
    assert code == 0 and report["results"]["equivalent"] is True


def test_anonymity_rank_fills_with_infinite_difference():
    # The fills differ on every coordinate; the value balance at the horizon cancels.
    code, report, _ = run_json(["compare", "--axiom", "anonymity", "--x", "rankfill(ap(1,2))",
                                "--y", "rankfill(ap(2,2))"])
    assert code == 0 and report["results"]["equivalent"] is False


def test_anonymity_finite_difference_beyond_the_horizon():
    # The streams differ only at t = 6000, past the default horizon 5040.
    code, report, _ = run_json(["compare", "--axiom", "anonymity", "--x",
                                "piecewise(default=0;finite{6000}:1)", "--y", "const(0)"])
    assert code == 0 and report["results"]["equivalent"] is False
    code, report, _ = run_json(["compare", "--axiom", "anonymity", "--x",
                                "piecewise(default=0;finite{6000}:1)",
                                "--y", "piecewise(default=0;finite{7000}:1)"])
    assert code == 0 and report["results"]["equivalent"] is True


# A pair whose strict sets are finite only because n! is divisible by 27 for
# large n; both analyses used to end in set_error.
FACTORIAL_PERIOD_PAIR = [
    "--x", "piecewise(default=2;compl(finite{27}):3;diff(factorials(ap(3,1)),compl(finite{27})):2)",
    "--y", "piecewise(default=1;union(interval(34,37),finite{21,47,58}):3;diff(diff(factorials(ap(1,1)),"
           "diff(finite{10,39,45,51},factorials(ap(2,1)))),union(interval(34,37),finite{21,47,58})):1)",
]


@pytest.mark.parametrize("axiom", ["chain", "suppes_sen"])
def test_factorial_period_pair_is_decided(axiom):
    start = time.perf_counter()
    code, report, _ = run_json(["compare", "--axiom", axiom] + FACTORIAL_PERIOD_PAIR)
    assert time.perf_counter() - start < 2
    assert code == 0
    r = report["results"]
    if axiom == "chain":
        assert r["consistent"] is True
    else:
        assert r["status"] == "holds"


def test_pareto_on_a_literal_strict_set_beyond_the_horizon():
    # The strict set finite{7000} has no element below the horizon 5040, but
    # a literal nonempty set needs no scan.
    code, report, _ = run_json(["compare", "--axiom", "pareto", "--x",
                                "piecewise(default=0;finite{7000}:1)", "--y", "const(0)"])
    assert code == 0 and report["results"]["status"] == "holds"


def test_suppes_sen_with_factorials_meeting_a_period():
    # The strict set is factorials meeting ap(1,1000), which is {1}: the
    # difference window ends at its exact maximum, not at 999!.
    code, report, _ = run_json(["compare", "--axiom", "suppes_sen", "--x",
                                "piecewise(default=1;inter(factorials(nat),ap(1,1000)):2)",
                                "--y", "const(1)"])
    assert code == 0
    r = report["results"]
    assert r["status"] == "holds" and r["witness"]["strict_set"] == "finite{1}"


def test_swf_discounted_rank_fill_converges():
    code, report, _ = run_json(["swf", "--which", "discounted", "--delta", "1/2",
                                "--x", "rankfill(ap(1,2))"])
    assert code == 0
    r = report["results"]
    lo, hi = Fraction(r["lo"]), Fraction(r["hi"])
    assert r["kind"] == "interval" and 0 < hi - lo <= Fraction(1, 10**9)
    # 1 at odd t, k + 1 at t = 2k: 4/3 + 2 * (4/9 + 1/3) = 26/9.
    assert lo <= Fraction(26, 9) <= hi


def test_swf_cesaro():
    code, report, _ = run_json(
        ["swf", "--which", "cesaro", "--x", "piecewise(default=0; ap(2,2):1)"]
    )
    assert code == 0
    r = report["results"]
    assert r["kind"] == "finite" and r["value"] == "1/2"


def test_swf_discounted():
    code, report, _ = run_json(
        ["swf", "--which", "discounted", "--x", "const(1)", "--delta", "1/2"]
    )
    assert code == 0 and report["results"]["value"] == "2"


def test_swf_discounted_requires_delta():
    code, out, err = run_cli(["swf", "--which", "discounted", "--x", "const(1)"])
    assert code == 2 and "delta" in err


def test_gadget_density_one_step():
    code, report, _ = run_json(["gadget", "lemma1", "--r", "1/3", "--horizon", "5040"])
    assert code == 0
    r = report["results"]
    assert r["density_one_step"]["status"] == "holds"


def test_gadget_comparison_case_a():
    code, report, _ = run_json(["gadget", "lemma1", "--r", "1/3", "--s", "2/3"])
    assert code == 0
    c = report["results"]["comparison"]
    assert c["case"] == "a" and c["all_hold"] is True


def test_gadget_reference_instance():
    code, report, _ = run_json(
        ["gadget", "lemma1", "--indices", "1,2,3,4,7", "--s-indices", "1,2,7",
         "--dump-prefix", "7"]
    )
    assert code == 0
    r = report["results"]
    assert r["comparison"]["case"] == "b"
    assert r["prefixes"]["lower"] == ["1", "1", "2", "3", "4", "1", "5"]
    assert r["prefixes"]["upper"] == ["2", "1", "3", "4", "5", "1", "6"]
    assert r["comparison"]["permutation"] == "perm[6](1->6,3->1,4->3,5->4,6->5)"


def test_gadget_sequence_chain():
    code, report, _ = run_json(
        ["gadget", "lemma2", "--t", "1,2,3,4,5,6,7,8", "--case", "b", "--m", "2"]
    )
    assert code == 0
    links = {l["name"]: l for l in report["results"]["links"]}
    assert links["x_sub_below_y_full"]["verdict"]["status"] == "holds"
    assert links["y_full_below_x_full"]["kind"] == "assumed"


def test_gadget_csv_dump(tmp_path):
    target = tmp_path / "streams.csv"
    code, report, _ = run_json(
        ["gadget", "lemma2", "--t", "1,2,3,4,5,6,7", "--case", "a",
         "--dump-prefix", "7", "--dump-csv", str(target)]
    )
    assert code == 0
    assert report["results"]["prefixes"]["x_full"] == ["1", "2", "3", "1", "1", "1", "4"]
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,x_full,y_full,x_sub,y_sub"
    assert lines[1].startswith("1,1,1,1,1")


def test_parse_error_exit_code():
    code, out, err = run_cli(["density", "bogus("])
    assert code == 2
    assert json.loads(err.splitlines()[0])["error"]["code"] == "parse_error"


def _nested(depth):
    return "compl(" * depth + "nat" + ")" * depth


def test_nesting_past_the_cap_is_a_parse_error():
    from densitylab.dsl import MAX_NESTING

    code, out, err = run_cli(["density", _nested(MAX_NESTING + 1)])
    assert code == 2 and out == "" and _error_code(err) == "parse_error"
    code, report, _ = run_json(["density", _nested(200)])
    assert code == 0 and report["results"]["exact"] is True


def test_config_validation_exit_code():
    code, _, err = run_cli(["density", "nat", "--horizon", "100", "--checkpoint-max", "10"])
    assert code == 2
    assert "usage_error" in err


def _error_code(err):
    return json.loads(err.splitlines()[0])["error"]["code"]


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_horizon_below_one_rejected(horizon, monkeypatch):
    monkeypatch.delenv("DENSITYLAB_HORIZON", raising=False)
    code, out, err = run_cli(["compare", "--axiom", "weak", "--x", "const(1)", "--y", "const(0)",
                              "--horizon", horizon])
    assert code == 2 and out == "" and _error_code(err) == "usage_error"


@pytest.mark.parametrize("flag", ["--dump-prefix", "--permutation-cap"])
def test_negative_gadget_flags_rejected(flag):
    code, out, err = run_cli(["gadget", "lemma2", "--t", "1,2,3,4,5,6,7,8", "--case", "b",
                              flag, "-3"])
    assert code == 2 and out == "" and _error_code(err) == "usage_error"


def test_unreachable_threshold_ends_with_gadget_error():
    # The first index with q_n >= 99/100 lies past 2**98.
    start = time.perf_counter()
    code, out, err = run_cli(["gadget", "lemma1", "--r", "99/100", "--horizon", "5040"])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and _error_code(err) == "gadget_error"


def test_overlap_reports_stream_error():
    code, _, err = run_cli(["compare", "--axiom", "weak", "--x",
                            "piecewise(default=0;ap(1,2):1;ap(1,3):2)", "--y", "const(0)"])
    assert code == 2 and _error_code(err) == "stream_error"


def test_a_value_too_long_to_print_has_its_own_code():
    # The interval ends have denominators of about 100**2000.
    argv = ["swf", "--which", "discounted", "--delta", "99/100",
            "--x", "piecewise(default=0;factorials(nat):1)"]
    code, out, err = run_cli(argv)
    assert code == 2 and out == "" and _error_code(err) == "value_too_long"
    assert "Traceback" not in err


def test_env_horizon_override(monkeypatch):
    monkeypatch.setenv("DENSITYLAB_HORIZON", "720")
    code, report, _ = run_json(["compare", "--axiom", "weak", "--x", "const(1)", "--y", "const(0)"])
    assert code == 0 and report["config"]["horizon"] == 720


def test_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("DENSITYLAB_HORIZON", "720")
    code, report, _ = run_json(
        ["compare", "--axiom", "weak", "--x", "const(1)", "--y", "const(0)",
         "--horizon", "120"]
    )
    assert code == 0 and report["config"]["horizon"] == 120


def test_text_and_csv_outputs():
    code, out, _ = run_cli(["density", "ap(1,2)", "--output", "text"])
    assert code == 0 and "lower: 1/2" in out
    code, out, _ = run_cli(["density", "ap(1,2)", "--output", "csv"])
    assert code == 0 and "lower,1/2" in out


VERIFY_ARGS = [
    "verify", "--density-sets", "12", "--chain-pairs", "12", "--cesaro-trials", "6",
    "--grading-pairs", "6", "--block-prefixes", "3", "--ratio-max", "6",
]


def test_verify_passes_and_is_deterministic():
    code1, out1, _ = run_cli(VERIFY_ARGS + ["--seed", "11"])
    code2, out2, _ = run_cli(VERIFY_ARGS + ["--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"]["ok"] is True


def test_verify_seed_changes_sample_not_verdicts():
    _, out1, _ = run_cli(VERIFY_ARGS + ["--seed", "1"])
    _, out2, _ = run_cli(VERIFY_ARGS + ["--seed", "2"])
    r1 = json.loads(out1)["results"]
    r2 = json.loads(out2)["results"]
    assert r1["ok"] and r2["ok"]
    assert [c["passed"] for c in r1["checks"]] == [c["passed"] for c in r2["checks"]]


def test_verify_injected_failure_fails():
    code, out, _ = run_cli(VERIFY_ARGS + ["--inject-failure"])
    assert code == 1
    assert json.loads(out)["results"]["ok"] is False


def test_timing_goes_to_stderr_not_stdout():
    code, out, err = run_cli(["density", "nat"])
    assert code == 0
    assert "completed in" in err
    assert json.loads(out)["timing"] is None


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, densitylab.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def test_cli_and_verify_leave_sympy_unloaded():
    # A fresh process, since other tests import sympy as a cross-check.
    code = (
        "import io, sys, densitylab.cli\n"
        "loaded = 'sympy' in sys.modules\n"
        "densitylab.cli.main(['verify', '--seed', '0'], stdout=io.StringIO(), stderr=io.StringIO())\n"
        "sys.exit(loaded or 'sympy' in sys.modules)\n"
    )
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def test_closed_stdout_ends_without_a_traceback():
    # The report is far larger than a pipe buffer, so the writer is still
    # writing when the reader leaves after the first line (as ``| head -1``).
    argv = ["gadget", "lemma1", "--r", "1/3", "--dump-prefix", "20000"]
    with subprocess.Popen([sys.executable, "-m", "densitylab.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "Exception ignored" not in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "densitylab.cli", "density", "factorials(nat)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["exact"] is True


def test_verify_in_process_leaves_the_collector_unfrozen():
    assert main(VERIFY_ARGS + ["--seed", "0"], stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert gc.get_freeze_count() == 0


def test_verify_process_matches_the_in_process_report():
    argv = ["verify", "--seed", "0"]
    code, out, _ = run_cli(argv)
    proc = subprocess.run([sys.executable, "-m", "densitylab.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    assert code == proc.returncode == 0
    assert proc.stdout == out


def test_installed_script_and_module_share_one_entry():
    root = Path(__file__).resolve().parents[1]
    scripts = (root / "pyproject.toml").read_text().split("[project.scripts]")[1]
    module, name = re.search(r'^densitylab = "([\w.]+):(\w+)"', scripts, re.M).groups()
    assert module == "densitylab.cli" and getattr(cli, name) is cli.entry
    tree = ast.parse(Path(cli.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(stmt) for stmt in guard.body] == [f"{name}()"]
