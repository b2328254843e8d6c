"""Byte-identity of CLI reports against committed golden outputs.

Each command runs in-process through ``densitylab.cli.main``; its exit code
and stdout (and stderr on exit 2, where it holds the error JSON) must equal
``tests/golden/<name>.txt``.  After a deliberate report change, regenerate
the goldens and review their diff:

    PYTHONPATH=src python tests/test_reports.py
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

AXIOMS = ("uniform", "weak", "almost_weak", "density_one", "lower", "upper", "infinite",
          "pareto", "suppes_sen", "lex", "anonymity", "chain")

PAIRS = {
    # random_chain_pair's periodic shape: x lifts y by 1 on ap(1,2).
    "chain": (
        "piecewise(default=0;inter(ap(1,3),ap(1,2)):2;diff(ap(1,3),ap(1,2)):1;"
        "inter(ap(2,3),ap(1,2)):3;diff(ap(2,3),ap(1,2)):2;"
        "inter(compl(union(ap(1,3),ap(2,3))),ap(1,2)):1)",
        "piecewise(default=0;ap(1,3):1;ap(2,3):2)",
    ),
    "clause": (
        "piecewise(default=9;factorials(ap(1,3)):1;factorials(ap(2,3)):2)",
        "piecewise(default=0;factorials(ap(1,3)):1;factorials(ap(2,3)):2)",
    ),
    "rankfill": (
        "rankfill(diff(factorials(finite{1,2,3,4,7}),finite{1}))",
        "rankfill(factorials(finite{1,2,3,4,7}))",
    ),
    # Weak dominance is structural here: the same fill set, a fill gap.
    "rankfill_gap": (
        "rankfill(factorials(finite{1,2,3,4,7}),2)",
        "rankfill(factorials(finite{1,2,3,4,7}))",
    ),
    "factorial": (
        "piecewise(default=1;compl(factorials(nat)):2)",
        "piecewise(default=1;ap(1,2):0)",
    ),
    "window": (
        "piecewise(default=0;finite{1}:2;finite{3}:1)",
        "piecewise(default=0;finite{2}:1;finite{3}:1)",
    ),
}

COMMANDS = {
    "verify_seed0": ["verify", "--seed", "0"],
    **{f"compare_{pair}_{axiom}": ["compare", "--axiom", axiom, "--x", x, "--y", y]
       for pair, (x, y) in PAIRS.items() for axiom in AXIOMS},
    "density_factorials": ["density", "factorials(nat)"],
    "density_family": ["density", "fintervals[((2k-1)!,(2k)!)]"],
    "density_odd_off_factorials": ["density", "inter(ap(1,2),compl(factorials(nat)))"],
    "density_block_cap": ["density", "fintervals[(2k,2k+1)]"],
    "swf_cesaro_chain": ["swf", "--which", "cesaro", "--x", PAIRS["chain"][0]],
    "swf_cesaro_rankfill": ["swf", "--which", "cesaro", "--x", "rankfill(ap(1,2))"],
    "swf_discounted_rankfill": ["swf", "--which", "discounted", "--delta", "1/2",
                                "--x", "rankfill(ap(1,2))"],
    "swf_min_factorial": ["swf", "--which", "min", "--x", PAIRS["factorial"][1]],
    "swf_liminf_factorial": ["swf", "--which", "liminf", "--x", PAIRS["factorial"][0]],
    "lemma1_third": ["gadget", "lemma1", "--r", "1/3", "--horizon", "5040"],
    "lemma1_compare": ["gadget", "lemma1", "--r", "1/4", "--s", "2/5", "--horizon", "5040"],
    "lemma2_a": ["gadget", "lemma2", "--t", "1,2,3,4,5,6,7,8", "--case", "a",
                 "--horizon", "5040", "--dump-prefix", "12"],
    "lemma2_b": ["gadget", "lemma2", "--t", "1,2,3,4,5,6,7,8", "--case", "b",
                 "--horizon", "5040"],
}


def run(argv: list[str]) -> str:
    """The golden text of one command: exit code, stdout, and the error
    JSON on exit 2 (other stderr lines carry wall times)."""
    from densitylab.cli import main

    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return f"exit {code}\n" + out.getvalue() + (err.getvalue() if code == 2 else "")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    assert run(COMMANDS[name]) == (GOLDEN / f"{name}.txt").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name, argv in sorted(COMMANDS.items()):
        (GOLDEN / f"{name}.txt").write_text(run(argv))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    regenerate()
