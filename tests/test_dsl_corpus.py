"""DSL conformance: every text of a seeded corpus parses to the recorded
result, or fails with the recorded error and position.

Each entry of ``tests/dsl_corpus.json`` is ``[parser, text, outcome]``, the
outcome being ``["ok", format_*(result)]``, ``["DslError", message,
position]`` or ``[exception type, message]``.  The texts are mutations of
formatted random sets and streams, every printable ASCII character, arrows,
Unicode whitespace and digits, bracket nesting at the limit, the empty text
and trailing input.  After a deliberate change to the syntax, regenerate the
corpus and review its diff:

    PYTHONPATH=src python tests/test_dsl_corpus.py
"""

from __future__ import annotations

import json
import random
import string
import sys
from pathlib import Path

CORPUS = Path(__file__).parent / "dsl_corpus.json"
SEED = 2026

# Characters that mutations insert: the DSL's own, whitespace, and a few it rejects.
MUTATION_ALPHABET = string.digits + "abcdkz_{}()[],;:=+-*/!@> \t" + "A#.\u00a0\u0663"

# One valid text per parser, which the character probes are inserted into.
VALID = {
    "parse_set": "union(ap(1,2),finite{3})",
    "parse_stream": "piecewise(default=1/2;ap(2,3):-1)",
    "parse_permutation": "perm[3](1->2,2->1)",
    "parse_rational": "-3/4",
}

UNICODE_SPACES = ["\u00a0", "\u1680", "\u2003", "\u2028", "\u202f", "\u3000", "\x1c", "\x1f",
                  "\x85", "\u200b", "\ufeff", "\u180e"]
UNICODE_DIGITS = ["\u0663", "\u06f4", "\u096b", "\u09e7", "\u0e57", "\uff11", "\U0001d7d9",
                  "\u00b2", "\u00bd", "\u216b", "\u3007"]

ARROWS = [">", "->", " -> ", "-->", "->>", "->1", "1->", "nat->", "ap(1->2)", "ap(1,2)->",
          "const(1->2)", "perm[3](1->2->3)", "perm[3](1>2)", "perm[3](1- >2)",
          "perm[3](1-->2)", "perm[3](1->>2)", "perm[3](1->2,2>1)", "perm[3](1->2,2->1)>"]

TRAILING = ["", " ", "\t\n", "nat nat", "ap(1,2))", "nat 5", "nat,", "const(1) x", "-3/4/5",
            "3 4", "perm[3]() ,", "perm[3]()perm", "nat ->", "finite{1}}", "ap(1,2) #"]

# Constructor errors, alone and behind a lexical error.
SEMANTIC = ["ap(0,1)", "ap(1,0)", "interval(5,2)", "fintervals[(5,2)]", "fintervals[(12!!,500)]",
            "fintervals[(1/0,2)]", "piecewise(default=0;ap(1,2):1;ap(1,2):2)",
            "rankfill(nat)", "rankfill(compl(finite{1}))", "perm[2](1->3)", "perm[2](1->2)",
            "perm[3](1->2,1->3)", "const(1/0)", "1/0", "piecewise(default=0;ap(0,1):1)"]


def nesting_texts() -> list[tuple[str, str]]:
    texts = []
    for d in (255, 256, 257, 258):
        texts.append(("parse_set", "compl(" * d + "nat" + ")" * d))
        texts.append(("parse_set", "fintervals[(" + "(" * (d - 2) + "1" + ")" * (d - 2) + ",5)]"))
        texts.append(("parse_stream", "rankfill(" + "compl(" * (d - 1) + "nat" + ")" * d))
    for opening in ("(", "[", "{", "([{"):
        texts.append(("parse_set", opening * 300))
        texts.append(("parse_set", "nat" + opening * 300))
    texts += [("parse_set", t) for t in (
        ")" * 5 + "(" * 260, ")" * 5 + "(" * 262, "#" + "(" * 257, "(" * 257 + "#",
        "(" * 256 + "#" + "(", "nat nat" + "(" * 257, "compl(" * 257 + "#nat",
        "compl(" * 256 + "ap(0,1)" + ")" * 256, "compl(" * 257 + "ap(0,1)" + ")" * 257,
        "compl(" * 250 + "bogus" + "(" * 10, "([" * 130 + ">", ">" + "([" * 130,
        "compl(" * 256 + "A" + ")" * 257, "(" * 200 + ")" * 100 + "(" * 158,
    )]
    return texts


def mutations(rng: random.Random, text: str, k: int) -> list[str]:
    out = []
    for _ in range(k):
        i = rng.randrange(len(text) + 1)
        out.append(text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:])
        if text:
            i = rng.randrange(len(text))
            out.append(text[:i] + text[i + 1:])
        if len(text) > 1:
            i = rng.randrange(len(text) - 1)
            out.append(text[:i] + text[i + 1] + text[i] + text[i + 2:])
    return out


def corpus_texts() -> list[tuple[str, str]]:
    from densitylab.dsl import format_set, format_stream
    from densitylab.verification import random_chain_pair, random_decidable_set

    rng = random.Random(SEED)
    texts = []
    for _ in range(80):
        t = format_set(random_decidable_set(rng))
        texts += [("parse_set", m) for m in [t] + mutations(rng, t, 4)]
    for _ in range(40):
        for x in random_chain_pair(rng):
            t = format_stream(x)
            texts += [("parse_stream", m) for m in [t] + mutations(rng, t, 4)]
    probes = list(string.printable) + UNICODE_SPACES + UNICODE_DIGITS
    for c in probes:
        for parser, valid in VALID.items():
            texts.append((parser, c))
            for i in (0, len(valid) // 2, len(valid)):
                texts.append((parser, valid[:i] + c + valid[i:]))
    for c in UNICODE_SPACES + UNICODE_DIGITS:
        texts += [("parse_set", f"ap(1,{c}2)"), ("parse_set", f"ap({c},2)"),
                  ("parse_set", f"finite{{1,{c}}}"), ("parse_stream", f"const({c}/2)"),
                  ("parse_permutation", f"perm[{c}](1->2,2->1)")]
    for t in ARROWS + TRAILING + SEMANTIC + [s + "#" for s in SEMANTIC] + ["#" + s for s in SEMANTIC]:
        texts += [(parser, t) for parser in VALID]
    return texts + nesting_texts()


def outcome(parser: str, text: str) -> list:
    from densitylab import dsl

    fmt = {"parse_set": dsl.format_set, "parse_stream": dsl.format_stream,
           "parse_permutation": dsl.format_permutation, "parse_rational": str}[parser]
    try:
        result = getattr(dsl, parser)(text)
    except dsl.DslError as e:
        return ["DslError", str(e), e.position]
    except Exception as e:  # noqa: BLE001 - the corpus records every error the parsers raise
        return [type(e).__name__, str(e)]
    return ["ok", fmt(result)]


def load() -> list:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_is_the_generated_one():
    assert [(p, t) for p, t, _ in load()] == corpus_texts()


def test_every_text_parses_as_recorded():
    wrong = [(p, t, want, got) for p, t, want in load() if (got := outcome(p, t)) != want]
    assert not wrong, f"{len(wrong)} texts differ, first: {wrong[0]}"


def regenerate() -> None:
    entries = [[p, t, outcome(p, t)] for p, t in corpus_texts()]
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    regenerate()
