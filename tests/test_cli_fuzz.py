"""Formula fuzzing of the CLI contract: whatever the formula text, a
command exits 0, 1 or 2 and raises nothing.

The text is drawn from the tokenizer's alphabet (its symbols, unicode
aliases, identifiers and integers) plus characters it rejects, either as
a token soup, as a well-formed tree of atoms, or as a deep chain or
bracket nest around such a tree.  Runs are derandomized, so the suite
stays deterministic.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sheafsep.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"

SYMBOLS = ["|->!", "|->", "~>", "->", "/\\", "\\/", "*", "~", "(", ")", "{", "}", ":", ",", "/"]
ALIASES = ["⊤", "⊥", "∧", "∨", "→", "∗", "↦", "↪"]
WORDS = ["T", "F", "x", "y", "z", "X", "Y", "W", "0", "1", "2", "-1", "-0", "10", "007"]
GARBAGE = ["#", "?", "!", "-", "|", "²", "é", "٣", "\t", ""]
OPERATORS = ["->", "/\\", "\\/", "*", "→", "∧", "∨", "∗"]
ATOMS = [
    "T", "F", "x |-> 0", "y ~> 1", "x |->! 1", "z |-> 0", "x ↦ 1", "y ↪ 0",
    "X ~ {0: 1/2, 1: 1/2}", "Y ~ {1: 1}", "X ~ {0: 1/4, 1: 3/4}", "W ~ {0: 1}",
]

soup = st.lists(st.sampled_from(SYMBOLS + ALIASES + WORDS + GARBAGE), max_size=16).map(" ".join)
trees = st.recursive(
    st.sampled_from(ATOMS),
    lambda sub: st.tuples(sub, st.sampled_from(OPERATORS), sub).map(
        lambda t: f"({t[0]}) {t[1]} ({t[2]})"
    ),
    max_leaves=5,
)


@st.composite
def deep(draw):
    tree = draw(trees)
    n = draw(st.integers(0, 300))
    if draw(st.booleans()):
        return "(" * n + tree + ")" * n
    return f" {draw(st.sampled_from(OPERATORS))} ".join([tree] * (n + 1))


formulas = st.one_of(soup, trees, deep())


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv + ["--json"])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(formulas)
def test_formula_text_never_escapes_the_exit_contract(text):
    memory, psl = str(MODELS / "memory.json"), str(MODELS / "psl.json")
    formula = f"--formula={text}"
    assert run(["eval", "--model", memory, formula]) in (0, 1, 2)
    assert run(["sat", "--model", memory, formula, "--heap", "{x:0, y:1}"]) in (0, 1, 2)
    assert run(["psl", "--model", psl, formula, "--space", "unif4"]) in (0, 1, 2)
