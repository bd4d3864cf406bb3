"""Fuzzing of the CLI contract: whatever the formula text or the model
file, a command exits 0, 1 or 2 and raises nothing.

The text is drawn from the tokenizer's alphabet (its symbols, unicode
aliases, identifiers and integers) plus characters it rejects, either as
a token soup, as a well-formed tree of atoms, or as a deep chain or
bracket nest around such a tree.  A model file is one of the shipped
models with one field, at any depth, replaced by a JSON value of another
type.  Runs are derandomized, so the suite stays deterministic.
"""

import contextlib
import io
import json
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


def json_type(value):
    """The JSON type of a decoded value; bool is not int here."""
    for kind, types in (("bool", bool), ("int", int), ("string", str), ("list", list),
                        ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null"


def fields(doc, path=()):
    """The path of every field of a JSON document: object keys and list
    positions, at every depth."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from fields(value, path + (key,))


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda sub: st.one_of(st.lists(sub, max_size=3),
                          st.dictionaries(st.text(max_size=3), sub, max_size=3)),
    max_leaves=6,
)
MODEL_RUNS = {
    "memory.json": [["check-sheaf"], ["eval", "--formula", "x |->! 0 * y |->! 1"]],
    "psl.json": [["psl", "--space", "unif4", "--formula", "X ~ {0: 1/2, 1: 1/2}"]],
}


@st.composite
def mutated_models(draw):
    name = draw(st.sampled_from(sorted(MODEL_RUNS)))
    doc = json.loads((MODELS / name).read_text())
    *parents, key = draw(st.sampled_from(list(fields(doc))))
    target = doc
    for step in parents:
        target = target[step]
    kind = json_type(target[key])
    target[key] = draw(json_values.filter(lambda v: json_type(v) != kind))
    return name, doc


@settings(max_examples=100, derandomize=True, deadline=None)
@given(mutated_models())
def test_model_fields_never_escape_the_exit_contract(tmp_path_factory, case):
    name, doc = case
    path = tmp_path_factory.mktemp("model") / name
    path.write_text(json.dumps(doc))
    for argv in MODEL_RUNS[name]:
        assert run([argv[0], "--model", str(path)] + argv[1:]) in (0, 1, 2)
