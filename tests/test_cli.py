import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sheafsep import cli, day, presheaf, psl, seplogic
from sheafsep.cli import build_arg_parser, load_model, main, parse_heap, parse_stage, run_command
from sheafsep.errors import ModelSchemaError
from sheafsep.fincat import FinCat
from sheafsep.presheaf import Heap
from sheafsep.psl import PslModel
from sheafsep.seplogic import ResourceModel


MODELS = Path(__file__).resolve().parent.parent / "models"


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MEMORY_DOC = {
    "schema_version": 1,
    "kind": "memory",
    "locations": ["x", "y"],
    "values": [0, 1],
    "sheaf": "partial-memory",
    "coverage": "downward-closed",
    "monoid": "weak-partial",
    "formulas": {"both": "x |->! 0 * y |->! 1"},
}

PSL_DOC = {
    "schema_version": 1,
    "kind": "psl",
    "spaces": {
        "unif4": {
            "size": 4,
            "blocks": [[1], [2], [3], [4]],
            "measure": ["1/4", "1/4", "1/4", "1/4"],
        },
        "corr": {
            "size": 4,
            "blocks": [[1], [2], [3], [4]],
            "measure": ["1/2", "0", "0", "1/2"],
        },
    },
    "variables": {"X": [0, 0, 1, 1], "Y": [0, 1, 0, 1]},
    "formulas": {"indep": "(X ~ {0: 1/2, 1: 1/2}) * (Y ~ {0: 1/2, 1: 1/2})"},
}


def test_load_memory_model(tmp_path):
    model = load_model(write_model(tmp_path, MEMORY_DOC))
    assert isinstance(model, ResourceModel)
    assert model.locations == ("x", "y")
    assert "both" in model.formulas


def test_load_model_bound_exceeded(tmp_path):
    doc = dict(MEMORY_DOC, locations=["a", "b", "c", "d", "e", "f"])
    with pytest.raises(ModelSchemaError) as exc:
        load_model(write_model(tmp_path, doc))
    assert exc.value.path == "locations"


def test_oversized_memory_model_refused_up_front(tmp_path, capsys):
    """40 values at 4 locations give 41^4 partial heaps at the top stage;
    the model is refused at load, before any site or sheaf is built."""
    doc = dict(MEMORY_DOC, locations=["w", "x", "y", "z"], values=list(range(40)))
    path = write_model(tmp_path, doc)
    start = time.perf_counter()
    assert main(["check-sheaf", "--model", path, "--json"]) == 2
    assert time.perf_counter() - start < 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "ModelSchemaError"
    assert "40 values at 4 locations give 2825761 heaps" in error["detail"]
    with pytest.raises(ModelSchemaError) as exc:
        load_model(path)
    assert exc.value.path == "values"


def test_ten_values_at_four_locations_still_load(tmp_path):
    """11^4 heaps is the bound itself, so ten values still load."""
    doc = dict(MEMORY_DOC, locations=["w", "x", "y", "z"], values=list(range(10)))
    model = load_model(write_model(tmp_path, doc))
    assert model.values == tuple(range(10))


@pytest.mark.parametrize("locations, values, monoid, table", [
    (["x"], 14640, "weak-partial", "the digit rule on 14641 cells"),
    (["x", "y"], 120, "total", "the meet of an overlap's half of 2 locations on 121 cells"),
])
def test_oversized_cell_rule_table_refused_up_front(locations, values, monoid, table, tmp_path,
                                                    capsys):
    """Models inside the load bound whose cell-rule tables would hold
    121^4 = 14641^2 entries (the digit rule at one location, the meet of
    an overlap's two-location half under the total rule at two) exit 2
    on a star, naming the table and the count, before the table is
    built, with nothing on stderr."""
    doc = dict(MEMORY_DOC, locations=locations, values=list(range(values)), monoid=monoid,
               formulas={})
    path = write_model(tmp_path, doc)
    start = time.perf_counter()
    assert main(["eval", "--model", path, "--formula", "x |-> 0 * T", "--json"]) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "error": "BudgetExceededError",
        "detail": f"{table} has 214358881 entries, past the bound {day.CELL_TABLE_BOUND}"}
    assert err == ""


def test_load_model_monoid_needs_partial_memory(tmp_path):
    doc = dict(MEMORY_DOC, sheaf="strict-memory")
    with pytest.raises(ModelSchemaError) as exc:
        load_model(write_model(tmp_path, doc))
    assert exc.value.path == "monoid"


def test_load_model_schema_version(tmp_path):
    doc = dict(MEMORY_DOC, schema_version=99)
    with pytest.raises(ModelSchemaError) as exc:
        load_model(write_model(tmp_path, doc))
    assert exc.value.path == "schema_version"


def test_load_model_bad_formula(tmp_path):
    doc = dict(MEMORY_DOC, formulas={"broken": "x |->"})
    with pytest.raises(ModelSchemaError) as exc:
        load_model(write_model(tmp_path, doc))
    assert "formulas.broken" == exc.value.path


def test_load_psl_model(tmp_path):
    model = load_model(write_model(tmp_path, PSL_DOC))
    assert isinstance(model, PslModel)
    assert set(model.spaces) == {"unif4", "corr"}


def test_parse_stage_and_heap(tmp_path):
    model = load_model(write_model(tmp_path, MEMORY_DOC))
    assert parse_stage("{x,y}", model) == 0b11
    assert parse_stage("{y}", model) == 0b10
    assert parse_stage("{}", model) == 0
    heap = parse_heap("{x:0, y:null}", ("x", "y"))
    assert heap == Heap.of(("x", "y"), {"x": 0, "y": None})
    assert parse_heap('{"x": 1}', ("x",)) == Heap.of(("x",), {"x": 1})
    with pytest.raises(ModelSchemaError):
        parse_heap("{x:0}", ("x", "y"))


def test_repeated_stage_location_is_a_schema_error(tmp_path, capsys):
    model_path = write_model(tmp_path, MEMORY_DOC)
    with pytest.raises(ModelSchemaError, match="'x' listed twice"):
        parse_stage("{x,x}", load_model(model_path))
    argv = ["eval", "--model", model_path, "--formula", "x |-> 0", "--stage", "{x, y, x}"]
    assert main(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ModelSchemaError", "detail": "--stage: location 'x' listed twice"}


def test_repeated_model_location_is_a_schema_error(tmp_path, capsys):
    """A location listed twice is refused at load, as on --stage."""
    model_path = write_model(tmp_path, dict(MEMORY_DOC, locations=["x", "y", "x"]))
    with pytest.raises(ModelSchemaError) as exc:
        load_model(model_path)
    assert exc.value.path == "locations"
    assert main(["eval", "--model", model_path, "--formula", "x |-> 0", "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ModelSchemaError", "detail": "locations: location 'x' listed twice"}


@pytest.mark.parametrize("heap", ["{x:0,x:1,y:0}", '{"x":0,"x":1,"y":0}'])
def test_repeated_heap_location_is_a_schema_error(tmp_path, capsys, heap):
    """A location listed twice in --heap is refused, in both literal
    forms, rather than the last cell silently winning."""
    argv = ["sat", "--model", str(MODELS / "memory.json"), "--formula", "T", "--heap", heap]
    assert main(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ModelSchemaError", "detail": "--heap: location 'x' listed twice"}


def test_a_heap_outside_the_carrier_is_named_in_literal_syntax(tmp_path, capsys):
    """`sat` on a heap outside the model's carrier (support bound -1
    admits none) names the heap and the stage in the `--heap` and
    `--stage` literal syntax, not as Python reprs."""
    doc = dict(MEMORY_DOC, sheaf="support-bounded", support_bound=-1, monoid=None, formulas={})
    argv = ["sat", "--model", write_model(tmp_path, doc), "--formula", "T",
            "--heap", "{y:0, x:null}"]
    assert main(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "StageMismatchError",
        "detail": "{x:null, y:0} is not a resource at stage {x,y}"}


def test_laws_on_a_carrier_without_heaps(tmp_path, capsys):
    """`laws` samples predicates on a carrier with no heap at any stage
    (support bound -1): an empty family, so every law holds and nothing
    reaches stderr."""
    doc = dict(MEMORY_DOC, sheaf="support-bounded", support_bound=-1, monoid=None, formulas={})
    argv = ["laws", "--model", write_model(tmp_path, doc), "--samples", "1", "--json"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["status"] == {
        "residuation": "ok (1 samples)", "monoid-laws": "skipped (no monoid)",
        "day-stability": "ok", "adjunction": "skipped (no monoid)", "amalgamation-iso": "ok"}
    assert err == ""


def _malformed_psl_blocks(blocks, size=4):
    """PSL_DOC with unif4's blocks replaced, one measure per block."""
    unif4 = dict(size=size, blocks=blocks, measure=[f"1/{len(blocks)}"] * len(blocks))
    return dict(PSL_DOC, spaces=dict(PSL_DOC["spaces"], unif4=unif4))


MALFORMED_FIELDS = {
    "memory-formulas-list": (dict(MEMORY_DOC, formulas=["x |-> 0"]), "formulas"),
    "psl-formulas-string": (dict(PSL_DOC, formulas="X ~ {0: 1}"), "formulas"),
    "psl-variables-list": (dict(PSL_DOC, variables=[[0, 0, 1, 1]]), "variables"),
    "blocks-of-ints": (_malformed_psl_blocks([1, 2]), "spaces.unif4.blocks"),
    "blocks-of-strings": (_malformed_psl_blocks([["a"], [2]]), "spaces.unif4.blocks"),
    "empty-block": (_malformed_psl_blocks([[], [1, 2, 3, 4]]), "spaces.unif4.blocks"),
    "boolean-schema-version": (dict(MEMORY_DOC, schema_version=True), "schema_version"),
    # refused by the length of the blocks' union, before any range of that size is built
    "huge-size": (_malformed_psl_blocks([[1], [2]], size=10**12), "spaces.unif4"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_malformed_model_field_exits_two(tmp_path, capsys, case):
    """A field of the wrong shape is a ModelSchemaError naming it."""
    doc, field = MALFORMED_FIELDS[case]
    model_path = write_model(tmp_path, doc)
    with pytest.raises(ModelSchemaError) as exc:
        load_model(model_path)
    assert exc.value.path == field
    assert main(["check-site", "--model", model_path, "--json"]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "ModelSchemaError"
    assert error["detail"].startswith(f"{field}: ")


def test_bad_heap_literals_exit_two(tmp_path, capsys):
    model_path = write_model(tmp_path, MEMORY_DOC)
    for bad in ("{x:abc, y:0}", '{"x": true, "y": 0}', "5"):
        with pytest.raises(ModelSchemaError):
            parse_heap(bad, ("x", "y"))
        assert main(["sat", "--model", model_path, "--name", "both", "--heap", bad]) == 2


def test_sat_without_a_heap_is_a_schema_error(capsys):
    """`sat` needs --heap as `psl` needs --space: a missing one exits 2
    and names the option, where exit 1 would read "checked and failed"."""
    argv = ["sat", "--model", str(MODELS / "memory.json"), "--formula", "T", "--json"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ModelSchemaError", "detail": "--heap: a heap literal is required"}


@pytest.mark.parametrize("given,error", [
    (["eval", "memory.json", "--formula", "T", "--stage", ""],
     {"error": "ModelSchemaError", "detail": "--stage: expected a brace literal, got ''"}),
    (["eval", "memory.json", "--formula", ""],
     {"error": "FormulaSyntaxError", "detail": "unexpected token 'end of input' (at position 0)"}),
    (["eval", "memory.json", "--name", ""],
     {"error": "ModelSchemaError", "detail": "--name: model has no formula named ''"}),
    (["psl", "psl.json", "--formula", "T", "--space", ""],
     {"error": "UnknownIdentifierError", "detail": "unknown space ''"}),
], ids=["stage", "formula", "name", "space"])
def test_an_empty_option_is_given_not_absent(given, error, capsys):
    """An empty --stage, --formula, --name or --space is parsed, and
    refused, as given: it neither falls back to the model's stage nor
    to the other formula option, nor reads as a missing space."""
    command, model, *options = given
    argv = [command, "--model", str(MODELS / model), *options, "--json"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out) == error


def test_boolean_values_are_not_integers(tmp_path, capsys):
    model_path = write_model(tmp_path, dict(MEMORY_DOC, values=[True, 0]))
    with pytest.raises(ModelSchemaError) as exc:
        load_model(model_path)
    assert exc.value.path == "values"
    assert main(["check-sheaf", "--model", model_path]) == 2


def run_cli(argv):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    return run_command(args.command, args)


def test_sat_weak_exit_zero_with_witness(tmp_path):
    model_path = write_model(tmp_path, MEMORY_DOC)
    report = run_cli(
        [
            "sat",
            "--model",
            model_path,
            "--formula",
            "x |->! 0 * x |->! 0",
            "--heap",
            "{x:0}",
            "--stage",
            "{x}",
        ]
    )
    assert report.exit_code == 0
    assert report.witnesses[0]["left_stage"] == ["x"]


def test_sat_strong_exit_one(tmp_path):
    doc = dict(MEMORY_DOC, monoid="strong-partial")
    report = run_cli(
        [
            "sat",
            "--model",
            write_model(tmp_path, doc),
            "--formula",
            "x |->! 0 * x |->! 0",
            "--heap",
            "{x:0}",
            "--stage",
            "{x}",
        ]
    )
    assert report.exit_code == 1


def test_check_site_and_sheaf(tmp_path):
    model_path = write_model(tmp_path, MEMORY_DOC)
    assert run_cli(["check-site", "--model", model_path]).exit_code == 0
    assert run_cli(["check-sheaf", "--model", model_path]).exit_code == 0


def test_check_sheaf_fails_for_support_bounded(tmp_path):
    doc = dict(MEMORY_DOC, sheaf="support-bounded", support_bound=1, monoid=None)
    report = run_cli(["check-sheaf", "--model", write_model(tmp_path, doc)])
    assert report.exit_code == 1
    assert any(w["kind"] == "existence" for w in report.witnesses)


def test_eval_named_formula(tmp_path):
    model_path = write_model(tmp_path, MEMORY_DOC)
    report = run_cli(["eval", "--model", model_path, "--name", "both"])
    assert report.exit_code == 0
    rows = {tuple(r["at"]): r["members"] for r in report.status["family"]}
    assert {"x": 0, "y": 1} in rows[("x", "y")]


def test_laws_small_model(tmp_path):
    doc = dict(MEMORY_DOC, locations=["x"], formulas={})
    report = run_cli(
        ["laws", "--model", write_model(tmp_path, doc), "--samples", "10", "--seed", "7"]
    )
    assert report.exit_code == 0, report.status


@pytest.mark.parametrize("bound", [0, 1])
def test_laws_on_a_support_bounded_model(tmp_path, capsys, bound):
    """The Day-stability inclusion M >-> F holds only the strict heaps the
    support-bounded F contains.  Bound 0 is a sheaf and every law holds;
    bound 1 is not, and the amalgamation iso fails with the sheaf check's
    witnesses rather than erroring out."""
    doc = dict(MEMORY_DOC, values=[0], sheaf="support-bounded", support_bound=bound,
               monoid=None, formulas={})
    model_path = write_model(tmp_path, doc)
    assert main(["laws", "--model", model_path, "--samples", "10", "--seed", "7", "--json"]) == bound
    report = json.loads(capsys.readouterr().out)
    assert report["status"]["amalgamation-iso"] == report["status"]["day-stability"] == (
        "FAIL" if bound else "ok")
    iso = [w["detail"] for w in report["witnesses"] if w["law"] == "amalgamation-iso"]
    sheaf = run_cli(["check-sheaf", "--model", model_path])
    assert iso == [w["detail"] for w in sheaf.witnesses]


def test_laws_at_three_locations_within_its_wall_budget(tmp_path, capsys):
    """The 3-location, 2-value laws run: pinned bytes inside 30 s."""
    doc = dict(MEMORY_DOC, locations=["x", "y", "z"], formulas={})
    model_path = write_model(tmp_path, doc)
    started = time.perf_counter()
    code = main(["laws", "--model", model_path, "--samples", "10", "--seed", "7", "--json"])
    elapsed = time.perf_counter() - started
    assert code == 0
    assert capsys.readouterr().out == (
        '{"command": "laws", "model": ' + json.dumps(model_path) + ', "status": '
        '{"residuation": "ok (10 samples)", "monoid-laws": "ok", "day-stability": "ok", '
        '"adjunction": "ok", "amalgamation-iso": "ok"}, "witnesses": [], "exit_code": 0}\n'
    )
    assert elapsed < 30, f"laws at 3 locations took {elapsed:.1f} s"


def test_laws_at_three_locations_builds_no_decomposition_elements(tmp_path, capsys, built):
    """Deterministic work gate: the Day convolutions, the matching
    presheaf and the pipeline maps of a 3-location laws run stay on ids."""
    doc = dict(MEMORY_DOC, locations=["x", "y", "z"], formulas={})
    model_path = write_model(tmp_path, doc)
    assert main(["laws", "--model", model_path, "--samples", "10", "--seed", "7"]) == 0
    assert built["Decomp"] == built["CoendClass"] == built["MatchClass"] == 0


def test_pipeline_sat_certifies_its_carrier_on_least_covers(tmp_path, capsys, monkeypatch, built):
    """Deterministic work gate: at 3 locations the pipeline star needs
    only the verdict that its carrier is a sheaf, so it builds no
    amalgamation iso, encodes one cover per object of more than one
    location, its least cover (a maximal sieve is counted in closed
    form), and runs no all-cover sheaf check."""
    calls = []
    original = presheaf.check_sheaf
    monkeypatch.setattr(presheaf, "check_sheaf",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    model_path = write_model(tmp_path, dict(MEMORY_DOC, locations=["x", "y", "z"]))
    argv = ["sat", "--model", model_path, "--formula=x |-> 0 * y |-> 1", "--mode", "pipeline",
            "--heap", "{x:0, y:1, z:null}", "--json"]
    assert main(argv) == 0
    assert built["AmalgamationIso"] == 0
    assert built["_EncodedCover"] == 4
    assert calls == []


def test_check_sheaf_decodes_only_what_its_notes_print(tmp_path, capsys, built):
    """Deterministic work gate: on a 3-location support-bounded model an
    existence note decodes the family's first three values and a
    uniqueness note its first two amalgamations, nothing more."""
    doc = dict(MEMORY_DOC, locations=["x", "y", "z"], sheaf="support-bounded",
               support_bound=1, monoid=None, formulas={})
    model_path = write_model(tmp_path, doc)
    assert main(["check-sheaf", "--model", model_path, "--json"]) == 1
    kinds = [w["kind"] for w in json.loads(capsys.readouterr().out)["witnesses"]]
    assert kinds and set(kinds) <= {"existence", "uniqueness"}
    assert built["Heap"] <= 3 * kinds.count("existence") + 2 * kinds.count("uniqueness")


def test_laws_rejects_an_empty_sample_count(tmp_path, capsys):
    doc = dict(MEMORY_DOC, locations=["x"], formulas={})
    model_path = write_model(tmp_path, doc)
    for samples in ("-3", "0"):
        assert main(["laws", "--model", model_path, "--samples", samples, "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ModelSchemaError"


def test_laws_refuses_a_sample_count_past_its_bound(tmp_path, capsys, monkeypatch):
    """A `--samples` count above `cli.LAWS_SAMPLES_BOUND` is refused before
    any sampling, with exit 2, the JSON error and nothing on stderr."""
    drawn = []
    monkeypatch.setattr(cli, "random_closed_predicate", lambda *args: drawn.append(args))
    model_path = write_model(tmp_path, dict(MEMORY_DOC, formulas={}))
    for samples in (cli.LAWS_SAMPLES_BOUND + 1, 100_000_000):
        argv = ["laws", "--model", model_path, "--samples", str(samples), "--json"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert json.loads(out) == {
            "error": "ModelSchemaError",
            "detail": f"--samples: bound exceeded: {samples} > {cli.LAWS_SAMPLES_BOUND}"}
        assert err == ""
    assert drawn == []


@pytest.mark.parametrize("argv, detail", [
    (["eval", "--formula", "x |-> 0"], "command 'eval' needs a memory model, got a psl model"),
    (["psl", "--name", "indep", "--space", "unif4"],
     "command 'psl' needs a psl model, got a memory model"),
])
def test_a_command_on_the_wrong_model_kind_names_both_kinds(argv, detail, tmp_path, capsys):
    """A command on a model file of the other kind is refused naming the
    model file kinds (`kind` in the file), not the library's classes."""
    doc = PSL_DOC if argv[0] == "eval" else MEMORY_DOC
    argv = argv[:1] + ["--model", write_model(tmp_path, doc)] + argv[1:]
    assert main(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "ModelSchemaError", "detail": f"kind: {detail}"}
    assert err == ""


def test_check_site_at_four_locations(tmp_path):
    doc = dict(MEMORY_DOC, locations=["w", "x", "y", "z"], formulas={})
    assert run_cli(["check-site", "--model", write_model(tmp_path, doc)]).exit_code == 0


def test_psl_command(tmp_path):
    model_path = write_model(tmp_path, PSL_DOC)
    good = run_cli(["psl", "--model", model_path, "--name", "indep", "--space", "unif4"])
    assert good.exit_code == 0
    assert good.witnesses[0]["q1"] == [1, 1, 2, 2]
    bad = run_cli(["psl", "--model", model_path, "--name", "indep", "--space", "corr"])
    assert bad.exit_code == 1


def test_main_json_deterministic(tmp_path, capsys):
    model_path = write_model(tmp_path, MEMORY_DOC)
    argv = [
        "sat",
        "--model",
        model_path,
        "--formula",
        "x |->! 0 * y |->! 1",
        "--heap",
        "{x:0, y:1}",
        "--stage",
        "{x,y}",
        "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["status"]["result"] is True
    assert doc["witnesses"][0]["left_stage"] == ["x"]


def test_main_usage_error_exit_two(tmp_path, capsys):
    model_path = write_model(tmp_path, MEMORY_DOC)
    assert main(["sat", "--model", model_path, "--heap", "{x:0}", "--stage", "{x}"]) == 2
    assert main(["eval", "--model", model_path, "--formula", "z |-> 9"]) == 2


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """main reuses one parser: an option given to one call must not leak
    into the next, and usage errors still exit 2."""
    model_path = write_model(tmp_path, MEMORY_DOC)
    modes = []

    def spy(command, args):
        modes.append(args.mode)
        return run_command(command, args)

    monkeypatch.setattr(cli, "run_command", spy)
    argv = ["sat", "--model", model_path, "--name", "both", "--heap", "{x:0, y:1}"]
    assert main(argv + ["--mode", "pipeline"]) == 0
    assert main(argv) == 0
    assert modes == ["pipeline", "unfolded"]
    for usage in (argv + ["--mode", "eager"], ["sat"], ["no-such-command"]):
        with pytest.raises(SystemExit) as exc:
            main(usage)
        assert exc.value.code == 2
    assert main(argv) == 0
    assert modes[-1] == "unfolded"
    assert cli._arg_parser() is cli._arg_parser()


@pytest.mark.parametrize(
    "formula",
    [
        "T \\/ (Z ~ {0: 1})",
        "F /\\ (Z ~ {0: 1})",
        "F -> (Z ~ {0: 1})",
        "F * (Z ~ {0: 1})",
    ],
)
def test_psl_unknown_variable_in_skipped_branch_exits_two(tmp_path, capsys, formula):
    """Connectives short-circuit, but every variable is resolved first."""
    argv = ["psl", "--model", write_model(tmp_path, PSL_DOC), "--space", "unif4"]
    assert main(argv + ["--formula", formula, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "UnknownIdentifierError"


def test_psl_variable_of_another_size_names_both_sizes(tmp_path, capsys):
    """A declared variable whose values do not match the space's size is
    unknown on that space, and the detail says why."""
    two = {"size": 2, "blocks": [[1], [2]], "measure": ["1/2", "1/2"]}
    doc = dict(PSL_DOC, spaces=dict(PSL_DOC["spaces"], two=two))
    argv = ["psl", "--model", write_model(tmp_path, doc), "--space", "two"]
    assert main(argv + ["--formula", "X ~ {0: 1/2, 1: 1/2}", "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "UnknownIdentifierError",
        "detail": "unknown variable 'X' on space 'two': it has 4 values and the space 2 points"}


DEEP = 3000
MALFORMED_FORMULAS = {
    "deep-brackets": ("eval", "(" * DEEP + "T" + ")" * DEEP),
    "long-implication": ("eval", " -> ".join(["T"] * DEEP)),
    "long-conjunction": ("eval", " /\\ ".join(["x |-> 0"] * DEEP)),
    "long-conjunction-psl": ("psl", " /\\ ".join(["X ~ {0: 1/2, 1: 1/2}"] * DEEP)),
    "zero-denominator": ("psl", "X ~ {0: 1/0}"),
    "negative-mass": ("psl", "X ~ {0: -1/2, 1: 3/2}"),
    "repeated-value": ("psl", "X ~ {0: 1/4, 0: 3/4}"),
    "superscript-digit": ("eval", "x |-> \u00b2"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_FORMULAS))
def test_malformed_formula_exits_two(tmp_path, capsys, shape):
    command, formula = MALFORMED_FORMULAS[shape]
    doc, extra = (PSL_DOC, ["--space", "unif4"]) if command == "psl" else (MEMORY_DOC, [])
    argv = [command, "--model", write_model(tmp_path, doc), f"--formula={formula}", "--json"]
    assert main(argv + extra) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "FormulaSyntaxError"


def test_malformed_model_formula_is_a_schema_error(tmp_path, capsys):
    doc = dict(MEMORY_DOC, formulas={"deep": " -> ".join(["T"] * DEEP)})
    argv = ["eval", "--model", write_model(tmp_path, doc), "--name", "deep", "--json"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ModelSchemaError"


def test_main_unknown_model_file(capsys):
    assert main(["check-site", "--model", "/nonexistent.json"]) == 2


def test_json_reports_byte_identical_across_processes(tmp_path):
    """Fixed iteration orders and witness tie-breaks make reports
    byte-identical even under different interpreter hash seeds."""
    import os
    import subprocess
    import sys

    model_path = write_model(tmp_path, MEMORY_DOC)
    argv = [
        sys.executable,
        "-m",
        "sheafsep",
        "eval",
        "--model",
        model_path,
        "--name",
        "both",
        "--json",
    ]
    import sheafsep

    # the child does not see pytest's pythonpath, so hand it the package's src
    src = os.path.dirname(os.path.dirname(os.path.abspath(sheafsep.__file__)))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = set()
    for seed in ("0", "1", "314159"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        proc = subprocess.run(argv, capture_output=True, env=env, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_laws_builds_the_amalgamation_iso_once(capsys, built):
    """The amalgamation-iso status reads the pipeline's iso, which the
    adjunction checks built already."""
    model_path = str(MODELS / "memory.json")
    argv = ["laws", "--model", model_path, "--samples", "10", "--seed", "7", "--json"]
    assert main(argv) == 0
    assert built["AmalgamationIso"] == 1
    assert capsys.readouterr().out == (
        '{"command": "laws", "model": ' + json.dumps(model_path) + ', "status": '
        '{"residuation": "ok (10 samples)", "monoid-laws": "ok", "day-stability": "ok", '
        '"adjunction": "ok", "amalgamation-iso": "ok"}, "witnesses": [], "exit_code": 0}\n'
    )


@pytest.fixture
def fincat_kinds(monkeypatch):
    """The kind of every FinCat constructed while the test runs."""
    kinds = []

    def counted(self, kind, *args, _init=FinCat.__init__):
        kinds.append(kind)
        _init(self, kind, *args)

    monkeypatch.setattr(FinCat, "__init__", counted)
    return kinds


@pytest.mark.parametrize("mode", ["unfolded", "pipeline"])
def test_predicates_at_four_locations_build_no_slice_category(tmp_path, capsys, fincat_kinds,
                                                              mode):
    """Joins, implications and stars read slice morphisms and covers off
    the base site: no slice category is built."""
    kinds = fincat_kinds
    doc = dict(MEMORY_DOC, locations=["w", "x", "y", "z"])
    model_path = write_model(tmp_path, doc)
    formula = "(x ~> 0 -> y |-> 1) \\/ (x |->! 0 * (z ~> 1 \\/ w |-> 0))"
    argv = ["--model", model_path, f"--formula={formula}", "--mode", mode, "--json"]
    assert main(["eval"] + argv) == 0
    code = main(["sat"] + argv + ["--heap", "{w:0, x:0, y:1, z:null}"])
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["exit_code"] == code != 2
    assert "powerset" in kinds
    assert not [k for k in kinds if isinstance(k, tuple) and k[0] == "slice"]


@pytest.mark.parametrize("command", ["laws", "check-site"])
def test_laws_and_check_site_build_no_slice_category(tmp_path, capsys, fincat_kinds, command):
    """Day stability reads its gamma witness off the tensor on base
    morphisms, and the site checks read the base: neither command builds
    a slice category."""
    model_path = write_model(tmp_path, dict(MEMORY_DOC, formulas={}))
    assert main([command, "--model", model_path, "--json"]) == 0
    assert "powerset" in fincat_kinds
    assert not [k for k in fincat_kinds if isinstance(k, tuple) and k[0] == "slice"]


def test_laws_builds_each_decomposition_presheaf_once(capsys, monkeypatch):
    """Deterministic work gate: Day stability checks the decomposition
    presheaf its coend quotients, so `laws` builds one per sample pair (4)
    and one for the pipeline."""
    calls = []
    for module in (day, seplogic):
        monkeypatch.setattr(module, "day_decomp", lambda *args, _f=module.day_decomp:
                            calls.append(args) or _f(*args))
    argv = ["laws", "--model", str(MODELS / "memory.json"), "--samples", "10", "--seed", "7"]
    assert main(argv) == 0
    assert len(calls) == 5


def test_laws_witnesses_print_decompositions_as_heaps(tmp_path, capsys):
    """On the 2-location, one-value, bound-1 support-bounded model the
    convolutions are not sheaves, and each witness prints a decomposition
    as its two halves' heaps, such as `<x:_>*<x:0>`."""
    doc = dict(MEMORY_DOC, values=[0], sheaf="support-bounded", support_bound=1,
               monoid=None, formulas={})
    argv = ["laws", "--model", write_model(tmp_path, doc), "--samples", "10", "--seed", "7",
            "--json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == {"residuation": "ok (10 samples)",
                                "monoid-laws": "skipped (no monoid)", "day-stability": "FAIL",
                                "adjunction": "skipped (no monoid)", "amalgamation-iso": "FAIL"}
    details = [w["detail"] for w in report["witnesses"]]
    assert len(details) == 26 and max(map(len, details)) < 200
    assert "family starts ('<>*<>', '<x:_>*<x:0>', '<y:_>*<y:0>')" in details[-2]


def test_laws_lists_a_bounded_number_of_witnesses_per_law(tmp_path, capsys):
    """On the 3-location, two-value, bound-1 support-bounded model the
    convolutions fail on 12,600 families and the amalgamation iso on 68:
    each law lists its first LAWS_WITNESSES_PER_LAW witnesses, in order,
    and one more that counts the rest, with the statuses unchanged."""
    k = cli.LAWS_WITNESSES_PER_LAW
    assert k >= 32
    doc = dict(MEMORY_DOC, locations=["x", "y", "z"], sheaf="support-bounded",
               support_bound=1, monoid=None, formulas={})
    argv = ["laws", "--model", write_model(tmp_path, doc), "--samples", "10", "--seed", "7",
            "--json"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert len(out) < 16_000  # 2.25 MB with every witness listed
    report = json.loads(out)
    assert report["status"]["day-stability"] == report["status"]["amalgamation-iso"] == "FAIL"
    by_law = {}
    for w in report["witnesses"]:
        by_law.setdefault(w["law"], []).append(w["detail"])
    assert [w["law"] for w in report["witnesses"]] == [
        law for law in by_law for _ in by_law[law]]  # each law's witnesses contiguous
    assert {law: len(details) for law, details in by_law.items()} == {
        "day-stability": k + 1, "amalgamation-iso": k + 1}
    assert by_law["day-stability"][-1] == f"{12600 - k} more violations not listed"
    assert by_law["amalgamation-iso"][-1] == f"{68 - k} more violations not listed"
    sheaf = run_cli(["check-sheaf", "--model", argv[2]])
    assert by_law["amalgamation-iso"][:k] == [w["detail"] for w in sheaf.witnesses][:k]


BIG = "1" * 5000  # past the interpreter's 4,300-digit limit on int()
HUGE_LITERALS = {
    "points-to-value": ("eval", f"x |-> {BIG}"),
    "distribution-value": ("psl", f"X ~ {{{BIG}: 1}}"),
    "numerator": ("psl", f"X ~ {{0: {BIG}/{BIG}}}"),
    "denominator": ("psl", f"X ~ {{0: 1/{BIG}}}"),
}


@pytest.mark.parametrize("shape", sorted(HUGE_LITERALS))
def test_integer_literal_past_the_digit_limit_is_a_syntax_error(tmp_path, capsys, shape):
    command, formula = HUGE_LITERALS[shape]
    doc, extra = (PSL_DOC, ["--space", "unif4"]) if command == "psl" else (MEMORY_DOC, [])
    argv = [command, "--model", write_model(tmp_path, doc), f"--formula={formula}", "--json"]
    assert main(argv + extra) == 2
    error = json.loads(capsys.readouterr().out)
    assert error == {"error": "FormulaSyntaxError",
                     "detail": "integer of 5000 characters is too long "
                               f"(at position {formula.index(BIG)})"}


def test_integer_past_the_digit_limit_in_a_model_file_is_a_schema_error(tmp_path, capsys):
    formulas = dict(MEMORY_DOC, formulas={"big": f"x |-> {BIG}"})
    values = json.dumps(MEMORY_DOC).replace('"values": [0, 1]', f'"values": [0, {BIG}]')
    for name, text in (("formulas.json", json.dumps(formulas)), ("values.json", values)):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ModelSchemaError) as exc:
            load_model(str(path))
        assert exc.value.path == ("formulas.big" if name == "formulas.json" else "<file>")
        assert main(["check-site", "--model", str(path), "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ModelSchemaError"


def test_heap_json_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    model_path = write_model(tmp_path, MEMORY_DOC)
    argv = ["sat", "--model", model_path, "--name", "both", "--json"]
    assert main(argv + ["--heap", f'{{"x": {BIG}, "y": 0}}']) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ModelSchemaError"


def test_heap_integer_past_the_digit_limit_names_the_limit(tmp_path, capsys):
    """The detail names the interpreter's digit limit and echoes a capped
    excerpt of the literal, in the JSON and the bare-identifier forms."""
    model_path = write_model(tmp_path, MEMORY_DOC)
    argv = ["sat", "--model", model_path, "--name", "both", "--json"]
    for heap in (f'{{"x": {BIG}, "y": 0}}', f"{{x: {BIG}, y: 0}}"):
        assert main(argv + ["--heap", heap]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["error"] == "ModelSchemaError"
        assert f"{sys.get_int_max_str_digits()}-digit limit" in error["detail"]
        assert len(error["detail"]) < 200
    assert main(argv + ["--heap", "{x: " + "a" * 5000 + ", y: 0}"]) == 2
    error = json.loads(capsys.readouterr().out)
    assert "digit limit" not in error["detail"] and len(error["detail"]) < 200


def test_measure_in_exponent_notation_is_refused(tmp_path, capsys):
    """Fraction's time grows faster than the exponent, so "1e-3000000"
    is refused before it is parsed."""
    for measure in ("1e-3000000", "25E-2"):
        space = dict(PSL_DOC["spaces"]["unif4"], measure=[measure, "1/4", "1/4", "1/4"])
        doc = dict(PSL_DOC, spaces=dict(PSL_DOC["spaces"], unif4=space))
        model_path = write_model(tmp_path, doc)
        started = time.perf_counter()
        with pytest.raises(ModelSchemaError) as exc:
            load_model(model_path)
        assert exc.value.path == "spaces.unif4.measure[0]"
        assert main(["psl", "--model", model_path, "--space", "unif4", "--name", "indep",
                     "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ModelSchemaError"
        assert time.perf_counter() - started < 2


def test_ascii_rationals_parse_as_fraction_parses_them():
    """Measures in ASCII digits "p/q" or "p" are read as integers; every
    other string goes through Fraction's own parser, and both give the
    value, as a (numerator, denominator) pair with a positive
    denominator, or the error that Fraction(str) behind the exponent
    guard gives."""

    def by_pair(value, path):
        p, q = cli._rational_field(value, path)
        assert q > 0
        return Fraction(p, q)

    def by_fraction(value, path):
        cli._require("e" not in value.lower(), path, f"exponent notation in {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelSchemaError(path, f"bad rational {value!r}") from exc

    def outcome(parse, value):
        try:
            return parse(value, "spaces.s.measure[0]")
        except ModelSchemaError as exc:
            return str(exc)

    for value in ("1/2", "5/21", "3", "0", "007/10", " 1/2", "+1/2", "-1/2", "0.5", "1_0/3",
                  "1/0", "١/٢", "1e3", "1/", "/2", ""):
        assert outcome(by_pair, value) == outcome(by_fraction, value), value


# -- each command accepts only the options its handler reads -----------------

OPTION_VALUES = {
    "--formula": "T", "--name": "both", "--stage": "{x}", "--heap": "{x:0}",
    "--space": "unif4", "--mode": "unfolded", "--seed": "1", "--samples": "1",
}
OWN_OPTIONS = {
    "check-site": set(),
    "check-sheaf": set(),
    "laws": {"--seed", "--samples"},
    "eval": {"--formula", "--name", "--stage", "--mode"},
    "sat": {"--formula", "--name", "--stage", "--heap", "--mode"},
    "psl": {"--formula", "--name", "--space"},
}


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
def test_a_command_refuses_every_option_it_does_not_read(command, tmp_path, capsys):
    """argparse exits 2 on an option that the command's handler would
    ignore, and accepts the command's own options."""
    assert set(OWN_OPTIONS) == set(cli._COMMANDS)
    doc = PSL_DOC if command == "psl" else MEMORY_DOC
    base = [command, "--model", write_model(tmp_path, doc), "--json"]
    for option in sorted(OWN_OPTIONS[command]):
        args = build_arg_parser().parse_args(base + [option, OPTION_VALUES[option]])
        assert getattr(args, option[2:]) is not None
    for option in sorted(set(OPTION_VALUES) - OWN_OPTIONS[command]):
        with pytest.raises(SystemExit) as exc:
            main(base + [option, OPTION_VALUES[option]])
        assert exc.value.code == 2, option
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["psl", "--model", str(MODELS / "psl.json"), "--name", "indep", "--space", "unif4",
     "--stage", "{x}", "--heap", "{x:0}", "--samples", "0", "--json"],
    ["check-site", "--formula", "x |-> 9", "--space", "nope", "--model",
     str(MODELS / "memory.json")],
])
def test_foreign_options_exit_two_without_a_report(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# -- a psl model: every space checked at load, only the named one built ------

# the detail of each load-time refusal, on a space the request does not
# read, as the loader gave it when it built every space
UNREAD_SPACE_REFUSALS = {
    "not-a-partition": ({"blocks": [[1], [2], [3]], "measure": ["1/2", "0", "1/2"]},
                        "spaces.corr: blocks must partition the sample set"),
    "point-outside": ({"blocks": [[1], [2], [3], [5]]},
                      "spaces.corr: blocks must partition the sample set"),
    "overlap": ({"blocks": [[1, 2], [2, 3], [4]], "measure": ["1/2", "0", "1/2"]},
                "spaces.corr: blocks overlap"),
    "repeated-point": ({"blocks": [[1, 1], [2], [3], [4]]}, "spaces.corr: blocks overlap"),
    "negative-string": ({"measure": ["-1/2", "1", "0", "1/2"]},
                        "spaces.corr: measures must be non-negative Fractions"),
    "negative-integer": ({"measure": [-1, "1", "1/2", "1/2"]},
                         "spaces.corr: measures must be non-negative Fractions"),
    "sum": ({"measure": ["1/2", "1/2", "1/2", "0"]},
            "spaces.corr: block measures must sum to exactly 1"),
    "bad-rational": ({"measure": ["a/2", "0", "0", "1/2"]},
                     "spaces.corr.measure[0]: bad rational 'a/2'"),
    "zero-denominator": ({"measure": ["1/0", "0", "0", "1/2"]},
                         "spaces.corr.measure[0]: bad rational '1/0'"),
    "exponent": ({"measure": ["5e-1", "0", "0", "1/2"]},
                 "spaces.corr.measure[0]: exponent notation in '5e-1'"),
    "true": ({"measure": [True, "0", "0", "1/2"]},
             "spaces.corr.measure[0]: rationals must be strings like '1/2' or integers"),
    "float": ({"measure": [0.5, "0", "0", "1/2"]},
              "spaces.corr.measure[0]: rationals must be strings like '1/2' or integers"),
    "size": ({"size": 0}, "spaces.corr.size: positive integer required"),
    "measure-count": ({"measure": ["1/2", "1/2"]},
                      "spaces.corr.measure: one rational per block required"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_SPACE_REFUSALS))
def test_a_bad_space_is_refused_though_the_request_reads_another(case, tmp_path, capsys):
    change, detail = UNREAD_SPACE_REFUSALS[case]
    doc = json.loads(json.dumps(PSL_DOC))
    doc["spaces"]["corr"].update(change)
    model_path = write_model(tmp_path, doc)
    with pytest.raises(ModelSchemaError) as exc:
        load_model(model_path)
    assert str(exc.value) == detail
    assert main(["psl", "--model", model_path, "--name", "indep", "--space", "unif4",
                 "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "ModelSchemaError", "detail": detail}


def test_one_psl_request_builds_only_the_space_it_names(tmp_path, capsys, monkeypatch):
    """On a four-space model one request constructs one ProbSpace, and
    its verdict is the one on a model that holds only that space."""
    built = []
    post_init = psl.ProbSpace.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    spaces = dict(PSL_DOC["spaces"])
    spaces["half"] = {"size": 2, "blocks": [[1, 2]], "measure": [1]}
    spaces["skew"] = {"size": 4, "blocks": [[1, 2], [3], [4]], "measure": ["1/2", "1/3", "1/6"]}
    four = write_model(tmp_path, dict(PSL_DOC, spaces=spaces), name="four.json")
    one = write_model(tmp_path, dict(PSL_DOC, spaces={"unif4": spaces["unif4"]}), name="one.json")
    monkeypatch.setattr(psl.ProbSpace, "__post_init__", counted)
    reports = []
    for path in (four, one):
        built.clear()
        assert main(["psl", "--model", path, "--name", "indep", "--space", "unif4",
                     "--json"]) == 0
        assert [b.measure for b in built] == [(Fraction(1, 4),) * 4]
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["status"] == reports[1]["status"]
    assert reports[0]["witnesses"] == reports[1]["witnesses"]


# -- a closed stdout -----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def run_sheafsep(argv, stdout):
    """`python -m sheafsep argv` with its stdout on `stdout`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.Popen([sys.executable, "-m", "sheafsep", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


@pytest.mark.parametrize("argv", [
    ["eval", "--model", str(MODELS / "memory.json"), "--formula", "T", "--json"],
    ["check-site", "--model", str(MODELS / "memory.json")],
    ["laws", "--model", str(MODELS / "memory.json"), "--samples", "2"],
    ["psl", "--model", str(MODELS / "nope.json"), "--space", "s", "--formula", "T", "--json"],
])
def test_a_stdout_closed_before_the_report_ends_without_a_traceback(argv):
    """A pipe whose reader has gone: the report's write fails, and the
    process exits EXIT_CLOSED_STDOUT with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_sheafsep(argv, write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT not in (0, 1, 2)


def test_a_reader_that_stops_early_leaves_no_traceback(tmp_path):
    """`eval ... --json | head -c 100` on a report larger than a pipe
    holds: the write fails mid-report."""
    doc = dict(MEMORY_DOC, locations=["a", "b", "c", "d"], values=list(range(7)), formulas={})
    proc = run_sheafsep(["eval", "--model", write_model(tmp_path, doc), "--formula", "T",
                         "--json"], subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert b"Traceback" not in err and err == b""
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT


def test_sat_without_a_heap_leaves_no_traceback():
    proc = run_sheafsep(["sat", "--model", str(MODELS / "memory.json"), "--formula", "T"],
                        subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in err
    assert err == b"error: --heap: a heap literal is required\n" and out == b""
