"""Loaded models kept by path and text (`cli._model`).

`cli.load_model` reads a model file on every call and returns the model
already built for the same path and text while it is among the
MODELS_KEPT loaded most recently.  These tests check that an edited
file loads again whatever its mtime and size, that a file that fails to
load is refused every time and evicts nothing, that the process keeps a
bounded number of models, that a request on a kept model parses,
validates and builds nothing, and that a request interrupted anywhere
leaves its kept model as a complete one."""

import contextlib
import gc
import io
import json
import os
import sys
import weakref
from collections import Counter

import pytest

import presheaf_reference as ref
from sheafsep import cli, psl
from sheafsep.day import ResourceMonoid
from sheafsep.errors import ModelSchemaError
from sheafsep.presheaf import Presheaf

MEMORY_DOC = {
    "schema_version": 1,
    "kind": "memory",
    "locations": ["x", "y"],
    "values": [0, 1],
    "monoid": "weak-partial",
    "formulas": {"f": "x |-> 0"},
}

PSL_DOC = {
    "schema_version": 1,
    "kind": "psl",
    "spaces": {"unif4": {"size": 4, "blocks": [[1], [2], [3], [4]],
                         "measure": ["1/4", "1/4", "1/4", "1/4"]}},
    "variables": {"X": [0, 0, 1, 1], "Y": [0, 1, 0, 1]},
    "formulas": {"indep": "(X ~ {0: 1/2, 1: 1/2}) * (Y ~ {0: 1/2, 1: 1/2})"},
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    return code, out.getvalue()


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _sat(path):
    return ["sat", "--model", path, "--name", "f", "--heap", "{x:0, y:null}"]


def test_an_edited_file_loads_again_whatever_its_mtime_and_size(tmp_path):
    """A served file rewritten with other text of the same size, with its
    mtime set back, gives the new text's verdict on the next request."""
    path = tmp_path / "m.json"
    _write(path, MEMORY_DOC)
    assert _run(_sat(str(path)))[0] == 0
    before = os.stat(path)
    _write(path, dict(MEMORY_DOC, formulas={"f": "x |-> 1"}))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    code, out = _run(_sat(str(path)))
    assert code == 1 and json.loads(out)["status"]["result"] is False


def test_a_file_that_fails_to_load_is_refused_again_and_evicts_nothing(tmp_path):
    """With MODELS_KEPT models kept, a missing file, a file of bad JSON and
    one that fails validation each exit 2 with the same report on every
    request, and every kept model is still kept, the least recently
    loaded among them."""
    paths = [_write(tmp_path / f"m{i}.json", dict(MEMORY_DOC, values=[0, 1, i + 2]))
             for i in range(cli.MODELS_KEPT)]
    kept = [cli.load_model(p) for p in paths]
    (tmp_path / "bad.json").write_text("{not json")
    bad = [str(tmp_path / "missing.json"), str(tmp_path / "bad.json"),
           _write(tmp_path / "schema.json", dict(MEMORY_DOC, schema_version=2))]
    for path in bad:
        first = _run(_sat(path))
        assert first[0] == 2 and json.loads(first[1])["error"] == "ModelSchemaError"
        assert _run(_sat(path)) == first
        with pytest.raises(ModelSchemaError):
            cli.load_model(path)
    assert cli._model.cache_info().currsize == cli.MODELS_KEPT
    assert all(cli.load_model(p) is m for p, m in zip(paths, kept))


def test_the_same_text_under_two_paths_gives_two_models(tmp_path):
    """A model's name is its path, so the same text under two paths is
    kept as two models, each named by its own path."""
    a, b = (_write(tmp_path / name, MEMORY_DOC) for name in ("a.json", "b.json"))
    first, second = cli.load_model(a), cli.load_model(b)
    assert first is not second
    assert (first.name, second.name) == (a, b)
    assert cli.load_model(a) is first and cli.load_model(b) is second
    assert json.loads(_run(_sat(b))[1])["model"] == b


def test_the_process_keeps_a_bounded_number_of_models(tmp_path):
    """After MODELS_KEPT + 3 distinct files are served, at most MODELS_KEPT
    of their models are still alive: the ones served last."""
    refs = []
    for i in range(cli.MODELS_KEPT + 3):
        path = _write(tmp_path / f"m{i}.json", dict(MEMORY_DOC, values=[0, 1, i + 2]))
        assert _run(_sat(path))[0] == 0
        refs.append(weakref.ref(cli.load_model(path)))
    gc.collect()
    alive = [ref() is not None for ref in refs]
    assert sum(alive) <= cli.MODELS_KEPT
    assert all(alive[-cli.MODELS_KEPT:])


@pytest.fixture
def built(monkeypatch):
    """Counts of the Presheaf, ResourceMonoid and ProbSpace objects
    constructed while the test runs, and the texts `json.loads` read."""
    counts, texts = Counter(), []
    for cls in (Presheaf, ResourceMonoid, psl.ProbSpace):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    loads = json.loads

    def read(text, *args, **kwargs):
        texts.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", read)
    return counts, texts


@pytest.mark.parametrize("doc, argv", [
    (MEMORY_DOC, ["eval", "--formula", "x |-> 0 * y ~> 1"]),
    (PSL_DOC, ["psl", "--space", "unif4", "--name", "indep"]),
])
def test_a_second_request_on_an_unchanged_file_builds_nothing(doc, argv, tmp_path, built):
    """Deterministic work gate: a first eval (psl) request builds the
    model's carrier and monoid (its space) and parses the file's text; a
    second one on the unchanged file constructs no Presheaf, no
    ResourceMonoid and no ProbSpace, parses no model text, and prints
    the same report."""
    counts, texts = built
    path = _write(tmp_path / "m.json", doc)
    text = (tmp_path / "m.json").read_text()
    argv = argv[:1] + ["--model", path] + argv[1:]
    first = _run(argv)
    assert first[0] == 0
    assert texts.count(text) == 1
    kinds = ("Presheaf", "ResourceMonoid") if doc is MEMORY_DOC else ("ProbSpace",)
    assert all(counts[kind] >= 1 for kind in kinds)
    counts.clear()
    texts.clear()
    assert _run(argv) == first
    assert not counts
    assert text not in texts


class _Interrupt(BaseException):
    """Raised inside a request, as a timer's signal handler would."""


def _interrupted(argv, k):
    """Serve argv, raising _Interrupt as the k-th call into the package
    begins; the number of calls made, and the names of the functions on
    the stack where it was raised if it cut the request short (none if
    it did not, as when it is raised in a generator's finalisation,
    which ignores it, and no call is traced after it)."""
    calls, stack = 0, []

    def trace(frame, event, arg):
        nonlocal calls
        if "sheafsep" in frame.f_code.co_filename:
            calls += 1
            if calls == k:
                while frame is not None:
                    stack.append(frame.f_code.co_name)
                    frame = frame.f_back
                raise _Interrupt

    sys.settrace(trace)
    try:
        _run(argv)
    except _Interrupt:
        return calls, stack
    finally:
        sys.settrace(None)
    return calls, []


@pytest.mark.parametrize("doc, argv", [
    (dict(MEMORY_DOC, monoid="total"), ["laws", "--samples", "2"]),
    (dict(MEMORY_DOC, locations=["x", "y", "z"], monoid="total"),
     ["eval", "--formula", "x |-> 0 * (y ~> 1 * z |-> 0)", "--mode", "pipeline"]),
    (MEMORY_DOC, ["sat", "--formula", "x ~> 0 * T", "--heap", "{x:0, y:1}"]),
    (dict(MEMORY_DOC, locations=["x", "y", "z"], sheaf="support-bounded", support_bound=1,
          monoid=None), ["check-sheaf"]),
    (PSL_DOC, ["psl", "--space", "unif4", "--name", "indep"]),
])
def test_an_interrupted_request_leaves_no_partial_memo(doc, argv, tmp_path):
    """A request interrupted by a BaseException at any of 24 points spread
    over its calls into the package, from a cold process, leaves the
    model it kept (and the shape tables) such that the same request then
    prints the bytes and exit code it prints cold: every memo is
    assigned only once it is built.  The failing `check-sheaf` is cut
    inside cover skeleton builds too (`SieveMasks.skeleton`)."""
    argv = argv[:1] + ["--model", _write(tmp_path / "m.json", doc)] + argv[1:]
    want = _run(argv)
    ref.clear_shape_caches()
    n, _ = _interrupted(argv, 0)
    stacks = []
    for j in range(1, 25):
        ref.clear_shape_caches()
        calls, stack = _interrupted(argv, n * j // 25)
        assert calls == n * j // 25
        stacks.append(stack)
        assert _run(argv) == want
    assert argv[0] != "check-sheaf" or any("skeleton" in stack for stack in stacks)
