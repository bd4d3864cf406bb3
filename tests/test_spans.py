"""Every name the benchmark's tracer wraps still resolves in sheafsep.

`perfbench/spans.py` looks each one up when a traced run starts, so a
rename or deletion under `src/` would otherwise break traced runs
without failing a test here.  The test only reads the span table."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import pytest

from sheafsep import cli
from sheafsep.day import ResourceMonoid
from sheafsep.presheaf import Presheaf
from sheafsep.psl import ProbSpace

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANNED = sorted({pair for pairs in load_spans().SPANNED.values() for pair in pairs})


@pytest.mark.parametrize("module,name", SPANNED + [("psl", "law_of")])
def test_spanned_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"sheafsep.{module}"), name)
    assert inspect.isfunction(fn)


def test_counted_methods_resolve():
    for cls, name in ((Presheaf, "restrict"), (Presheaf, "at"), (ResourceMonoid, "apply")):
        assert inspect.isfunction(cls.__dict__[name])
    assert isinstance(ProbSpace.__dict__["of"], staticmethod)


def test_traced_commands_count_morphisms_and_covers(tmp_path):
    """The tracer's observers read the category that a wrapped
    `build_powerset_category` returns (`all_morphisms`) and the coverage
    that a wrapped `build_coverage` returns (`by_object`).  On a cold
    cache a traced check-site and eval build the shared site through
    those bindings, so both counters read above 0."""
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"schema_version": 1, "kind": "memory", "locations": ["y", "x"],
                                 "values": [0, 1], "monoid": "weak-partial"}))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["check-site"], ["eval", "--formula", "x |-> 0 * T"]):
                assert tracer.root(0, cli.main, argv + ["--model", str(model), "--json"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["fincat.morphisms"] > 0 and metrics["site.covers"] > 0
