"""Every name the benchmark's tracer wraps still resolves in sheafsep.

`perfbench/spans.py` looks each one up when a traced run starts, so a
rename or deletion under `src/` would otherwise break traced runs
without failing a test here.  The test only reads the span table."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
