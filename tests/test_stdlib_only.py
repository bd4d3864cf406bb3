"""The runtime is stdlib-only: every absolute import in the package names
a standard-library module (relative imports stay inside the package)."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sheafsep"


def absolute_imports(path):
    """(line, top-level module) of every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    outside = [(line, name) for line, name in absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports non-stdlib modules: {outside}"


def raised_names(path):
    """The name of every class or call a `raise` statement in a file raises."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_class_is_raised():
    """Each error class in `errors.py` is raised somewhere in the package,
    but for the base classes others derive from."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = {name for path in PACKAGE.glob("*.py") for name in raised_names(path)}
    unraised = [node.name for node in classes if node.name not in bases | raised]
    assert not unraised, f"error classes nothing raises: {unraised}"


# Public names no other code in the package calls, each still to be given
# a caller or moved to a test reference; a reason per name.
UNCALLED = {
    "kripke_cross_check": "psl: the probability-presheaf block, waiting on the Day-star rewrite",
}


def read_names(node):
    """Every name, attribute and imported name read under an AST node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_public_name_has_a_caller():
    """Each public top-level `def` and `class` is read by code in the
    package outside its own definition (re-exports in `__init__` are no
    callers) or by the benchmark: `perfbench/spans.py`, whose tracer
    wraps it by name, or `perfbench/verdicts.py`, which imports it; the
    rest are `UNCALLED`, and an entry that gained a caller leaves it."""
    tops = [top for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
            for top in ast.parse(path.read_text()).body]
    reads = [(top, read_names(top)) for top in tops]
    perfbench = PACKAGE.parent.parent / "perfbench"
    spans = ast.parse((perfbench / "spans.py").read_text())
    traced = read_names(spans) | {node.value for node in ast.walk(spans)
                                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    traced |= read_names(ast.parse((perfbench / "verdicts.py").read_text()))
    uncalled = {
        top.name for top in tops
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
        and top.name not in traced
        and not any(top.name in names for other, names in reads if other is not top)
    }
    assert not uncalled - UNCALLED.keys(), f"public names nothing calls: {uncalled - UNCALLED.keys()}"
    assert not UNCALLED.keys() - uncalled, f"allowed but called: {UNCALLED.keys() - uncalled}"
