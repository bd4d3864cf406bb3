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
# a caller or moved to a test reference; a reason per name.  A method is
# named `Class.method`.
UNCALLED = {}


def read_names(node):
    """Every name, attribute, imported name and string constant read
    under an AST node; a string names what `getattr` or a tracer reads."""
    out = attribute_reads(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def attribute_reads(node):
    """Every attribute and string constant read under an AST node: the
    only ways to reach a method, since a bare name never calls one."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def package_and_benchmark_reads(read=read_names):
    """Each top-level node of the package but `__init__` (its re-exports
    are no callers) with the names `read` finds in it, and the names it
    finds in the benchmark: in `perfbench/spans.py`, whose tracer wraps
    and counts by name, and in `perfbench/verdicts.py`, which imports
    from the package."""
    tops = [top for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
            for top in ast.parse(path.read_text()).body]
    perfbench = PACKAGE.parent.parent / "perfbench"
    traced = {name for path in ("spans.py", "verdicts.py")
              for name in read(ast.parse((perfbench / path).read_text()))}
    return [(top, read(top)) for top in tops], traced


def test_every_public_name_has_a_caller():
    """Each public top-level `def` and `class` is read by code in the
    package outside its own definition or by the benchmark; the rest
    are `UNCALLED`, and an entry that gained a caller leaves it."""
    reads, traced = package_and_benchmark_reads()
    uncalled = {
        top.name for top, _ in reads
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
        and top.name not in traced
        and not any(top.name in names for other, names in reads if other is not top)
    }
    allowed = {name for name in UNCALLED if "." not in name}
    assert not uncalled - allowed, f"public names nothing calls: {uncalled - allowed}"
    assert not allowed - uncalled, f"allowed but called: {allowed - uncalled}"


def test_every_public_method_has_a_caller():
    """Each public method of a class in the package (properties and
    static methods included) is read as an attribute or a string by
    package code outside the method itself or by the benchmark; the
    rest are `UNCALLED` as `Class.method`."""
    reads, traced = package_and_benchmark_reads(attribute_reads)
    uncalled = set()
    for cls, _ in reads:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                continue
            outside = [names for other, names in reads if other is not cls]
            outside += [attribute_reads(node) for node in cls.body if node is not method]
            if method.name not in traced and not any(method.name in names for names in outside):
                uncalled.add(f"{cls.name}.{method.name}")
    allowed = {name for name in UNCALLED if "." in name}
    assert not uncalled - allowed, f"public methods nothing calls: {uncalled - allowed}"
    assert not allowed - uncalled, f"allowed but called: {allowed - uncalled}"
