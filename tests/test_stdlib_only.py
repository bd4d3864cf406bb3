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


def package_and_benchmark():
    """Each top-level node of the package but `__init__` (its re-exports
    are no callers), and the benchmark modules that name package code:
    `perfbench/spans.py`, whose tracer wraps and counts by name, and
    `perfbench/verdicts.py`, which imports from the package."""
    tops = [top for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
            for top in ast.parse(path.read_text()).body]
    perfbench = PACKAGE.parent.parent / "perfbench"
    return tops, [ast.parse((perfbench / path).read_text()) for path in ("spans.py", "verdicts.py")]


def entered(tops, benchmark):
    """The top-level definitions and methods of the package, as (name,
    line) with a method named `Class.method`, that running it can enter:
    those that a statement run at import (imports aside, which call
    nothing) or the benchmark reads, then those that an entered node
    reads, a definition by name and a method as an attribute or a
    string.  An entered class runs its body outside its methods and
    enters its dunder methods, which Python calls.  A node read only
    from inside a cycle that nothing else reaches is never entered."""
    defs, methods, named = {}, {}, {}
    for top in tops:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            defs.setdefault(top.name, []).append(top)
            named[id(top)] = (top.name, top.lineno)
        if isinstance(top, ast.ClassDef):
            for method in top.body:
                if isinstance(method, ast.FunctionDef):
                    methods.setdefault(method.name, []).append(method)
                    named[id(method)] = (f"{top.name}.{method.name}", method.lineno)

    def targets(nodes):
        """The definitions and methods that these nodes read."""
        names, attrs = set(), set()
        for node in nodes:
            names |= read_names(node)
            attrs |= attribute_reads(node)
        return ([d for name in names for d in defs.get(name, ())]
                + [m for name in attrs for m in methods.get(name, ())])

    run = [top for top in tops
           if not isinstance(top, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
    todo, seen = targets(run + benchmark), set()
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ast.ClassDef):
            body = [n for n in node.body if not isinstance(n, ast.FunctionDef)]
            todo += targets(body + node.decorator_list + node.bases)
            todo += [m for m in node.body
                     if isinstance(m, ast.FunctionDef) and m.name.startswith("__")]
        else:
            todo += targets([node])
    return {named[i] for i in seen}


def test_every_public_name_has_a_caller():
    """Each public top-level `def` and `class` is entered when the package
    runs (`entered`): read by package code that a command or the
    benchmark reaches, outside its own definition, so a cycle of names
    that read only each other counts as uncalled.  The rest are
    `UNCALLED`, and an entry that gained a caller leaves it."""
    tops, benchmark = package_and_benchmark()
    reached = entered(tops, benchmark)
    uncalled = {
        top.name for top in tops
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
        and (top.name, top.lineno) not in reached
    }
    allowed = {name for name in UNCALLED if "." not in name}
    assert not uncalled - allowed, f"public names nothing calls: {uncalled - allowed}"
    assert not allowed - uncalled, f"allowed but called: {allowed - uncalled}"


def test_every_public_method_has_a_caller():
    """Each public method of a class in the package (properties and
    static methods included) is entered when the package runs
    (`entered`): read as an attribute or a string by package code that a
    command or the benchmark reaches, outside the method itself.  The
    rest are `UNCALLED` as `Class.method`."""
    tops, benchmark = package_and_benchmark()
    reached = entered(tops, benchmark)
    uncalled = {
        f"{cls.name}.{method.name}" for cls in tops if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and (f"{cls.name}.{method.name}", method.lineno) not in reached
    }
    allowed = {name for name in UNCALLED if "." in name}
    assert not uncalled - allowed, f"public methods nothing calls: {uncalled - allowed}"
    assert not allowed - uncalled, f"allowed but called: {allowed - uncalled}"
