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
