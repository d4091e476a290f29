"""Every name a module imports at top level is used in that module.

No linter runs with the tests, so this stands in for the unused-import
rule.  It reads each module with ``ast`` and does not import it.
``__init__.py`` is skipped because its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*ROOT.glob("src/ergolift/*.py"),
                             *ROOT.glob("tests/*.py")]
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_detects_unused_import():
    source = "import os\nfrom typing import Optional, Mapping\nx: Mapping\n"
    assert unused_imports(source) == [(1, "os"), (2, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
