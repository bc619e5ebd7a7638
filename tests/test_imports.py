"""Every module of the library and of the test suite reads each name that
its module-level imports bind."""

import ast
from pathlib import Path

import pytest

import lipsets

MODULES = sorted(
    path for root in (Path(lipsets.__file__).parent, Path(__file__).parent)
    for path in root.glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source that no
    expression of it reads, sorted; `from __future__` imports are not
    names."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "import os.path\nimport json as j\nfrom math import gcd, lcm\nprint(gcd(1, 2))\n"
    assert unused_imports(source) == ["j", "lcm", "os"]
    assert unused_imports("from __future__ import annotations\nimport os\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
