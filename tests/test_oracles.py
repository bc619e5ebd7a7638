"""The oracles stay independent of the library they check."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_lipsets():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "lipsets"]
