"""The oracles stay independent of the library they check, and the exact
orders of the library stay exact."""

import ast
from pathlib import Path

from lipsets import intervals, pcw


def test_oracles_import_nothing_from_lipsets():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "lipsets"]


def _float_uses(source: str) -> list[int]:
    """The lines of source that call float or divide a .numerator or
    .denominator with /: the two ways to make a float of a Fraction."""
    def parts(node):
        return isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")

    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        and (parts(node.left) or parts(node.right))
    )


def test_points_are_ordered_without_floats():
    # intervals and pcw place points by integer bisects alone
    assert _float_uses("float(x)\nx.numerator / x.denominator\nx.numerator // d\n") == [1, 2]
    for module in (intervals, pcw):
        assert _float_uses(Path(module.__file__).read_text(encoding="utf-8")) == [], module
