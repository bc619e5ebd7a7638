"""Every module-level function and class of the library, and every method
that is not a dunder, is named somewhere in the library, the tests or the
benchmark: code that nothing names is deleted, not kept."""

import ast
from pathlib import Path

import lipsets

LIBRARY = Path(lipsets.__file__).parent
ROOTS = (LIBRARY.parent, Path(__file__).parent, Path(__file__).parent.parent / "perfbench")

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each module-level function and class of
    tree, and of each method of those classes that is not a dunder."""
    out = []
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, FUNCTIONS)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def names(tree: ast.Module) -> set[str]:
    """Every name tree reads or writes, every attribute it names and every
    name an import of it binds or imports: a definition names nothing."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name, node.asname)))
    return out


def orphans(library: list[str], everywhere: list[str]) -> list[str]:
    """The qualified names of the definitions in the library sources that
    no source of everywhere names, sorted."""
    named = set().union(*(names(ast.parse(source)) for source in everywhere))
    return sorted(qual for source in library for qual, name in definitions(ast.parse(source))
                  if name not in named)


def test_orphans_are_found():
    library = ("def f(): pass\ndef g(): pass\n"
               "class C:\n    def m(self): pass\n    def n(self): pass\n"
               "    def __eq__(self, other): pass\n")
    user = "from lib import g as h\nx.m()\n"
    assert orphans([library], [library, user]) == ["C", "C.n", "f"]


def test_every_definition_is_named():
    library = [path.read_text(encoding="utf-8") for path in sorted(LIBRARY.glob("*.py"))]
    everywhere = [path.read_text(encoding="utf-8")
                  for root in ROOTS for path in sorted(root.rglob("*.py"))]
    assert orphans(library, everywhere) == []
