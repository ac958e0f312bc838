"""Every function and class of the package has a caller outside the tests.

An AST scan: each ``def`` and ``class`` in ``src/dottedtl/*.py`` must be
named somewhere, as a ``Name``, an ``Attribute`` or an import alias, in the
package's modules (``__init__.py`` aside, since re-exporting is not using)
or in the benchmark's ``perfbench/*.py``.  Dunder names are exempt, as the
interpreter calls them; docstrings and other strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dottedtl"


def _definitions(tree: ast.AST, prefix: str):
    """(qualified name, name) of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            yield qual, node.name
            yield from _definitions(node, qual)
        else:
            yield from _definitions(node, prefix)


def _names_used(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def unused_definitions() -> list:
    modules = {path: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))}
    users = [tree for path, tree in modules.items()
             if path.name != "__init__.py"]
    users += [ast.parse(path.read_text())
              for path in sorted((ROOT / "perfbench").glob("*.py"))]
    used = {name for tree in users for name in _names_used(tree)}
    return [qual
            for path, tree in modules.items()
            for qual, name in _definitions(tree, path.stem)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in used]


def test_every_definition_has_a_caller_outside_the_tests():
    assert unused_definitions() == []
