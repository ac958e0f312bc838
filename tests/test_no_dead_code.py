"""Every function and class of the package has a caller outside the tests,
and every function reads each of its parameters.

An AST scan: each ``def`` and ``class`` in ``src/dottedtl/*.py`` must be
named somewhere, as a ``Name``, an ``Attribute`` or an import alias, in the
package's modules (``__init__.py`` aside, since re-exporting is not using)
or in the benchmark's ``perfbench/*.py``.  Dunder names are exempt, as the
interpreter calls them; docstrings and other strings do not count.  Each
parameter of a ``def`` other than ``self`` and ``cls`` must be read as a
``Name`` in its body, nested functions included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dottedtl"


def _definitions(tree: ast.AST, prefix: str):
    """(qualified name, node) of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            yield qual, node
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
            for qual, node in _definitions(tree, path.stem)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in used]


def test_every_definition_has_a_caller_outside_the_tests():
    assert unused_definitions() == []



def ignored_parameters() -> list:
    """module.function.parameter for each parameter no body reads."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, node in _definitions(ast.parse(path.read_text()), path.stem):
            if isinstance(node, ast.ClassDef):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            out += [f"{qual}.{p}" for p in params
                    if p not in ("self", "cls", *read)]
    return out


def test_every_parameter_is_read():
    assert ignored_parameters() == []
