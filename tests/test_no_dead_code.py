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


_CACHES = {"cache", "lru_cache"}


def unbounded_caches(source: str) -> list:
    """The line of each functools cache in source without an integer
    maxsize: ``cache``, a bare ``lru_cache``, or ``lru_cache`` called with
    no maxsize or a non-integer one."""
    tree = ast.parse(source)
    modules, names = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, a.name) for a in node.names)

    def functools_name(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            return node.attr
        return None

    def bounded(call):
        sizes = call.args[:1] + [k.value for k in call.keywords
                                 if k.arg == "maxsize"]
        return (functools_name(call.func) == "lru_cache" and sizes
                and isinstance(sizes[0], ast.Constant)
                and type(sizes[0].value) is int)

    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return [node.lineno for node in ast.walk(tree)
            if functools_name(node) in _CACHES
            and not (id(node) in calls and bounded(calls[id(node)]))]


def test_every_functools_cache_is_bounded():
    """Every functools cache in the package has an integer maxsize."""
    assert [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in unbounded_caches(path.read_text())] == []


def test_unbounded_cache_is_reported():
    """Negative control: an unbounded or unsized cache is reported."""
    bounded = "from functools import lru_cache\n" \
              "@lru_cache(maxsize=64)\ndef f(x):\n    return x\n"
    assert unbounded_caches(bounded) == []
    assert unbounded_caches(bounded.replace("64", "None")) == [2]
    assert unbounded_caches(bounded.replace("(maxsize=64)", "")) == [2]
    assert unbounded_caches(
        "import functools\n@functools.cache\ndef g(x):\n    return x\n") \
        == [2]
