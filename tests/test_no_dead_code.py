"""Every function and class of the package has a caller outside the tests,
and every function reads each of its parameters.

An AST scan: each ``def`` and ``class`` in ``src/dottedtl/*.py`` must be
named somewhere, as a ``Name`` read, an import alias or an attribute read, in
the package's modules (``__init__.py`` aside, since re-exporting is not using)
or in the benchmark's ``perfbench/*.py``.  An attribute read counts for a
method of that name, and for a module-level definition only when read off
one of the package's modules; a ``Name`` that an enclosing function binds
as a parameter or variable is not a use.  Dunder names are exempt, as the
interpreter calls them; docstrings and other strings do not count.  Each
parameter of a ``def`` other than ``self`` and ``cls`` must be read as a
``Name`` in its body, nested functions included.  Each name a module
(``__init__.py`` aside) imports must be read as a ``Name`` in it.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _variables(fn) -> set:
    """The names a function binds as variables: its parameters and the
    targets assigned in its own body (nested scopes aside)."""
    a = fn.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
             + [a.vararg, a.kwarg] if p is not None}
    stack = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _names_used(tree: ast.AST, modules: set, local=frozenset()):
    """Each name the tree uses: a ``Name`` read that no enclosing function
    binds as a variable, an import alias, an attribute read ``X.name``
    where X ends in one of ``modules`` (a module-level definition reached
    through its module), and, tagged ``("attr", name)``, every other
    attribute read, which can only reach a method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _SCOPES):
            yield from _names_used(node, modules, local | _variables(node))
            continue
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                yield node.id
        elif isinstance(node, ast.Attribute):
            owner = node.value
            owner = owner.id if isinstance(owner, ast.Name) \
                else owner.attr if isinstance(owner, ast.Attribute) else None
            yield node.attr if owner in modules else ("attr", node.attr)
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        yield from _names_used(node, modules, local)


def _methods(tree: ast.AST) -> set:
    """id of each def directly inside a class body."""
    return {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def package_sources() -> dict:
    return {path.stem: path.read_text()
            for path in sorted(PACKAGE.glob("*.py"))}


def unused_definitions(sources: dict | None = None) -> list:
    """module.name of each def and class no user names.  A method counts
    as used when any attribute of its name is read; a module-level
    function or class only when it is named bare, imported, or read as an
    attribute of its package's modules (``lasagna.name``,
    ``dottedtl.name``)."""
    sources = package_sources() if sources is None else sources
    modules = {stem: ast.parse(text) for stem, text in sources.items()}
    users = [tree for stem, tree in modules.items() if stem != "__init__"]
    users += [ast.parse(path.read_text())
              for path in sorted((ROOT / "perfbench").glob("*.py"))]
    package = {"dottedtl", *sources}
    used = {name for tree in users for name in _names_used(tree, package)}
    out = []
    for stem, tree in modules.items():
        methods = _methods(tree)
        for qual, node in _definitions(tree, stem):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used and not (id(node) in methods
                                         and ("attr", name) in used):
                out.append(qual)
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    assert unused_definitions() == []


def test_uncalled_function_named_like_an_attribute_is_reported():
    """Negative control: a module-level ``core`` that nothing calls is dead
    although ``F.core`` (an attribute of another object) is read in the
    package, and so is one with a fresh name."""
    sources = package_sources()
    assert unused_definitions(sources) == []
    for name in ("core", "nonesuch_fn"):
        patched = dict(sources)
        patched["projectors"] += f"\n\ndef {name}(F):\n    return F\n"
        assert unused_definitions(patched) == [f"projectors.{name}"]


def unused_imports(source: str) -> list:
    """Each name the source imports (``from __future__`` aside) and never
    reads as a ``Name``, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_is_read():
    assert {stem: unused_imports(text)
            for stem, text in package_sources().items()
            if stem != "__init__" and unused_imports(text)} == {}


def test_unused_import_is_reported():
    """Negative control: rep's source with an unread import of each form
    added is reported, and a read one is not."""
    source = package_sources()["rep"]
    assert unused_imports(source) == []
    added = "import json\nimport os.path\nfrom math import tau as tau_alias\n"
    assert unused_imports(added + source) == ["json", "os", "tau_alias"]
    assert unused_imports(added + source + "\nX = json, os, tau_alias\n") == []


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
