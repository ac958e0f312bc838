"""statespace sits below projectors and kirby, and rep below lasagna,
selftest and cli: neither imports a module above it.

An AST scan of every import statement, function-local ones included, in
``src/dottedtl/statespace.py`` and ``src/dottedtl/rep.py``, relative or
absolute.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dottedtl"


def package_imports(source: str) -> set:
    """The dottedtl modules that source imports, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names
                    if a.name.startswith("dottedtl.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "dottedtl":
                    continue
                parts = parts[1:]
            if parts and parts[0]:  # from .m, from dottedtl.m import x
                out.add(parts[0])
            else:  # from . import m, from dottedtl import m
                out |= {a.name for a in node.names}
    return out


def test_statespace_imports_neither_projectors_nor_kirby():
    source = (PACKAGE / "statespace.py").read_text()
    assert package_imports(source) & {"projectors", "kirby"} == set()


# rep holds the f-string certificate that lasagna's claims read
ABOVE_REP = {"lasagna", "selftest", "cli"}


def test_rep_imports_neither_lasagna_nor_selftest_nor_cli():
    source = (PACKAGE / "rep.py").read_text()
    assert package_imports(source) & ABOVE_REP == set()


def test_upward_import_in_rep_is_reported():
    """Negative control: rep's own source with one upward import added,
    at module level or inside a function, is reported."""
    source = (PACKAGE / "rep.py").read_text()
    for line, module in (("from .lasagna import gamma", "lasagna"),
                         ("from . import selftest", "selftest"),
                         ("import dottedtl.cli", "cli")):
        for added in (line, f"def f():\n    {line}\n    return 0"):
            assert package_imports(f"{source}\n{added}\n") & ABOVE_REP \
                == {module}, added


def test_function_local_imports_are_seen():
    """Negative control: each spelling of an upward import is reported,
    inside a function as at module level."""
    for line in ("from .projectors import core", "from . import kirby",
                 "from dottedtl.projectors import core",
                 "from dottedtl import kirby", "import dottedtl.kirby"):
        local = f"def f():\n    {line}\n    return 0\n"
        assert package_imports(line) & {"projectors", "kirby"}, line
        assert package_imports(local) & {"projectors", "kirby"}, line
    assert package_imports("from .ring import E_RING\nimport math\n") \
        == {"ring"}
