"""statespace sits below projectors and kirby: it imports neither.

An AST scan of every import statement, function-local ones included, in
``src/dottedtl/statespace.py``, relative or absolute.
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
