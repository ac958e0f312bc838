"""statespace sits below projectors and kirby, and rep below lasagna,
selftest and cli: neither imports a module above it.  No module imports
another's underscore names, and only ``ring`` writes or reads the layout
of a packed polynomial key: no other module shifts by 32 or names
``EXP_BITS`` or ``EXP_MASK``; they call ``ring.pack_key`` and
``ring.unpack_key``.

An AST scan of every import statement, function-local ones included, in
``src/dottedtl/statespace.py`` and ``src/dottedtl/rep.py``, relative or
absolute; and of every module of the package for the other two rules.
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


def private_imports(source: str) -> set:
    """The underscore names, dunders aside, that source imports from a
    dottedtl module, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dottedtl"):
            out |= {a.name for a in node.names if a.name.startswith("_")
                    and not a.name.endswith("__")}
    return out


LAYOUT_NAMES = ("EXP_BITS", "EXP_MASK")


def packed_layout_uses(source: str) -> set:
    """Where source writes or reads a packed key's layout: each shift by 32
    (``<< 32``, ``>> 32``), and each name EXP_BITS or EXP_MASK, underscored
    or not, that it assigns, reads, imports or reads as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) \
                and isinstance(node.op, (ast.LShift, ast.RShift)) \
                and isinstance(node.right, ast.Constant) \
                and node.right.value == 32:
            out.add("<< 32" if isinstance(node.op, ast.LShift) else ">> 32")
        else:
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else "")
            if name.lstrip("_") in LAYOUT_NAMES:
                out.add(name)
    return out


def modules():
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_another_modules_private_names():
    found = {name: private_imports(source)
             for name, source in modules().items()}
    assert {name: names for name, names in found.items() if names} == {}


def test_packed_key_layout_is_known_only_to_ring():
    found = {name: packed_layout_uses(source)
             for name, source in modules().items()}
    assert found.pop("ring") == {"_EXP_BITS", "_EXP_MASK"}
    assert {name: d for name, d in found.items() if d} == {}


def test_private_imports_and_packing_are_reported():
    """Negative controls: each spelling of a private import, at module level
    or inside a function, and each use of the key layout outside ring."""
    for line in ("from .statespace import _canonical",
                 "from dottedtl.statespace import _canonical",
                 "from .statespace import PolyMatrix, _canonical"):
        for added in (line, f"def f():\n    {line}\n    return 0"):
            assert private_imports(added) == {"_canonical"}, added
    assert private_imports("from .ring import E_RING, pack\n"
                           "from __future__ import annotations\n"
                           "from fractions import _gcd\n") == set()
    words = modules()["words"]
    assert packed_layout_uses(words) == set()
    for added, found in (("key = {e1 << 32 | e2: 1}", {"<< 32"}),
                         ("a = key >> 32", {">> 32"}),
                         ("_EXP_BITS = 32", {"_EXP_BITS"}),
                         ("b = key & ring._EXP_MASK", {"_EXP_MASK"}),
                         ("from .ring import EXP_BITS", {"EXP_BITS"})):
        assert packed_layout_uses(f"{words}\n{added}\n") == found, added
