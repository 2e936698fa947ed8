"""Every name a module of the package imports is read by that module.

A stdlib `ast` scan of src/dngeo/**/*.py: the names an import binds (its
`as` name, or the first component of a dotted `import a.b`) against the
names the module loads anywhere, at any depth.  A name listed in the
module's `__all__` counts as read, since it is imported to be re-exported.
`from __future__` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dngeo"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree):
    """{bound name: line} of the module's imports, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree):
    """The string entries of a module-level `__all__` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= exported_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .x import kept\n"
        "__all__ = ['kept']\n"
        "def f(a):\n"
        "    return gcd(a, 2)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "least")]
