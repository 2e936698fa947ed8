"""Only symbolic/poly.py knows the integer form of a Polynomial: no other
module under src/dngeo imports a private name from it, apart from the packed
kernels, the key width and the canonical form that linalg's elimination
shares with divexact."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dngeo"
POLY = "dngeo.symbolic.poly"
SHARED = {"_FLOOR", "_packing", "_shape", "_kernel_form", "_make", "_dot", "_divide"}


def private_poly_imports(path):
    """(line, name) for each private name that path imports from poly.py."""
    package = ["dngeo", *path.relative_to(PACKAGE).parent.parts]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module
        if node.level:  # relative to the package of path
            source = ".".join(package[: len(package) - node.level + 1] + ([node.module] if node.module else []))
        for alias in node.names:
            if source == POLY and alias.name.startswith("_"):
                yield node.lineno, alias.name


def test_no_module_imports_the_integer_form():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = {
        f"{path.relative_to(PACKAGE)}:{line}: {name}": name
        for path in sources
        if path != PACKAGE / "symbolic" / "poly.py"
        for line, name in private_poly_imports(path)
    }
    # the shared kernels are seen, so relative imports resolve
    assert {"_kernel_form", "_dot"} <= set(found.values())
    leaks = [where for where, name in found.items() if name not in SHARED]
    assert not leaks, leaks
