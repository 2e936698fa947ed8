"""The package runtime depends on the standard library alone: every absolute
import under src/dngeo names a standard-library module.  Run on each
supported Python, this also catches a module that only newer versions ship."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dngeo"


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_absolute_import_is_stdlib():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    outside = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in sources
        for line, name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, outside
