"""The image layer, read off the source of src/dngeo: only the modules of
dngeo.symbolic know about images mod P.  No module outside it imports
`modp` or `image_at_sample`, nor reads either as an attribute, so every
rank read elsewhere goes through the rank rules of linalg.  A new reader
of an image outside the symbolic layer fails here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dngeo"
IMAGE_NAMES = {"modp", "image_at_sample"}


def names_reached(node):
    """The module and attribute names an import or attribute node reaches."""
    if isinstance(node, ast.ImportFrom):
        yield from (node.module or "").split(".")
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield from alias.name.split(".")
    elif isinstance(node, ast.Attribute):
        yield node.attr


def image_readers(paths):
    """`path:line` of every node of the modules at paths that reaches an image name."""
    return [
        f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if IMAGE_NAMES & set(names_reached(node))
    ]


def test_no_module_outside_the_symbolic_layer_reaches_an_image():
    outside = sorted(p for p in PACKAGE.rglob("*.py") if "symbolic" not in p.relative_to(PACKAGE).parts)
    assert len(outside) > 10
    found = image_readers(outside)
    assert not found, found


def test_the_rule_sees_the_readers_inside_the_symbolic_layer():
    # linalg decides ranks from images and poly reads its gcd degree bounds
    # from them, so the rule above would name both
    found = {reader.partition(":")[0] for reader in image_readers(sorted((PACKAGE / "symbolic").glob("*.py")))}
    assert {"symbolic/linalg.py", "symbolic/poly.py"} <= found
