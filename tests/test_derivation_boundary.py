"""The combined derivation along coordinate fields is read from its closed
form, `courant._coordinate_D`: no module under src/dngeo evaluates
`big_D(VectorField.coordinate(...), ...)`, which sums every row of that
form to read one, apart from identities.py."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dngeo"


def _name(node):
    """The dotted name a call target spells, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def big_D_on_coordinate_fields(source):
    """Line numbers of each big_D call whose first argument is a
    VectorField.coordinate(...) call."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (_name(node.func) or "").split(".")[-1] == "big_D" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Call) and (_name(first.func) or "").endswith("VectorField.coordinate"):
                yield node.lineno


def test_the_guard_sees_the_pattern():
    code = "big_D(VectorField.coordinate(ch, k), s, r)\ncourant.big_D(tensor.VectorField.coordinate(ch, 0), s, r)\n"
    assert list(big_D_on_coordinate_fields(code)) == [1, 2]
    assert not list(big_D_on_coordinate_fields("big_D(X, s, r)\nbig_D(VectorField.zero(ch), s, r)\n"))


def test_only_the_identities_evaluate_big_D_on_coordinate_fields():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = {
        str(path.relative_to(PACKAGE)): list(big_D_on_coordinate_fields(path.read_text(encoding="utf-8")))
        for path in sources
    }
    leaks = {where: lines for where, lines in found.items() if lines and where != "identities.py"}
    assert not leaks, leaks
