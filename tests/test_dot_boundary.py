"""Sums of products of scalars go through `symbolic.scalar.dot`, which fuses
the products of polynomials into one integer dict: no module under
src/dngeo apart from symbolic/scalar.py folds a generator of products with
`sum(..., <chart>.zero())`, or onto a name such as `z = chart.zero()`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dngeo"


def _has_product(node):
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(node))


def folded_products(source):
    """Line numbers of each sum(<generator of products>, start) call whose
    start is <x>.zero() or a name."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"):
            continue
        if len(node.args) != 2 or not isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp)):
            continue
        start = node.args[1]
        zero = isinstance(start, ast.Call) and isinstance(start.func, ast.Attribute) and start.func.attr == "zero"
        if (zero and not start.args or isinstance(start, ast.Name)) and _has_product(node.args[0].elt):
            yield node.lineno


def test_the_guard_sees_the_pattern():
    code = (
        "sum((a * b for a, b in pairs), chart.zero())\n"
        "sum((g[i] * x[i] - h[i] * y[i] for i in ix), self.chart.zero())\n"
        "sum([a * b for a, b in pairs], big.zero())\n"
        "sum((a * b for a, b in pairs), z)\n"
    )
    assert list(folded_products(code)) == [1, 2, 3, 4]
    clean = (
        "sum((x.scale(c) for x, c in pairs), zero)\n"
        "sum((a + b for a, b in pairs), chart.zero())\n"
        "sum((a * b for a, b in pairs), PForm.zero(chart, 1))\n"
        "sum(a * b for a, b in pairs)\n"
        "sum((a * b for a, b in pairs), 0)\n"
    )
    assert not list(folded_products(clean))


def test_only_scalar_py_folds_products_onto_a_zero_scalar():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = {
        str(path.relative_to(PACKAGE)): list(folded_products(path.read_text(encoding="utf-8")))
        for path in sources
    }
    leaks = {where: lines for where, lines in found.items() if lines and where != "symbolic/scalar.py"}
    assert not leaks, leaks
