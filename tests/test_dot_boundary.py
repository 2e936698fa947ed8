"""Sums of products of scalars go through `symbolic.scalar.dot`, which fuses
the products of polynomials into one integer dict: no module under
src/dngeo apart from symbolic/scalar.py folds a generator of products with
`sum(..., <chart>.zero())`, or onto a name such as `z = chart.zero()`, and
none folds products onto a name that starts at `<chart>.zero()` by
reassignment (`acc = acc + a * b`, `acc = acc - a * b`, `acc += a * b`)."""

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


def _is_zero_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "zero" and not node.args


def reassigned_products(source):
    """Line numbers where a product is added to or subtracted from a name
    that the same function binds to <x>.zero(), by `x = x +/- ...` or
    `x +=/-= ...`."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        zeros = {
            node.targets[0].id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_zero_call(node.value)
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign):
                name, op, added = node.target, node.op, node.value
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.value, ast.BinOp):
                name, op, added = node.targets[0], node.value.op, node.value.right
                left = node.value.left
                if not (isinstance(left, ast.Name) and isinstance(name, ast.Name) and left.id == name.id):
                    continue
            else:
                continue
            if isinstance(name, ast.Name) and name.id in zeros and isinstance(op, (ast.Add, ast.Sub)) and _has_product(added):
                lines.add(node.lineno)
    return sorted(lines)


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


def test_the_reassignment_guard_sees_the_pattern():
    code = (
        "def f(chart, pairs):\n"
        "    acc = chart.zero()\n"
        "    for a, b in pairs:\n"
        "        acc = acc + a * b\n"
        "        acc = acc - a * b * a\n"
        "        acc += a * b\n"
        "        acc -= (a + b) * b\n"
        "    return acc\n"
    )
    assert reassigned_products(code) == [4, 5, 6, 7]
    clean = (
        "def f(chart, pairs, xs):\n"
        "    acc = chart.zero()\n"
        "    total = 0\n"
        "    for a, b in pairs:\n"
        "        acc = acc + a\n"
        "        acc = b * a + acc\n"
        "        total += a * b\n"
        "        acc = a * b\n"
        "        xs[0] = xs[0] + a * b\n"
        "    return acc\n"
    )
    assert reassigned_products(clean) == []


def test_only_scalar_py_folds_products_onto_a_zero_scalar():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = {
        str(path.relative_to(PACKAGE)): list(folded_products(path.read_text(encoding="utf-8")))
        for path in sources
    }
    leaks = {where: lines for where, lines in found.items() if lines and where != "symbolic/scalar.py"}
    assert not leaks, leaks


def test_no_module_folds_products_onto_a_zero_by_reassignment():
    found = {
        str(path.relative_to(PACKAGE)): reassigned_products(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    leaks = {where: lines for where, lines in found.items() if lines and where != "symbolic/scalar.py"}
    assert not leaks, leaks
