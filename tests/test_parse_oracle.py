"""The parser against ScalarExpr arithmetic.

Random expression trees over real and complex charts are printed with full
parentheses and parsed.  The parser evaluates them as Polynomials up to a
division by a non-constant; the oracle builds the same tree by plain
ScalarExpr arithmetic, which takes a gcd at every step.  Both must give the
same canonical scalar, and the same error for a division by zero."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dngeo.errors import ExprSyntaxError, ZeroDenominatorError
from dngeo.symbolic import Chart, parse_scalar, to_str

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

CHARTS = [Chart("R2", ("x", "y")), Chart("C2", ("z", "w"), "complex"), Chart("R3", ("x1", "x2", "x_3"))]


def leaves(chart):
    names = list(chart.variables) + (["i"] if chart.mode == "complex" else [])
    return st.one_of(st.integers(0, 12), st.sampled_from(names))


def trees(chart):
    """Leaves are ints and names; nodes are (op, a, b) for the binary
    operators, ("-", a) for negation and ("^", a, k)."""
    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), sub, sub),
            st.tuples(st.just("-"), sub),
            st.tuples(st.just("^"), sub, st.integers(0, 3)),
        )

    return st.recursive(leaves(chart), extend, max_leaves=8)


def text(tree) -> str:
    if not isinstance(tree, tuple):
        return str(tree)
    if len(tree) == 2:
        return f"-({text(tree[1])})"
    op, a, b = tree
    if op == "^":
        return f"({text(a)})^{b}"
    return f"({text(a)}) {op} ({text(b)})"


def oracle(tree, chart, seen):
    """The tree by ScalarExpr arithmetic; records the kinds of division."""
    if isinstance(tree, int):
        return chart.const(tree)
    if isinstance(tree, str):
        return chart.imag_unit() if tree == "i" and chart.mode == "complex" else chart.var(tree)
    if len(tree) == 2:
        return -oracle(tree[1], chart, seen)
    op, a, b = tree
    a = oracle(a, chart, seen)
    if op == "^":
        return a ** b
    b = oracle(b, chart, seen)
    if op == "/":
        if b.is_zero():
            seen.add("by zero")
            raise ZeroDenominatorError("division by zero")
        seen.add("by a constant" if b.den.is_one() and b.num.is_constant() else "by a non-constant")
        return a / b
    return a + b if op == "+" else a - b if op == "-" else a * b


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
def test_printed_trees_parse_to_the_scalar_of_their_arithmetic(chart):
    seen = set()

    @SETTINGS
    @given(trees(chart))
    def check(tree):
        source = text(tree)
        try:
            want = oracle(tree, chart, seen)
        except ZeroDenominatorError:
            with pytest.raises(ExprSyntaxError, match="division by the zero polynomial"):
                parse_scalar(source, chart)
            return
        got = parse_scalar(source, chart)
        assert got == want, source
        assert to_str(got) == to_str(want)
        assert parse_scalar(to_str(got), chart) == got
        seen.add("complex" if not (got.num.is_real() and got.den.is_real()) else "real")

    check()
    kinds = {"by zero", "by a constant", "by a non-constant", "real"}
    assert seen >= kinds | ({"complex"} if chart.mode == "complex" else set())


@pytest.mark.parametrize(
    "source, col",
    [("1/(x-x)", 2), ("x + y/(2*x - x - x)", 6), ("(x/y)/(y - y)", 6), ("1/0", 2)],
)
def test_a_division_by_zero_names_the_slash(source, col):
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(source, CHARTS[0])
    assert err.value.bare_message == "division by the zero polynomial"
    assert (err.value.pos, err.value.col) == (col - 1, col)


@pytest.mark.parametrize("source, col", [("x^²", 3), ("x^٣", 3), ("1 2 x^²", 7), ("٣*x", 1), ("xé", 2)])
def test_only_ascii_digits_and_letters_are_read(source, col):
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar(source, CHARTS[0])
    assert err.value.bare_message.startswith("unexpected character")
    assert err.value.col == col
