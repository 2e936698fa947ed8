"""The block solve against the definitions it must meet.

solve_columns eliminates [m | b_1 ... b_k] once and reads every column from
that one elimination; kernel_basis reads each kernel vector as the solve
against its own free column.  Neither is compared with another algorithm
here: each answer is checked against what it must be.  A solution x of a
column b satisfies m x = b exactly, with 0 in every free column of m, and
equals the one-column solve_linear of b; a column has no solution exactly
when [m | b] has more pivot columns than m; a kernel vector v satisfies
m v = 0 and is primitive: polynomial entries without a common factor,
integer coefficients with gcd 1, and a positive integer leading coefficient
in its first nonzero entry.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from dngeo.symbolic import FracMatrix, GaussianRational, kernel_basis, pivot_columns, solve_columns, solve_linear
from dngeo.symbolic.poly import poly_gcd
from test_integer_elimination import CHARTS, SETTINGS, scalars


@st.composite
def blocks(draw):
    """(m, columns): a matrix of full or deficient rank, now and then with a
    zero column, and one to three right-hand sides, each a member (m times a
    vector of scalars with denominators of their own), the zero column, or
    drawn at random, which is mostly not a member."""
    chart = draw(st.sampled_from(CHARTS))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid = [[draw(scalars(chart)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        f = draw(scalars(chart))
        grid[-1] = [a + f * b for a, b in zip(grid[0], grid[1 % (rows - 1)])]
    if draw(st.integers(0, 3)) == 0:
        c = draw(st.integers(0, cols - 1))
        for row in grid:
            row[c] = chart.zero()
    columns = []
    for kind in draw(st.lists(st.sampled_from(("member", "zero", "random")), min_size=1, max_size=3)):
        if kind == "member":
            x = [draw(scalars(chart)) for _ in range(cols)]
            columns.append([sum((a * b for a, b in zip(row, x)), chart.zero()) for row in grid])
        elif kind == "zero":
            columns.append([chart.zero()] * rows)
        else:
            columns.append([draw(scalars(chart)) for _ in range(rows)])
    return FracMatrix(chart, grid), columns


def product(m, x):
    return [sum((a * b for a, b in zip(row, x)), m.chart.zero()) for row in m.entries]


def coefficient_parts(p):
    for c in p.terms.values():
        yield from (c.re, c.im) if isinstance(c, GaussianRational) else (c,)


def assert_primitive(v):
    polys = [e.num for e in v]
    assert all(e.den.is_one() for e in v)
    nonzero = [p for p in polys if not p.is_zero()]
    g = nonzero[0]
    for p in nonzero[1:]:
        g = poly_gcd(g, p)
    assert g.is_constant()
    parts = [c for p in nonzero for c in coefficient_parts(p)]
    assert all(isinstance(c, Fraction) and c.denominator == 1 for c in parts)
    assert gcd(*[int(c) for c in parts]) == 1
    lead = nonzero[0].terms[max(nonzero[0].terms, key=lambda e: (sum(e), e))]
    assert isinstance(lead, Fraction) and lead > 0


def test_every_column_and_kernel_vector_meets_its_definition():
    seen = set()

    @SETTINGS
    @given(blocks())
    def check(block):
        m, columns = block
        pivots = pivot_columns(m)
        free = [c for c in range(m.cols) if c not in pivots]
        solved = solve_columns(m, columns)
        assert len(solved) == len(columns)
        for b, x in zip(columns, solved):
            augmented = FracMatrix(m.chart, [row + (e,) for row, e in zip(m.entries, b)])
            assert (x is None) is (len(pivot_columns(augmented)) > len(pivots))
            assert x == solve_linear(m, b)
            seen.add("non-member" if x is None else "member")
            if x is not None:
                assert product(m, x) == b
                assert all(x[c].is_zero() for c in free)
            if all(e.is_zero() for e in b):
                seen.add("zero column")
            if any(not e.den.is_one() for e in b):
                seen.add("rhs denominator")
        kernel = kernel_basis(m)
        assert len(kernel) == len(free)
        for v in kernel:
            assert all(e.is_zero() for e in product(m, v))
            assert_primitive(v)
        seen.add("deficient" if len(pivots) < min(m.rows, m.cols) else "full")
        seen.add(m.chart.mode)
        if len(columns) > 1:
            seen.add("several columns")

    check()
    assert seen == {
        "member", "non-member", "zero column", "rhs denominator", "deficient", "full", "real", "complex",
        "several columns",
    }
