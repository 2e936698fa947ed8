"""The integer elimination behind pivot_columns, solve_linear and kernel_basis
against the Polynomial / ScalarExpr elimination it replaced.

The oracles below are the old path, kept only here: fraction-free Bareiss
on the Polynomial rows of _cleared_rows, then back-substitution that divides
ScalarExprs, and for kernels normalize_vector, which clears the entries'
denominators over their lcm and divides out the content gcd.  Pivots depend
only on which entries are zero, a solve with its free variables set to 0 has
one answer, and a kernel vector is fixed up to a scalar, so the two must
agree exactly: same pivots, structurally equal scalars with the same
coefficient types.  The oracle keeps the first-nonzero pivot rule, while the
elimination takes a nonzero constant first, so it is a second algorithm on
a row-permuted matrix as well.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dngeo.symbolic import (
    Chart,
    FracMatrix,
    GaussianRational,
    Polynomial,
    ScalarExpr,
    kernel_basis,
    parse_scalar,
    pivot_columns,
    solve_linear,
)
from dngeo.symbolic import linalg
from dngeo.tensor import Bivector, PForm
from dngeo.dirac import make_graph_poisson, make_graph_presymplectic
from dngeo.symbolic.linalg import _cleared_rows, _eliminate, _packed_rows, _quotient
from dngeo.symbolic.poly import _divide, _packing, divexact, poly_gcd, poly_lcm, poly_one

SETTINGS = settings(
    derandomize=True,
    max_examples=250,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the old elimination (oracles) ---------------------------------------------------


def bareiss_oracle(rows, ncols):
    nrows = len(rows)
    pivots = []
    prev = None
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for i in range(pr, nrows):
            if not rows[i][pc].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        piv = rows[pr][pc]
        for i in range(pr + 1, nrows):
            head = rows[i][pc]
            for j in range(pc, len(rows[i])):
                val = piv * rows[i][j] - head * rows[pr][j]
                if prev is not None and not val.is_zero():
                    val = divexact(val, prev)
                rows[i][j] = val
        pivots.append((pr, pc))
        prev = piv
        pr += 1
        if pr == nrows:
            break
    return pivots


def back_substitute_oracle(chart, rows, pivots, values):
    one = poly_one(chart.dim)
    for pr, pc in reversed(pivots):
        row = rows[pr]
        acc = ScalarExpr(chart, row[-1], one) if len(row) > len(values) else chart.zero()
        for c in range(pc + 1, len(values)):
            if values[c].is_zero() or row[c].is_zero():
                continue
            acc = acc - ScalarExpr(chart, row[c], one) * values[c]
        values[pc] = acc / ScalarExpr(chart, row[pc], one)
    return values


def normalize_vector(vec):
    """Denominator-cleared, content-reduced copy of a ScalarExpr vector: the
    first nonzero entry's leading coefficient is 1, every entry is a
    polynomial, and the integer content of all coefficients (both parts of a
    Gaussian rational) is 1."""
    chart = vec[0].chart
    if all(v.is_zero() for v in vec):
        return list(vec)
    dens = []
    for v in vec:
        if not v.den.is_one() and v.den not in dens:
            dens.append(v.den)
    polys = [v.num for v in vec]
    if dens:
        common = dens[0]
        for d in dens[1:]:
            common = poly_lcm(common, d)
        polys = [v.num * divexact(common, v.den) for v in vec]
    g = Polynomial.zero(chart.dim)
    for p in polys:
        if not p.is_zero():
            g = poly_gcd(g, p)
        if g.is_one():
            break
    if not g.is_one():
        polys = [p if p.is_zero() else divexact(p, g) for p in polys]
    lead = next(p for p in polys if not p.is_zero())
    _, lc = lead.leading()
    if lc != 1:
        inv = 1 / lc
        polys = [p.scale(inv) for p in polys]
    fracs = []
    for p in polys:
        for c in p.terms.values():
            fracs.extend((c.re, c.im) if isinstance(c, GaussianRational) else (c,))
    num_gcd = gcd(*[f.numerator for f in fracs])
    scale = Fraction(lcm(*[f.denominator for f in fracs]), num_gcd if num_gcd else 1)
    if scale != 1:
        polys = [p.scale(scale) for p in polys]
    return [ScalarExpr(chart, p, poly_one(chart.dim)) for p in polys]


def pivot_columns_oracle(m):
    return [pc for _, pc in bareiss_oracle(_cleared_rows(m), m.cols)]


def kernel_values_oracle(m):
    """The kernel vectors x before normalization, with x_free = 1."""
    chart = m.chart
    rows = _cleared_rows(m)
    pivots = bareiss_oracle(rows, m.cols)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        values = [chart.zero()] * m.cols
        values[free] = chart.one()
        basis.append(back_substitute_oracle(chart, rows, pivots, values))
    return basis


def solve_oracle(m, rhs):
    chart = m.chart
    rows = _cleared_rows(m, [list(rhs)])
    pivots = bareiss_oracle(rows, m.cols)
    if any(not row[-1].is_zero() for row in rows[len(pivots):]):
        return None
    values = [chart.zero()] * m.cols
    back_substitute_oracle(chart, rows, pivots, values)
    return values


# -- comparison ----------------------------------------------------------------------


def assert_same_poly(got, want):
    assert got == want, (got, want)
    for e, c in want.terms.items():
        assert type(got.terms[e]) is type(c), (e, got.terms[e], c)


def assert_same_vector(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.chart.compatible(b.chart)
        assert_same_poly(a.num, b.num)
        assert_same_poly(a.den, b.den)


def check_against_oracle(m, rhs):
    """Compares all three against the oracles; returns the oracle's kernel
    vectors before normalization and its solution."""
    assert pivot_columns(m) == pivot_columns_oracle(m)
    values = kernel_values_oracle(m)
    got, want = kernel_basis(m), [normalize_vector(x) for x in values]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_vector(a, b)
    got, want = solve_linear(m, rhs), solve_oracle(m, rhs)
    assert (got is None) is (want is None)
    if want is not None:
        assert_same_vector(got, want)
    return values, want


# -- generated matrices --------------------------------------------------------------

CHARTS = [
    Chart(f"{'C' if mode == 'complex' else 'R'}{n}", ("x", "y", "z", "w")[:n], mode)
    for n in range(1, 5)
    for mode in ("real", "complex")
]
# non-unit denominators, so rows need their integer scaling
FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3, 4)))


@st.composite
def polys(draw, chart, max_terms=3, max_deg=2):
    coeffs = FRACTIONS
    if chart.mode == "complex":
        coeffs = st.one_of(FRACTIONS, st.builds(GaussianRational, FRACTIONS, FRACTIONS))
    expos = draw(st.lists(st.tuples(*[st.integers(0, max_deg)] * chart.dim), max_size=max_terms, unique=True))
    terms = {e: chart.coeff(draw(coeffs)) for e in expos}
    return Polynomial(chart.dim, {e: c for e, c in terms.items() if c})


@st.composite
def scalars(draw, chart):
    # lower degrees on 3 and 4 variables keep the oracle's gcds small
    num = draw(polys(chart, max_deg=2 if chart.dim < 3 else 1))
    den = draw(polys(chart, 2, 1)) if draw(st.integers(0, 3)) == 0 else Polynomial.zero(chart.dim)
    return ScalarExpr(chart, num, den if den.terms else poly_one(chart.dim))


@st.composite
def systems(draw):
    """(m, rhs): tall, wide or square matrices with zero rows and columns now
    and then, some rank deficient; rhs consistent (m times a vector) or
    drawn at random, which is mostly inconsistent for a tall m."""
    chart = draw(st.sampled_from(CHARTS))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid = [[draw(scalars(chart)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        f = draw(scalars(chart))
        grid[-1] = [a + f * b for a, b in zip(grid[0], grid[1 % (rows - 1)])]
    if draw(st.integers(0, 3)) == 0:
        grid[draw(st.integers(0, rows - 1))] = [chart.zero()] * cols
    if draw(st.integers(0, 3)) == 0:
        c = draw(st.integers(0, cols - 1))
        for row in grid:
            row[c] = chart.zero()
    m = FracMatrix(chart, grid)
    if draw(st.booleans()):
        x = [draw(scalars(chart)) for _ in range(cols)]
        rhs = [sum((a * b for a, b in zip(row, x)), chart.zero()) for row in grid]
    else:
        rhs = [draw(scalars(chart)) for _ in range(rows)]
    return m, rhs


def parsed(chart, rows):
    return FracMatrix(chart, [[parse_scalar(e, chart) for e in row] for row in rows])


R2 = Chart("R2", ("x", "y"))
C2 = Chart("C2", ("x", "y"), "complex")
# one solution is the polynomial (x, 1); the other, (1/x, 0), is not
POLYNOMIAL_SOLUTION = (
    parsed(R2, [["x", "y"], ["1", "x"]]),
    [parse_scalar("x^2 + y", R2), parse_scalar("2*x", R2)],
)
RATIONAL_SOLUTION = (parsed(R2, [["x", "y"], ["1", "x"]]), [parse_scalar("1", R2), parse_scalar("1/x", R2)])

# rows over distinct polynomial denominators: the rows are cleared over an
# lcm, and the oracle's kernel vector has entries over distinct denominators
DISTINCT_DENOMINATORS = (
    parsed(R2, [["1/x", "1/y", "1/(x + y)"], ["x/(y + 1)", "1", "y/x"]]),
    [parse_scalar("1", R2), parse_scalar("x/(y + 1)", R2)],
)


# a constant below a nonconstant first entry of a column: the graph of a
# Poisson bivector (pi# dx_i over dx_i) over Q and over Q(i), a tall matrix
# with one constant in its middle row, and a rank-deficient square one
POISSON_GRAPH = (
    parsed(R2, [["0", "x*y + 1"], ["-x*y - 1", "0"], ["1", "0"], ["0", "1"]]),
    [parse_scalar("x^2*y + x", R2), parse_scalar("-x*y^2 - y", R2), parse_scalar("y", R2), parse_scalar("x", R2)],
)
GAUSSIAN_GRAPH = (
    parsed(C2, [["0", "i*x + y^2"], ["-i*x - y^2", "0"], ["1", "0"], ["0", "1"]]),
    [parse_scalar("1", C2), parse_scalar("x", C2), parse_scalar("i", C2), parse_scalar("y", C2)],
)
TALL_CONSTANT = (
    parsed(R2, [["x^2 + y", "x"], ["3", "y - 1"], ["x*y", "1/(x + 1)"]]),
    [parse_scalar("x", R2), parse_scalar("1", R2), parse_scalar("y", R2)],
)
DEFICIENT_CONSTANT = (parsed(R2, [["x", "x*y"], ["2", "2*y"]]), [parse_scalar("x", R2), parse_scalar("2", R2)])


def pivot_rows(eliminate, rows, ncols, *args):
    """The original index of each pivot row: an elimination swaps the row
    lists and leaves a pivot row in place once it is one."""
    order = list(rows)
    return [next(k for k, row in enumerate(order) if row is rows[pr]) for pr, _ in eliminate(rows, ncols, *args)]


def takes_a_constant_below(m):
    """Whether the constant-first rule picks a pivot row other than the
    first-nonzero rule of the oracle; the two agree up to the first column
    with a constant below its first nonzero entry, and differ there."""
    rows, pairs, guard, _ = _packed_rows(m)
    return pivot_rows(_eliminate, rows, m.cols, pairs, guard) != pivot_rows(bareiss_oracle, _cleared_rows(m), m.cols)


def solution_kind(x):
    if x is None:
        return "inconsistent"
    return "polynomial" if all(v.den.is_one() for v in x) else "rational"


def test_the_examples_cover_both_kinds_of_solution():
    assert solution_kind(solve_linear(*POLYNOMIAL_SOLUTION)) == "polynomial"
    assert [str(v) for v in solve_linear(*POLYNOMIAL_SOLUTION)] == ["x", "1"]
    assert solution_kind(solve_linear(*RATIONAL_SOLUTION)) == "rational"
    assert [str(v) for v in solve_linear(*RATIONAL_SOLUTION)] == ["(1)/(x)", "0"]


def test_the_elimination_matches_the_old_path():
    seen = set()

    @SETTINGS
    @given(systems())
    @example(POLYNOMIAL_SOLUTION)
    @example(RATIONAL_SOLUTION)
    @example(DISTINCT_DENOMINATORS)
    @example(POISSON_GRAPH)
    @example(GAUSSIAN_GRAPH)
    @example(TALL_CONSTANT)
    @example(DEFICIENT_CONSTANT)
    def check(system):
        m, rhs = system
        kernel, want = check_against_oracle(m, rhs)
        seen.add(solution_kind(want))
        # D divides y = D x exactly when every x_i is a polynomial
        seen.update("D divides y" if solution_kind(x) == "polynomial" else "gcd below D" for x in kernel)
        seen.add("square" if m.rows == m.cols else "tall" if m.rows > m.cols else "wide")
        seen.add("deficient" if len(pivot_columns(m)) < min(m.rows, m.cols) else "full")
        seen.update({m.chart.mode, m.chart.dim})
        if any(not e.den.is_one() for row in m.entries for e in row):
            seen.add("polynomial denominator")
        dens = [[e.den for e in row if not e.den.is_one()] for row in m.entries]
        if any(a != b for row in dens for a in row for b in row):
            seen.add("distinct denominators in a row")
        if any(all(e.is_zero() for e in row) for row in m.entries):
            seen.add("zero row")
        if any(all(row[c].is_zero() for row in m.entries) for c in range(m.cols)):
            seen.add("zero column")
        if takes_a_constant_below(m):
            seen.add("constant pivot below the first row")

    check()
    assert seen == {
        "inconsistent", "polynomial", "rational", "square", "tall", "wide", "deficient", "full",
        "real", "complex", 1, 2, 3, 4, "polynomial denominator", "zero row", "zero column",
        "D divides y", "gcd below D", "distinct denominators in a row", "constant pivot below the first row",
    }


# -- kernel edge cases -----------------------------------------------------------------


@pytest.mark.parametrize("pairs", [False, True], ids=["int", "pair"])
def test_an_inexact_packed_division_raises(pairs):
    w, weights, guard = _packing(1, 2)
    c = (lambda v: (v, 0)) if pairs else (lambda v: v)
    pack = lambda d: d * weights[0]
    # x^2 + 1 over x: the guard test fails on the constant term
    with pytest.raises(ValueError, match="inexact"):
        _divide({pack(2): c(1), pack(0): c(1)}, {pack(1): c(1)}, guard, pairs)
    # 2x over 4x is 1/2: exact over Q, but not a quotient of the elimination
    assert _divide({pack(1): c(2)}, {pack(1): c(4)}, guard, pairs) == ({0: c(1)}, 2)
    with pytest.raises(ValueError, match="inexact"):
        _quotient({pack(1): c(2)}, {pack(1): c(4)}, guard, pairs)


def test_kernel_vectors_run_no_lcm_and_no_gcd_where_d_divides_y(monkeypatch):
    calls = dict.fromkeys(("poly_gcd", "poly_lcm"), 0)
    for name in calls:

        def counted(*args, _name=name, _real=getattr(linalg, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counted)
    # D = x^2 divides no entry of y but itself; gcd(x^2, y^2) = 1 ends the gcd
    m = parsed(R2, [["x", "y", "0"], ["0", "x", "y"]])
    assert [[str(v) for v in vec] for vec in kernel_basis(m)] == [["y^2", "-x*y", "x^2"]]
    assert calls == {"poly_gcd": 1, "poly_lcm": 0}
    # D = x divides y = (-x*y, x)
    calls["poly_gcd"] = 0
    assert [[str(v) for v in vec] for vec in kernel_basis(parsed(R2, [["x", "x*y"]]))] == [["y", "-1"]]
    assert calls == {"poly_gcd": 0, "poly_lcm": 0}


def test_a_gaussian_pivot_of_norm_five():
    one_two_i = GaussianRational(1, 2)
    x, y = C2.var("x"), C2.var("y")
    a = C2.const(one_two_i) * x  # the first pivot, (1+2i) x
    m = FracMatrix(C2, [[a, C2.const(GaussianRational(1, -1))], [x * y, a * y + C2.one()], [C2.one(), x]])
    assert _packed_rows(m)[1]  # the rows are Gaussian pairs
    check_against_oracle(m, [C2.one(), y, x])
    rhs = [sum((e * v for e, v in zip(row, (y, C2.one()))), C2.zero()) for row in m.entries]
    assert [str(v) for v in solve_linear(m, rhs)] == ["y", "1"]
    # square and singular: a kernel vector through the Gaussian pivot
    sq = FracMatrix(C2, [[a, x * y], [x * a, x * x * y]])
    assert [[str(v) for v in vec] for vec in kernel_basis(sq)] == [["y", "(-1-2*i)"]]
    check_against_oracle(sq, [C2.one(), x])


def test_minors_outgrow_a_width_taken_from_one_entry():
    # every entry has degree 6, so a width sized for a product of two entries
    # holds exponents up to 15, while the 3 x 3 minor D has degree 17 and a
    # product of two minors more
    R1 = Chart("R1", ("x",))
    entries = [["x^6 + 1", "x^6 - x", "2*x^5"], ["x^6", "x^6 + x^3", "1"], ["x^4 + 3", "x^6 + 2", "x^6 - 1"]]
    m = parsed(R1, entries)
    rhs = [parse_scalar("x^6 + 5", R1), parse_scalar("x^2", R1), parse_scalar("1", R1)]
    check_against_oracle(m, rhs)
    rows = _cleared_rows(m, [rhs])
    pr, pc = bareiss_oracle(rows, 3)[-1]
    assert max(sum(e) for e in rows[pr][pc].terms) == 17 > (1 << _packing(1, 2 * 6)[0] - 1) - 1
    # the same on three variables, where a carry would land in a neighbouring
    # field; the known polynomial solution stands in for the oracle
    R3 = Chart("R3", ("x", "y", "z"))
    m3 = parsed(
        R3, [["x^6 + y", "z^6 - x", "2*y^5"], ["y^6", "x^6 + z^3", "1"], ["z^4 + 3", "y^6 + x", "x^6 - z"]]
    )
    x3 = [parse_scalar(t, R3) for t in ("x*y - 1", "z^2", "3")]
    rhs3 = [sum((e * v for e, v in zip(row, x3)), R3.zero()) for row in m3.entries]
    assert pivot_columns(m3) == [0, 1, 2]
    assert solve_linear(m3, rhs3) == x3


def test_zero_columns_and_the_zero_matrix():
    zero = R2.zero()
    no_cols = FracMatrix(R2, [[], []])
    assert pivot_columns(no_cols) == [] and kernel_basis(no_cols) == []
    assert solve_linear(no_cols, [zero, zero]) == []
    assert solve_linear(no_cols, [zero, R2.one()]) is None
    zeros = FracMatrix(R2, [[zero] * 3] * 2)
    assert pivot_columns(zeros) == []
    basis = [[str(v) for v in vec] for vec in kernel_basis(zeros)]
    assert basis == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert solve_linear(zeros, [zero, zero]) == [zero] * 3
    assert solve_linear(zeros, [R2.var("x"), zero]) is None
    for m, rhs in ((no_cols, [zero, R2.one()]), (zeros, [zero, zero]), (FracMatrix(R2, []), [])):
        check_against_oracle(m, rhs)


# -- the pivot rule ----------------------------------------------------------------------

R4 = Chart("R4", ("x", "y", "z", "w"))
C4 = Chart("C4", ("x", "y", "z", "w"), "complex")
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
ENTRIES = ("x*y + z", "y^2 - w", "x + z*w", "1 + x*w", "y*z - x", "w^2 + y")


def graph_frames(chart):
    """The 8 x 4 matrices of the graphs of a bivector and of a 2-form with
    quadratic entries; over Q(i) the entries carry a Gaussian coefficient."""
    shift = " + i*x" if chart.mode == "complex" else ""
    comps = {ij: parse_scalar(e + shift, chart) for ij, e in zip(PAIRS, ENTRIES)}
    return make_graph_poisson(Bivector(chart, comps)).matrix(), make_graph_presymplectic(PForm(chart, 2, comps)).matrix()


@pytest.mark.parametrize("chart", [R4, C4], ids=["real", "complex"])
def test_graph_frames_take_only_constant_pivots(chart):
    for m in graph_frames(chart):
        rows, pairs, guard, _ = _packed_rows(m)
        pivots = _eliminate(rows, m.cols, pairs, guard)
        assert [pc for _, pc in pivots] == [0, 1, 2, 3]
        # a pivot row is not updated once it is one
        assert all(len(rows[pr][pc]) == 1 and 0 in rows[pr][pc] for pr, pc in pivots)
    # the identity block of the graph of a bivector lies below its pi# rows,
    # where the first-nonzero rule takes polynomial pivots
    assert takes_a_constant_below(graph_frames(chart)[0])


def test_without_a_constant_the_pivot_rows_are_the_first_nonzero_ones():
    # homogeneous entries of degree 1 or 2: every minor is homogeneous of
    # positive degree, so no entry of the elimination is ever a constant;
    # the zeros make the first nonzero entry of a column lie below its top
    m = parsed(
        R2,
        [["0", "x", "y^2"], ["0", "x*y", "x"], ["x + y", "y", "0"], ["2*x", "x^2", "x - y"], ["y", "0", "x*y"]],
    )
    rows, pairs, guard, _ = _packed_rows(m)
    got = pivot_rows(_eliminate, rows, m.cols, pairs, guard)
    assert got == pivot_rows(bareiss_oracle, _cleared_rows(m), m.cols) == [2, 1, 0]
    check_against_oracle(m, [parse_scalar(e, R2) for e in ("x", "y", "1", "0", "x*y")])


def test_a_graph_solve_forms_few_term_products(monkeypatch):
    # the term products of the packed kernel; the first-nonzero rule takes
    # the pi# rows as pivots, whose minors grow in degree, and forms 20,991
    products, eliminations = [0], []

    def counted(terms, pairs, _real=linalg._dot):
        products[0] += sum(len(p) * len(q) for p, q, _ in terms)
        return _real(terms, pairs)

    monkeypatch.setattr(linalg, "_dot", counted)
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: eliminations.append(a) or _eliminate(*a))
    m = graph_frames(R4)[0]
    c = [parse_scalar(e, R4) for e in ("x", "y - 1", "z*w", "2")]
    rhs = [sum((a * b for a, b in zip(row, c)), R4.zero()) for row in m.entries]
    # the identity block pins every unknown: the solve eliminates nothing
    assert solve_linear(m, rhs) == c
    assert eliminations == [] and products[0] == 0
    # the elimination of the same system, reached past the single rows
    rows, pairs, guard, unpack = _packed_rows(m, [rhs])
    pivots = _eliminate(rows, m.cols, pairs, guard)
    y, D = linalg._scaled_solution(rows, pivots, m.cols, m.cols, pairs, guard)
    assert [linalg._ratio(R4, unpack(v), unpack(D)) for v in y] == c
    assert products[0] == 201
