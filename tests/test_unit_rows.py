"""Ranks, solves and kernels of matrices with single-entry rows, read off
the rows.

A matrix whose rows include the unit rows e_1 ... e_cols, wherever they
stand, has the minor 1 and so full column rank: `generic_rank` returns
m.cols without an image or an elimination, and `rank_at_samples` does the
same when every entry has denominator 1, since such a matrix has no pole.
Both agree with the exact oracles of the sample-image module at the
package's prime and with the prime forced to 5, also for rational extra
rows, which take the general path, and for a row with a pole at every retry,
whose sampled rank is None.

More generally a row whose one nonzero entry lies in column c pins x_c, and
a matrix with such a row for every column has a nonzero diagonal minor:
`generic_rank` is m.cols, `kernel_basis` is empty, and `solve_columns` reads
x_c = b[r_c] / m[r_c][c] and checks the other rows.  The single entries are
drawn as 1, other constants, polynomials and rational functions over Q and
Q(i), with duplicate single rows for a column and extra polynomial and
rational rows, in shuffled positions; the right-hand sides are members m c,
the zero column and drawn columns, mostly non-members.  At both primes the
solve equals, byte for byte, the answer of the elimination reached directly
through _packed_rows, _eliminate and _scaled_solution, meets the definitions
of the block solve (m x = b, and None exactly when [m | b] has more pivot
columns than m), and equals the one-column solve_linear; no image is read and
nothing is eliminated.  The frame solves of `dngeo algebroid` on S_1 and of
`dngeo traces` on a Poisson graph eliminate nothing either, and their
reports match the goldens.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dngeo.symbolic import (
    FracMatrix,
    GaussianRational,
    ScalarExpr,
    generic_rank,
    kernel_basis,
    pivot_columns,
    rank_at_samples,
    solve_columns,
    solve_linear,
    to_str,
)
from dngeo.symbolic import linalg, modp
from dngeo.symbolic.poly import poly_one

from test_block_solve import product
from test_golden import CASES, GOLDEN, run
from test_sample_images import (
    CHARTS,
    PRIMES,
    SETTINGS,
    entries,
    exact_generic_rank,
    exact_rank_at_samples,
    pole,
    polys,
    prime,
)


def unit_row(chart, cols, c):
    return [chart.one() if k == c else chart.zero() for k in range(cols)]


@st.composite
def unit_row_matrices(draw):
    """The unit rows e_1 ... e_cols among polynomial or rational extra rows,
    in shuffled positions; each rational row has an entry with a pole at the
    first retry or at every retry."""
    chart = draw(st.sampled_from(CHARTS))
    cols = draw(st.integers(1, 3))
    rational = draw(st.booleans())
    extra = []
    for _ in range(draw(st.integers(int(rational), 3))):
        if rational:
            row = [draw(entries(chart)) for _ in range(cols)]
            row[draw(st.integers(0, cols - 1))] *= pole(chart, draw(st.sampled_from(("first", "every"))))
        else:
            row = [ScalarExpr(chart, draw(polys(chart)), poly_one(chart.dim)) for _ in range(cols)]
        extra.append(row)
    rows = [unit_row(chart, cols, c) for c in range(cols)] + extra
    return FracMatrix(chart, draw(st.permutations(rows)))


def kind(m):
    """How the matrix is read: polynomial or not, and the field of its
    coefficients."""
    scalars = [e for row in m.entries for e in row]
    polynomial = all(e.den.is_one() for e in scalars)
    if not polynomial and exact_rank_at_samples(m, 1) is None:
        shape = "pole at every retry"
    else:
        shape = "polynomial" if polynomial else "rational"
    field = "Q" if all(e.num.is_real() and e.den.is_real() for e in scalars) else "Q(i)"
    return shape, field


def test_unit_rows_give_the_exact_ranks(monkeypatch):
    images, eliminations, seen = [], [], set()
    image, eliminate = modp.matrix_image, linalg.pivot_columns
    monkeypatch.setattr(modp, "matrix_image", lambda m: images.append(m) or image(m))
    monkeypatch.setattr(linalg, "pivot_columns", lambda m: eliminations.append(m) or eliminate(m))
    ch = CHARTS[0]

    @settings(SETTINGS, max_examples=150)
    @given(unit_row_matrices())
    @example(FracMatrix(ch, [[pole(ch, "every")], [ch.one()]]))
    def check(m):
        shape, field = kind(m)
        for name in sorted(PRIMES):
            with prime(name):
                images.clear()
                eliminations.clear()
                assert generic_rank(m) == m.cols == exact_generic_rank(m)
                for samples in (1, 3):
                    assert rank_at_samples(m, samples) == exact_rank_at_samples(m, samples)
                # the rows decide the generic rank, and the sampled rank of a
                # matrix without pole: no image is taken, nothing eliminated
                assert m not in eliminations
                assert (m in images) is (shape != "polynomial")
        seen.add((shape, field))

    check()
    assert seen == {(shape, field) for shape in ("polynomial", "rational", "pole at every retry") for field in ("Q", "Q(i)")}


def test_a_matrix_short_of_one_unit_row_is_not_read_off_its_rows(monkeypatch):
    images = []
    image = modp.matrix_image
    monkeypatch.setattr(modp, "matrix_image", lambda m: images.append(m) or image(m))
    ch = CHARTS[0]
    x = ch.var("x")
    # e_1 and 2 e_2 are single rows but not both unit rows: they decide the
    # generic rank, while the sampled rank takes the image
    scaled = FracMatrix(ch, [[ch.one(), ch.zero()], [ch.zero(), ch.const(2)]])
    assert linalg._single_rows(scaled) == {0: 0, 1: 1}
    assert generic_rank(scaled) == 2 and images == []
    assert rank_at_samples(scaled, 1) == 2 and images == [scaled]
    # a row with two nonzero entries is no single row, so the image decides both
    images.clear()
    sheared = FracMatrix(ch, [[ch.one(), x], [ch.zero(), ch.one()]])
    assert linalg._single_rows(sheared) is None
    assert generic_rank(sheared) == 2 == rank_at_samples(sheared, 1) and images == [sheared, sheared]
    # a unit row is taken over an earlier single row of its column
    rows = [[x, ch.zero()], [x, ch.one()], [ch.one(), ch.zero()], [ch.zero(), ch.one()]]
    assert linalg._single_rows(FracMatrix(ch, rows)) == {0: 2, 1: 3}


# -- solves and kernels ------------------------------------------------------------


def nonzero_polys(chart):
    return polys(chart).filter(lambda p: not p.is_zero())


@st.composite
def single_entries(draw, chart):
    """(kind, a nonzero scalar): 1, another constant, a polynomial or a
    rational function."""
    label = draw(st.sampled_from(("one", "constant", "polynomial", "rational")))
    if label == "one":
        return label, chart.one()
    if label == "constant":
        gaussian = (GaussianRational(1, -2),) if chart.mode == "complex" else ()
        return label, chart.const(draw(st.sampled_from((2, -1, Fraction(3, 5)) + gaussian)))
    p = draw(nonzero_polys(chart).filter(lambda p: not p.is_constant()))
    den = poly_one(chart.dim) if label == "polynomial" else draw(nonzero_polys(chart))
    return label, ScalarExpr(chart, p, den)


@st.composite
def single_row_systems(draw):
    """(m, columns, seen): a single-entry row for every column, some columns
    with a second one, among polynomial or rational extra rows, in shuffled
    positions; and one to three right-hand sides, each a member m c, the
    zero column, or drawn at random."""
    chart = draw(st.sampled_from(CHARTS))
    cols = draw(st.integers(1, 3))
    seen = set()
    rows = []
    for c in range(cols):
        copies = draw(st.integers(1, 2))
        seen.add("duplicate" if copies == 2 else "single")
        for _ in range(copies):
            label, e = draw(single_entries(chart))
            rows.append([e if k == c else chart.zero() for k in range(cols)])
            seen.add(label)
    for _ in range(draw(st.integers(0, 2))):
        rational = draw(st.booleans())
        one = poly_one(chart.dim)
        row = [draw(entries(chart)) if rational else ScalarExpr(chart, draw(polys(chart)), one) for _ in range(cols)]
        rows.append(row)
        seen.add("rational extra" if rational else "polynomial extra")
    m = FracMatrix(chart, draw(st.permutations(rows)))
    columns = []
    for rhs in draw(st.lists(st.sampled_from(("member", "zero", "random")), min_size=1, max_size=3)):
        if rhs == "member":
            columns.append(product(m, [draw(entries(chart)) for _ in range(cols)]))
        elif rhs == "zero":
            columns.append([chart.zero()] * m.rows)
        else:
            columns.append([draw(entries(chart)) for _ in range(m.rows)])
    return m, columns, seen


def eliminated(m, columns):
    """The answer of solve_columns past its single rows: one elimination of
    [m | columns]."""
    rows, pairs, guard, unpack = linalg._packed_rows(m, columns)
    pivots = linalg._eliminate(rows, m.cols, pairs, guard)
    out = []
    for j in range(m.cols, m.cols + len(columns)):
        if any(row[j] for row in rows[len(pivots) :]):
            out.append(None)
            continue
        y, D = linalg._scaled_solution(rows, pivots, m.cols, j, pairs, guard)
        out.append([linalg._ratio(m.chart, unpack(v), unpack(D)) for v in y])
    return out


def text(x):
    return None if x is None else [to_str(e) for e in x]


def test_single_rows_give_the_eliminations_solves_and_kernels(monkeypatch):
    images, eliminations, seen = [], [], set()
    image, eliminate = modp.matrix_image, linalg._eliminate
    monkeypatch.setattr(modp, "matrix_image", lambda m: images.append(m) or image(m))
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: eliminations.append(a) or eliminate(*a))

    @settings(SETTINGS, max_examples=150)
    @given(single_row_systems())
    def check(system):
        m, columns, labels = system
        for name in sorted(PRIMES):
            with prime(name):
                images.clear()
                eliminations.clear()
                assert linalg._single_rows(m) is not None
                assert generic_rank(m) == m.cols and kernel_basis(m) == []
                solved = solve_columns(m, columns)
                assert [solve_linear(m, b) for b in columns] == solved
                assert images == [] and eliminations == []
                expected = eliminated(m, columns)
                assert solved == expected and [text(x) for x in solved] == [text(x) for x in expected]
                assert pivot_columns(m) == list(range(m.cols))
                for b, x in zip(columns, solved):
                    augmented = FracMatrix(m.chart, [row + (e,) for row, e in zip(m.entries, b)])
                    assert (x is None) is (len(pivot_columns(augmented)) > m.cols)
                    assert x is None or product(m, x) == b
                    seen.add("non-member" if x is None else "zero column" if not any(b) else "member")
        seen.update(labels)
        seen.add(kind(m)[1])

    check()
    assert seen == {
        "one", "constant", "polynomial", "rational", "single", "duplicate",
        "polynomial extra", "rational extra", "member", "zero column", "non-member", "Q", "Q(i)",
    }


@pytest.mark.parametrize("name", ["algebroid_s1", "traces_jmax_4"])
def test_graph_frame_solves_eliminate_nothing(name, monkeypatch):
    # the structure functions and the transport of S_1, and the null
    # distribution and hamiltonian representatives of a Poisson graph, are
    # read off the identity block of their frames, with unchanged reports
    eliminations = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: eliminations.append(a) or eliminate(*a))
    argv, code = CASES[name]
    assert run(argv) == ((GOLDEN / f"{name}.out").read_text(), code)
    assert eliminations == []
