"""Ranks of matrices with unit rows, read off the rows.

A matrix whose rows include the unit rows e_1 ... e_cols, wherever they
stand, has the minor 1 and so full column rank: `generic_rank` returns
m.cols without an image or an elimination, and `rank_at_samples` does the
same when every entry has denominator 1, since such a matrix has no pole.
Both agree with the exact oracles of the sample-image module at the
package's prime and with the prime forced to 5, also for rational extra
rows, which take the general path, and for a row with a pole at every retry,
whose sampled rank is None.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dngeo.symbolic import FracMatrix, ScalarExpr, generic_rank, rank_at_samples
from dngeo.symbolic import linalg, modp
from dngeo.symbolic.poly import poly_one

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


def test_a_matrix_short_of_one_unit_row_is_not_read_off_its_rows():
    ch = CHARTS[0]
    x = ch.var("x")
    # e_1 and 2 e_2 are not both unit rows, and neither is a row with two
    # nonzero entries, so the image decides
    for rows in ([[ch.one(), ch.zero()], [ch.zero(), ch.const(2)]], [[ch.one(), x], [ch.zero(), ch.one()]]):
        m = FracMatrix(ch, rows)
        assert not linalg._has_unit_rows(m)
        assert generic_rank(m) == 2 == rank_at_samples(m, 1)
    assert linalg._has_unit_rows(FracMatrix(ch, [[x, ch.one()], [ch.one(), ch.zero()], [ch.zero(), ch.one()]]))
