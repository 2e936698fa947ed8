"""Linear algebra over the rational-function field.

pivot_columns, solve_columns and kernel_basis run one integer elimination
per call.  A solve appends every right-hand side to the rows as a column, so
one elimination of [m | b_1 ... b_k] solves every b_j; a kernel vector is
the solve against its own free column.  Every row is cleared of polynomial
denominators over all its entries, then scaled by the lcm of the integer
denominators of its entries (see poly.py), which changes no pivot and no
solution; its integer numerators, on their packed exponent keys (widened
once per matrix when the degree bound needs it), are polynomials with int
coefficients over Q or Gaussian ones over Q(i).  Bareiss elimination on them
makes every row update a product, a difference and an exact division.  The
pivot of each column of m is the first of the remaining rows whose entry is
a nonzero constant, else the first whose entry is nonzero.  A frame with an
identity block, as every graph and hierarchy frame has, thus takes constant
pivots, and its minors do not grow in degree.  No answer depends on the
choice, nor on the columns carried along: Bareiss on a row chosen per column
is Bareiss on a row-permuted matrix, so every division stays exact; the
pivot columns are the columns that are not combinations of earlier ones,
whatever the row order; a solve with its free entries 0 has one solution, a
canonical scalar vector; and a kernel vector with x_free = -1 is unique, and
made the one primitive polynomial multiple with fixed constants whatever
minor D ends the elimination.  So eliminations, kernels and solutions are
reproducible byte for byte.

Solutions are read by Cramer's rule without fractions: with D the last
pivot, an r x r minor, y = D x is polynomial and fills bottom-up with
products and exact divisions, in one back-substitution against a column j:
an appended right-hand side, or a free column f of m, whose solve x' gives
the kernel vector x' - e_f.  A solve takes each x_i = y_i / D as a scalar
once, by one trial division before any gcd; a kernel vector is y over D, or
over gcd(y) when D does not divide it.

Every sampled rank is decided first modulo one prime (see modp.py), at the
same sample points the exact evaluation would use.  An image of full rank
proves that rank over Q or Q(i); only a denominator whose image vanishes is
evaluated exactly, and only an image rank that falls short sends the point
to exact evaluation, so a sampled rank is the exact one.  The exact rank of a
point is read from pivot_columns too, on its values as constants: the package
has one exact elimination.  A generic rank is not a sampled rank: it reads
the image at sample point 0 alone, and the elimination decides whatever that
image does not prove, so no point is evaluated over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ..errors import PointEvaluationError
from . import modp
from .poly import (
    _FLOOR,
    Polynomial,
    _divide,
    _dot,
    _kernel_form,
    _make,
    _packing,
    _shape,
    divexact,
    poly_gcd,
    poly_lcm,
    poly_one,
    primitive_vector,
)
from .scalar import Chart, ScalarExpr


class FracMatrix:
    """A rows x cols grid of ScalarExpr on a common chart."""

    __slots__ = ("chart", "rows", "cols", "entries")

    def __init__(self, chart: Chart, entries):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged matrix")
        else:
            width = 0
        self.chart = chart
        self.rows = len(entries)
        self.cols = width
        self.entries = entries

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]


def _cleared_rows(m: FracMatrix, columns=()):
    """Denominator-free copies of the rows as Polynomial lists, each with its
    entry of every column appended: the numerators of a row over the lcm of
    its distinct denominators."""
    cleared = []
    for i, row in enumerate(m.entries):
        row += tuple(col[i] for col in columns)
        dens = []
        for v in row:
            if not v.den.is_one() and v.den not in dens:
                dens.append(v.den)
        if not dens:
            cleared.append([v.num for v in row])
            continue
        common = dens[0]
        for d in dens[1:]:
            common = poly_lcm(common, d)
        cleared.append([v.num * divexact(common, v.den) for v in row])
    return cleared


def _packed_rows(m: FracMatrix, columns=()):
    """(rows, pairs, guard, unpack): the cleared rows, each scaled by the lcm
    of its coefficient denominators, as packed polynomials (see poly.py)
    with int coefficients, or (re, im) ones with pairs over Q(i), and the
    map from a packed polynomial back to a Polynomial.

    Every entry of the elimination and of y is a minor of these rows, so its
    total degree is at most the sum of the row degrees, and a product of two
    at most twice that; the fields are sized for such a product.
    """
    cleared = _cleared_rows(m, columns)
    pairs = not all(p.is_real() for row in cleared for p in row)
    n = m.chart.dim
    degree = sum(max((_shape(p.nums, n)[0] for p in row), default=0) for row in cleared)
    w, _, guard = _packing(n, max(2 * degree, _FLOOR))
    rows = []
    for row in cleared:
        common = lcm(*[p.denom for p in row])
        rows.append([_kernel_form(p, w, pairs, common // p.denom) for p in row])
    return rows, pairs, guard, lambda p: _make(n, p, 1, w)


def _quotient(rem, divisor, guard, pairs):
    """rem / divisor for packed polynomials; every quotient of the
    elimination has integer coefficients."""
    q, scale = _divide(rem, divisor, guard, pairs)
    if scale != 1:
        raise ValueError("inexact polynomial division")
    return q


def _eliminate(rows, ncols, pairs, guard):
    """In-place fraction-free elimination of packed rows with pivots in the
    first ncols columns (later columns are updated with their rows); returns
    the pivot list [(row, col)].

    The pivot of a column is its first nonzero constant among the remaining
    rows, else its first nonzero entry."""
    nrows = len(rows)
    pivots = []
    prev = None
    pr = 0
    for pc in range(ncols):
        nonzero = [i for i in range(pr, nrows) if rows[i][pc]]
        if not nonzero:
            continue
        # a packed constant is one term at key 0
        pivot_row = next((i for i in nonzero if len(rows[i][pc]) == 1 and 0 in rows[i][pc]), nonzero[0])
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        top = rows[pr]
        piv = top[pc]
        # left of pc, the rows at and below pr are already zero
        for i in range(pr + 1, nrows):
            row = rows[i]
            head = row[pc]
            for j in range(pc, len(row)):
                val = _dot([(piv, row[j], 1), (head, top[j], -1)], pairs)
                row[j] = _quotient(val, prev, guard, pairs) if prev and val else val
        pivots.append((pr, pc))
        prev = piv
        pr += 1
        if pr == nrows:
            break
    return pivots


def _scaled_solution(rows, pivots, ncols, j, pairs, guard):
    """(y, D): D is the last pivot, an r x r minor, and y = D x for the
    solution x of the eliminated rows against their column j, with every
    free entry 0.

    By Cramer's rule every y_c is a minor, so y fills bottom-up with
    products and exact divisions only: y_pc = (D row[j] - sum_c row[c] y_c) / row[pc].
    """
    D = rows[pivots[-1][0]][pivots[-1][1]] if pivots else {0: (1, 0) if pairs else 1}
    y = [{}] * ncols
    for pr, pc in reversed(pivots):
        row = rows[pr]
        acc = _dot([(D, row[j], 1)] + [(row[c], y[c], -1) for c in range(pc + 1, ncols) if y[c] and row[c]], pairs)
        y[pc] = _quotient(acc, row[pc], guard, pairs) if acc else {}
    return y, D


def pivot_columns(m: FracMatrix) -> list:
    """The columns of m that are not combinations of earlier ones, in order,
    read from one fraction-free elimination."""
    rows, pairs, guard, _ = _packed_rows(m)
    return [pc for _, pc in _eliminate(rows, m.cols, pairs, guard)]


def _has_unit_rows(m: FracMatrix) -> bool:
    """Whether some m.cols rows of m are the unit rows e_1 ... e_cols, whose
    one nonzero entry is 1 over denominator 1: their minor is 1."""
    found = set()
    for row in m.entries:
        nonzero = [c for c, e in enumerate(row) if e.num.nums]
        if len(nonzero) == 1 and row[nonzero[0]].num.is_one() and row[nonzero[0]].den.is_one():
            found.add(nonzero[0])
    return len(found) == m.cols


def generic_rank(m: FracMatrix) -> int:
    """Rank over the function field.

    Unit rows e_1 ... e_cols prove the rank m.cols, whatever the other
    entries.  Otherwise the generic rank is at least the rank of the image
    at a pole-free sample point and at most min(rows, cols), so an image of
    rank min(rows, cols) proves it, as in span equality; a shorter image, a
    sample point with no pole-free retry or a coefficient without image goes
    to the elimination.  No point is evaluated over Q.
    """
    if _has_unit_rows(m):
        return m.cols
    full = min(m.rows, m.cols)
    values = image_at_sample(m)
    if values is not None and modp.rank(values) == full:
        return full
    return len(pivot_columns(m))


def _primitive(y, d):
    """y / d when d divides every entry, else y / gcd(y); d is itself an
    entry of y, so the running gcd starts from it."""
    try:
        return [p if p.is_zero() else divexact(p, d) for p in y]
    except ValueError:
        pass
    g = d
    for p in y:
        if not p.is_zero():
            g = poly_gcd(g, p)
            if g.is_one():
                return y
    return [p if p.is_zero() else divexact(p, g) for p in y]


def _ratio(chart: Chart, y: Polynomial, d: Polynomial) -> ScalarExpr:
    """The scalar y/d, by one trial division before the gcd."""
    if y.is_zero():
        return chart.zero()
    try:
        return ScalarExpr._make(chart, divexact(y, d), poly_one(chart.dim))
    except ValueError:
        return ScalarExpr(chart, y, d)


def kernel_basis(m: FracMatrix):
    """Basis of the right kernel over the function field, one vector per free
    column f: y = D (x' - e_f) for the solve x' of m x' = m e_f, divided by D
    when D divides every entry and by gcd(y) otherwise, then scaled by the
    constant of primitive_vector: integer coefficient parts with gcd 1 and a
    positive leading coefficient in the first nonzero entry."""
    rows, pairs, guard, unpack = _packed_rows(m)
    pivots = _eliminate(rows, m.cols, pairs, guard)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        y, D = _scaled_solution(rows, pivots, m.cols, free, pairs, guard)
        y = [unpack(v) for v in y]
        y[free] = -unpack(D)
        y = primitive_vector(_primitive(y, y[free]))
        basis.append([ScalarExpr(m.chart, p, poly_one(m.chart.dim)) for p in y])
    return basis


def solve_columns(m: FracMatrix, columns):
    """Per column b of columns, the solution of m x = b with its free entries
    0, or None when inconsistent, all from one fraction-free elimination of
    [m | columns]: x = y/D."""
    if any(len(b) != m.rows for b in columns):
        raise ValueError("rhs length mismatch")
    rows, pairs, guard, unpack = _packed_rows(m, columns)
    pivots = _eliminate(rows, m.cols, pairs, guard)
    out = []
    for j in range(m.cols, m.cols + len(columns)):
        # rows below the pivot rows are zero in the columns of m
        if any(row[j] for row in rows[len(pivots) :]):
            out.append(None)
            continue
        y, D = _scaled_solution(rows, pivots, m.cols, j, pairs, guard)
        d = unpack(D)
        out.append([_ratio(m.chart, unpack(v), d) for v in y])
    return out


def solve_linear(m: FracMatrix, rhs):
    """One particular solution of m x = rhs, or None when inconsistent: the
    one-column solve_columns, with free variables set to zero."""
    return solve_columns(m, [list(rhs)])[0]


# -- sample points -------------------------------------------------------------


def sample_point(chart: Chart, s: int = 0, retry: int = 0):
    """Deterministic rational sample point: (1, 2, ...) shifted by sample and retry."""
    return [Fraction(k + 1 + s + 7 * retry) for k in range(chart.dim)]


MAX_POINT_RETRIES = 20


def _exact_values(m: FracMatrix, point):
    """The entries' values at point; raises PointEvaluationError at a pole."""
    # a sample point is already in every chart's coefficient field
    return [[e._eval(point) for e in row] for row in m.entries]


def _pole(s: ScalarExpr, point) -> bool:
    """Whether the denominator of s vanishes at point, evaluated exactly."""
    return not s.den.eval(point)


def image_at_sample(m: FracMatrix, s: int = 0):
    """The entries mod P at the first retry of sample point s where no
    denominator image vanishes; None when there is none, or when a
    coefficient has no image."""
    image = modp.matrix_image(m)
    if image is None:
        return None
    for retry in range(MAX_POINT_RETRIES + 1):
        values = image.at(sample_point(m.chart, s, retry))
        if values is not None and None not in (v for row in values for v in row):
            return values
    return None


def _rank_at(m: FracMatrix, image, s: int):
    """The rank at the first pole-free retry of sample point s, or None when
    every retry is a pole."""
    for retry in range(MAX_POINT_RETRIES + 1):
        point = sample_point(m.chart, s, retry)
        values = None if image is None else image.at(point)
        if values is not None:
            # a denominator with a nonzero image is nonzero
            lost = [
                e
                for row, images in zip(m.entries, values)
                if None in images
                for e, v in zip(row, images)
                if v is None
            ]
            if any(_pole(e, point) for e in lost):
                continue
            full = min(m.rows, m.cols)
            if not lost and modp.rank(values) == full:
                return full
        try:
            values = _exact_values(m, point)
        except PointEvaluationError:  # only a matrix without image gets here
            continue
        # the values as constants over denominator 1, canonical as made
        n, one = m.chart.dim, poly_one(m.chart.dim)
        consts = [[ScalarExpr._make(m.chart, Polynomial.const(n, v), one) for v in row] for row in values]
        return len(pivot_columns(FracMatrix(m.chart, consts)))
    return None


def rank_at_samples(m: FracMatrix, samples: int = 3):
    """Max rank observed over the deterministic sample points, read in order
    up to the first of rank min(rows, cols); None as soon as a point read
    has no valid retry.

    The max cannot rise above min(rows, cols), and a point of that rank
    proves it the generic rank, so the points after it are not read: a later
    point with no valid retry no longer turns a full rank into None.

    Each retry of a sample point is tried mod P first.  The denominators
    whose image vanishes there are evaluated exactly, and an exact zero makes
    the retry a pole.  At the first pole-free retry an image rank of
    min(rows, cols) proves that rank; a shorter image rank or an entry
    without image sends that retry to exact evaluation.  A matrix with a
    coefficient without image is evaluated exactly at every retry.  A matrix
    over denominator 1 with unit rows e_1 ... e_cols has no pole: no point is read.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if _has_unit_rows(m) and all(e.den.is_one() for row in m.entries for e in row):
        return m.cols
    image = modp.matrix_image(m)
    full = min(m.rows, m.cols)
    best = 0
    for s in range(samples):
        rank = _rank_at(m, image, s)
        if rank is None:
            return None
        best = max(best, rank)
        if best == full:
            break
    return best
