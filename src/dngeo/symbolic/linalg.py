"""Linear algebra over the rational-function field.

Elimination is fraction-free in the Bareiss style: every row is first cleared
of denominators, after which all row updates are exact polynomial divisions.
The pivot of each column is the first nonzero entry found scanning the
remaining rows in order, so eliminations, kernels and solutions are
reproducible byte for byte.

Every sampled rank is decided first modulo one prime (see modp.py), at the
same sample point the exact evaluation would use.  An image of full rank
proves that rank over Q or Q(i); any other image falls back to evaluating
the point exactly, so a sampled rank is the exact one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ..errors import PointEvaluationError
from . import modp
from .gaussian import GaussianRational
from .poly import Polynomial, divexact, poly_gcd, poly_lcm, poly_one
from .scalar import Chart, ScalarExpr, same_chart


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


def _cleared_rows(m: FracMatrix, rhs=None):
    """Denominator-free copies of the rows as Polynomial lists, each with its
    rhs entry appended as a last column when rhs is given."""
    one = poly_one(m.chart.dim)
    rows = []
    for i in range(m.rows):
        entries = list(m.entries[i]) + ([rhs[i]] if rhs is not None else [])
        common = one
        for e in entries:
            if not e.den.is_one():
                common = poly_lcm(common, e.den)
        cleared = []
        for e in entries:
            if common.is_one():
                cleared.append(e.num)
            else:
                cleared.append(e.num * divexact(common, e.den))
        rows.append(cleared)
    return rows


def _bareiss(rows, ncols):
    """In-place fraction-free elimination with pivots in the first ncols
    columns (later columns are updated with their rows); returns the pivot
    list [(row, col)]."""
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
        # left of pc, the rows at and below pr are already zero
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


def pivot_columns(m: FracMatrix) -> list:
    """The columns of m that are not combinations of earlier ones, in order,
    read from one fraction-free elimination."""
    return [pc for _, pc in _bareiss(_cleared_rows(m), m.cols)]


def generic_rank(m: FracMatrix) -> int:
    """Rank over the function field.

    The generic rank is at least the rank at any point and at most
    min(rows, cols), so a rank of min(rows, cols) at one exact sample point
    proves it; elimination runs only when the sampled rank falls short or
    the sample point is a pole.
    """
    full = min(m.rows, m.cols)
    if rank_at_samples(m, 1) == full:
        return full
    return len(pivot_columns(m))


def _back_substitute(chart, rows, pivots, values):
    """Fill pivot variables of `values` bottom-up; a row one entry longer than
    `values` carries its rhs entry last."""
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
    """Denominator-cleared, content-reduced copy of a ScalarExpr vector.

    The first nonzero entry's leading coefficient is normalized positive,
    every entry becomes a polynomial, and (in real mode) the integer content
    of all coefficients is 1.
    """
    chart = same_chart(*vec)
    if all(v.is_zero() for v in vec):
        return list(vec)
    one = poly_one(chart.dim)
    common = one
    for v in vec:
        if not v.den.is_one():
            common = poly_lcm(common, v.den)
    polys = [
        v.num if common.is_one() else v.num * divexact(common, v.den) for v in vec
    ]
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
    # clear rational denominators and divide out the integer content
    fracs = []
    for p in polys:
        for c in p.terms.values():
            if isinstance(c, GaussianRational):
                fracs.extend((c.re, c.im))
            else:
                fracs.append(c)
    num_gcd = gcd(*[f.numerator for f in fracs])
    scale = Fraction(lcm(*[f.denominator for f in fracs]), num_gcd if num_gcd else 1)
    if scale != 1:
        polys = [p.scale(scale) for p in polys]
    return [ScalarExpr(chart, p, poly_one(chart.dim)) for p in polys]


def kernel_basis(m: FracMatrix):
    """Basis of the right kernel over the function field (normalized vectors)."""
    chart = m.chart
    if m.rows == 0:
        return [
            normalize_vector(
                [chart.one() if c == j else chart.zero() for c in range(m.cols)]
            )
            for j in range(m.cols)
        ]
    rows = _cleared_rows(m)
    pivots = _bareiss(rows, m.cols)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        values = [chart.zero()] * m.cols
        values[free] = chart.one()
        _back_substitute(chart, rows, pivots, values)
        basis.append(normalize_vector(values))
    return basis


def solve_linear(m: FracMatrix, rhs):
    """One particular solution of m x = rhs, or None when inconsistent.

    Free variables are set to zero; the solution is the deterministic output
    of back-substitution after fraction-free elimination.
    """
    chart = m.chart
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    rhs = list(rhs)
    if m.rows == 0:
        return [chart.zero()] * m.cols
    rows = _cleared_rows(m, rhs)
    pivots = _bareiss(rows, m.cols)
    # rows below the pivot rows are zero but for their rhs entry
    if any(not row[-1].is_zero() for row in rows[len(pivots):]):
        return None
    values = [chart.zero()] * m.cols
    _back_substitute(chart, rows, pivots, values)
    return values


# -- sample points -------------------------------------------------------------


def sample_point(chart: Chart, s: int = 0, retry: int = 0):
    """Deterministic rational sample point: (1, 2, ...) shifted by sample and retry."""
    return [Fraction(k + 1 + s + 7 * retry) for k in range(chart.dim)]


MAX_POINT_RETRIES = 20


def eval_matrix_at_sample(m: FracMatrix, s: int = 0):
    """The entries' values at sample point s, retrying past denominator zeros;
    None when every retry is a pole."""
    for retry in range(MAX_POINT_RETRIES + 1):
        # a sample point is already in every chart's coefficient field
        point = sample_point(m.chart, s, retry)
        try:
            return [[e._eval(point) for e in row] for row in m.entries]
        except PointEvaluationError:
            continue
    return None


def image_at_sample(m: FracMatrix, s: int = 0):
    """The entries mod P at the first retry of sample point s where no
    denominator image vanishes; None when there is none, or when a
    coefficient has no image."""
    image = modp.matrix_image(m)
    if image is None:
        return None
    for retry in range(MAX_POINT_RETRIES + 1):
        values = image.at(sample_point(m.chart, s, retry))
        if values is not None:
            return values
    return None


def numeric_rank(values) -> int:
    """Rank of a matrix of exact field elements by Gaussian elimination."""
    rows = [list(r) for r in values]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for pc in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank][pc]
        for i in range(rank + 1, nrows):
            if rows[i][pc]:
                factor = rows[i][pc] / piv
                for j in range(pc, ncols):
                    rows[i][j] = rows[i][j] - factor * rows[rank][j]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_at_samples(m: FracMatrix, samples: int = 3):
    """Max rank observed over the deterministic sample points, or None as soon
    as one of them has no valid retry.

    Each sample point is tried mod P at its first retry: an image rank of
    min(rows, cols) proves that rank there.  A shorter image rank, a
    vanishing denominator image or a coefficient without image sends the
    point to exact evaluation, which retries past poles.
    """
    full = min(m.rows, m.cols)
    image = modp.matrix_image(m)
    best = 0
    for s in range(samples):
        if image is not None:
            values = image.at(sample_point(m.chart, s))
            if values is not None and modp.rank(values) == full:
                best = full
                continue
        values = eval_matrix_at_sample(m, s)
        if values is None:
            return None
        best = max(best, numeric_rank(values))
    return best
