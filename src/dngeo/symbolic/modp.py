"""Images of rational functions modulo one fixed prime.

P = 2^61 - 31 is prime and P = 1 (mod 4), and I^2 = -1 (mod P), so Q and
Q(i) map into the integers mod P by one rule: a/b goes to a * b^-1 and
re + i im to img(re) + I img(im).  A coefficient whose denominator P divides
has no image.

An image proves only one-sided facts about the exact values it comes from:
a nonzero image is the image of a nonzero value, and a matrix whose image
has rank r has rank at least r.  Every other outcome is left to exact
arithmetic, so a decision read from an image is the exact one.

Images also bound gcd degrees (Brown's modular degree bound).  Map f and g
to polynomials in one variable x_k mod P, the other variables at a fixed
probe point where both x_k-leading coefficients keep their degree.  By
Gauss's lemma over Z[x] or Z[i][x] the image of gcd(f, g) keeps its x_k
degree there and divides both images, so the degree of their gcd mod P is
an upper bound on deg_k gcd(f, g) over Q and over Q(i).
"""

from __future__ import annotations

from .gaussian import GaussianRational

P = 2**61 - 31
I = 583529827753931384


def coeff_image(c):
    """c mod P for c in Q or Q(i); None when P divides a denominator of c."""
    if isinstance(c, GaussianRational):
        re, im = coeff_image(c.re), coeff_image(c.im)
        return None if re is None or im is None else (re + I * im) % P
    d = c.denominator
    if d == 1:
        return c.numerator % P
    if not d % P:
        return None
    return c.numerator * pow(d, -1, P) % P


def poly_image(p):
    """[(exponent, coefficient mod P)] for the terms of p, or None when a
    coefficient has no image: P divides the common denominator of p exactly
    when it divides the denominator of some coefficient."""
    if not p.denom % P:
        return None
    inv = pow(p.denom, -1, P)
    return [(e, (c[0] + I * c[1] if type(c) is tuple else c) * inv % P) for e, c in p._unpack(p.nums.items())]


PROBES = 3  # fixed probe points tried per variable


def probe(t: int, n: int) -> list:
    """The t-th fixed probe point in n variables, spread over the field."""
    return [(t * n + j + 1) * 0x9E3779B97F4A7C15 % P for j in range(n)]


def univariate(terms, k: int, point, degree: int):
    """The poly_image terms as coefficients in x_k, lowest first, with the
    other variables at point; None when the x_k^degree coefficient
    vanishes there."""
    out = [0] * (degree + 1)
    for e, c in terms:
        for j, d in enumerate(e):
            if d and j != k:
                c = c * pow(point[j], d, P) % P
        out[e[k]] += c
    out = [c % P for c in out]
    return out if out[-1] else None


def gcd_degree(a, b) -> int:
    """Degree of the gcd mod P of two coefficient lists (lowest first) with
    nonzero leading coefficients."""
    a, b = list(a), list(b)
    while len(b) > 1:
        if len(a) < len(b):
            a, b = b, a
        inv = pow(b[-1], -1, P)
        shift = len(a) - len(b)
        while shift >= 0:  # a <- a mod b
            f = a.pop() * inv % P
            for i in range(len(b) - 1):
                a[shift + i] = (a[shift + i] - f * b[i]) % P
            while a and not a[-1]:
                a.pop()
            shift = len(a) - len(b)
        if not a:
            return len(b) - 1
        a, b = b, a
    return 0


def degree_bound(f, g, k: int, df: int, dg: int):
    """An upper bound on deg_k gcd(f, g) for poly_images f, g of x_k-degrees
    df, dg: the degree of the gcd of their images at the first probe point
    where both keep those degrees; None when no probe point does."""
    n = len(f[0][0])
    for t in range(PROBES):
        point = probe(t, n)
        a = univariate(f, k, point, df)
        b = a and univariate(g, k, point, dg)
        if b:
            return gcd_degree(a, b)
    return None


class MatrixImage:
    """A matrix of rational functions with its coefficients mapped mod P
    once, to be evaluated at any number of points."""

    __slots__ = ("rows", "degrees")

    def __init__(self, rows, degrees):
        self.rows = rows  # each entry (numerator terms, denominator terms or None for 1)
        self.degrees = degrees  # the highest exponent of each variable

    def at(self, point):
        """The entries mod P at point, with None for an entry whose
        denominator image vanishes there; None when a coordinate has no
        image."""
        powers = []
        for x, d in zip(point, self.degrees):
            x = coeff_image(x)
            if x is None:
                return None
            row = [1]
            for _ in range(d):
                row.append(row[-1] * x % P)
            powers.append(row)
        monomials = {}

        def value(terms):
            total = 0
            for e, c in terms:
                v = monomials.get(e)
                if v is None:
                    v = 1
                    for row, k in zip(powers, e):
                        if k:
                            v = v * row[k] % P
                    monomials[e] = v
                total += c * v
            return total % P

        out = []
        for row in self.rows:
            values = []
            for num, den in row:
                v = value(num)
                if den is not None:
                    d = value(den)
                    v = v * pow(d, -1, P) % P if d else None
                values.append(v)
            out.append(values)
        return out


def matrix_image(m):
    """The MatrixImage of a FracMatrix, or None when a coefficient has no
    image."""
    rows = []
    degrees = [0] * m.chart.dim
    for row in m.entries:
        images = []
        for s in row:
            num = poly_image(s.num)
            den = None if s.den.is_one() else poly_image(s.den)
            if num is None or den is None and not s.den.is_one():
                return None
            for e, _ in num + (den or []):
                for k, d in enumerate(e):
                    if d > degrees[k]:
                        degrees[k] = d
            images.append((num, den))
        rows.append(images)
    return MatrixImage(rows, degrees)


def rank(values) -> int:
    """Rank of a matrix of integers mod P by Gaussian elimination."""
    rows = [list(r) for r in values]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    r = 0
    for pc in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        inv = pow(top[pc], -1, P)
        for i in range(r + 1, nrows):
            row = rows[i]
            if row[pc]:
                f = row[pc] * inv % P
                for j in range(pc, ncols):
                    row[j] = (row[j] - f * top[j]) % P
        r += 1
        if r == nrows:
            break
    return r
