"""Small exact polynomials used only to build inputs and independent oracles.

A polynomial is a dict from exponent tuples to nonzero coefficients, which
are `Fraction` or `Gauss` (an element of Q(i)).  Nothing here imports dngeo:
the benchmark's expected answers must not come from the code under test.
"""

from __future__ import annotations

from fractions import Fraction


class Gauss:
    """a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, Gauss) else Gauss(x)

    def __add__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-Gauss.of(o))

    def __rsub__(self, o):
        return Gauss.of(o) - self

    def __mul__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Gauss.of(o)
        n = o.re * o.re + o.im * o.im
        return self * Gauss(o.re / n, -o.im / n)

    def __rtruediv__(self, o):
        return Gauss.of(o) / self

    def __eq__(self, o):
        o = Gauss.of(o)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    __hash__ = None


# -- polynomial dicts -----------------------------------------------------------


def const(nvars, c):
    return {(0,) * nvars: c} if c else {}


def var(nvars, k):
    e = [0] * nvars
    e[k] = 1
    return {tuple(e): Fraction(1)}


def add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(p, c):
    return {e: k * c for e, k in p.items()} if c else {}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out = add(out, {e: c1 * c2})
    return out


def diff(p, k):
    out = {}
    for e, c in p.items():
        if e[k]:
            ne = list(e)
            ne[k] -= 1
            out[tuple(ne)] = c * e[k]
    return out


def evaluate(p, point):
    total = Fraction(0)
    for e, c in p.items():
        v = c
        for x, d in zip(point, e):
            if d:
                v = v * x**d
        total = total + v
    return total


def is_const(p):
    return all(sum(e) == 0 for e in p)


def random_poly(rng, nvars, allowed, max_deg, nterms, gaussian=False, span=4):
    """Random polynomial in the variables `allowed` (indices), never zero."""
    out = {}
    while not out:
        for _ in range(nterms):
            e = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                e[rng.choice(allowed)] += 1
            c = Fraction(rng.randint(-span, span) or 1, rng.randint(1, 3))
            if gaussian and rng.random() < 0.5:
                c = Gauss(c, rng.randint(-span, span) or 1)
            out = add(out, {tuple(e): c})
    return out


def random_nonconst(rng, nvars, allowed, max_deg, nterms, gaussian=False):
    """Random polynomial with a term of positive degree in `allowed`."""
    while True:
        p = random_poly(rng, nvars, allowed, max(max_deg, 1), nterms, gaussian)
        if not is_const(p):
            return p


def holomorphic_parts(rng, gaussian=False):
    """(u, v) in Q[x, y] with u + i*v = f(x + i*y) for a random polynomial f
    over Q(i); they satisfy the Cauchy-Riemann equations by construction."""
    z = {(1, 0): Gauss(1), (0, 1): Gauss(0, 1)}
    f = {}
    power = {(0, 0): Gauss(1)}
    for _ in range(rng.randint(1, 3) + 1):
        c = Gauss(rng.randint(-3, 3), rng.randint(-3, 3) if gaussian else 0)
        f = add(f, scale(power, c))
        power = mul(power, z)
    f = add(f, scale(power, Gauss(1, 1)))  # top term keeps f non-constant
    u = {e: c.re for e, c in f.items() if c.re}
    v = {e: c.im for e, c in f.items() if c.im}
    return u, v


# -- text in the scalar grammar -------------------------------------------------


def coeff_text(c):
    if isinstance(c, Gauss):
        if not c.im:
            return coeff_text(c.re)
        return f"({c.re}+({c.im})*i)"
    return f"({c})"


def to_text(p, names):
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items()):
        mono = "*".join(
            name if d == 1 else f"{name}^{d}" for name, d in zip(names, e) if d
        )
        parts.append(coeff_text(c) + ("*" + mono if mono else ""))
    return " + ".join(parts)


# -- exact linear algebra on numbers ----------------------------------------------


def numeric_rank(rows):
    """Rank of a matrix of Fraction or Gauss entries by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
