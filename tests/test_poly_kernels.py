"""The integer form of Polynomial against the Fraction-dict polynomial it
replaced.

`FracPoly` below is that polynomial, kept only here as the oracle: a map from
exponent tuples to Fraction / GaussianRational coefficients, with the term
loops of field arithmetic, the term-by-term division and the gcd of poly.py
(modular certificate, then subresultant PRS) run on those dicts.  Results are
compared structurally: the `terms` view must give the oracle's keys in the
oracle's order, with equal values of the same types (the printer branches on
isinstance), and the integer fields must be the canonical ones.  The oracle
runs on the arithmetic of gaussian.py, which gives a coefficient its type
from its value (a Fraction unless its imaginary part is nonzero), so the
integer form must do the same, also for inputs that hold a GaussianRational
with a zero imaginary part.
"""

import fractions
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from dngeo.symbolic import Chart, FracMatrix, GaussianRational, ScalarExpr, kernel_basis, modp, to_str
from dngeo.symbolic import poly as poly_module
from dngeo.symbolic import scalar as scalar_module
from dngeo.symbolic.poly import Polynomial, divexact, poly_dot, poly_gcd

SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)


# -- the Fraction-dict polynomial (oracle) -------------------------------------------


class FracPoly:
    """A sparse map from exponent tuples to nonzero coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = terms

    @staticmethod
    def of(p):
        return FracPoly(p.nvars, p.terms)

    def poly(self):
        return Polynomial(self.nvars, self.terms)

    @staticmethod
    def zero(nvars):
        return FracPoly(nvars, {})

    @staticmethod
    def one(nvars):
        return FracPoly(nvars, {(0,) * nvars: Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def is_one(self):
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return sum(e) == 0 and c == 1

    def degree_in(self, k):
        return max((e[k] for e in self.terms), default=-1)

    def leading(self):
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return FracPoly(self.nvars, out)

    def __neg__(self):
        return FracPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FracPoly.zero(self.nvars)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    s = s + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return FracPoly(self.nvars, out)

    def scale(self, c):
        if not c:
            return FracPoly.zero(self.nvars)
        return FracPoly(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, k):
        if not k:
            return FracPoly.one(self.nvars)
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def diff(self, k):
        out = {}
        for e, c in self.terms.items():
            if e[k]:
                ne = list(e)
                ne[k] -= 1
                out[tuple(ne)] = c * e[k]
        return FracPoly(self.nvars, out)

    def eval(self, point):
        total = Fraction(0)  # the zero polynomial's value is a Fraction too
        for e, c in self.terms.items():
            v = c
            for k, d in enumerate(e):
                if d:
                    v = v * point[k] ** d
            total = total + v
        return total

    def substitute(self, assign):
        out = FracPoly.zero(self.nvars)
        for e, c in self.terms.items():
            v = c
            ne = list(e)
            for k, val in assign.items():
                if e[k]:
                    v = v * val ** e[k]
                ne[k] = 0
            if v:
                out = out + FracPoly(self.nvars, {tuple(ne): v})
        return out

    def project(self, keep):
        out = {}
        for e, c in self.terms.items():
            ne = tuple(e[k] for k in keep)
            if sum(ne) != sum(e):
                raise ValueError("polynomial involves a projected-out variable")
            out[ne] = c
        return FracPoly(len(keep), out)

    def extend(self, new_nvars, index_map):
        out = {}
        for e, c in self.terms.items():
            ne = [0] * new_nvars
            for k, d in enumerate(e):
                ne[index_map[k]] = d
            out[tuple(ne)] = c
        return FracPoly(new_nvars, out)


def frac_divexact(f, g):
    """f/g by the term-by-term division loop."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero() or g.is_one():
        return f
    ge, gc = g.leading()
    out = {}
    r = f
    while not r.is_zero():
        re, rc = r.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(d < 0 for d in qe):
            raise ValueError("inexact polynomial division")
        qc = rc / gc
        out[qe] = qc
        r = r - FracPoly(g.nvars, {tuple(a + b for a, b in zip(e, qe)): k * qc for e, k in g.terms.items()})
    return FracPoly(f.nvars, out)


def uni_coeff(f, k, d):
    out = {}
    for e, c in f.terms.items():
        if e[k] == d:
            out[e[:k] + (0,) + e[k + 1:]] = c
    return FracPoly(f.nvars, out)


def prem(f, g, k):
    l = g.degree_in(k)
    lcg = uni_coeff(g, k, l)
    r = f
    e = f.degree_in(k) - l + 1
    while not r.is_zero() and r.degree_in(k) >= l:
        dr = r.degree_in(k)
        lead = {x[:k] + (dr - l,) + x[k + 1:]: c for x, c in r.terms.items() if x[k] == dr}
        r = lcg * r - FracPoly(f.nvars, lead) * g
        e -= 1
    for _ in range(e):
        r = lcg * r
    return r


def monic(p):
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p if lc == 1 else p.scale(1 / lc)


def content_wrt(f, k):
    c = FracPoly.zero(f.nvars)
    for d in range(f.degree_in(k) + 1):
        coeff = uni_coeff(f, k, d)
        if not coeff.is_zero():
            c = frac_gcd(c, coeff)
            if c.is_one():
                break
    return c


def subresultant_last(f, g, k):
    n, m = f.degree_in(k), g.degree_in(k)
    d = n - m
    h = prem(f, g, k)
    if d % 2 == 0:
        h = -h
    lc = uni_coeff(g, k, m)
    c = -(lc ** d)
    last = g
    while not h.is_zero():
        kdeg = h.degree_in(k)
        f, g, m, d = g, h, kdeg, m - kdeg
        last = g
        b = -(lc * c ** d)
        h = frac_divexact(prem(f, g, k), b)
        lc = uni_coeff(g, k, m)
        c = frac_divexact((-lc) ** d, c ** (d - 1)) if d > 1 else -lc
    return last


def image(p):
    out = [(e, modp.coeff_image(c)) for e, c in p.terms.items()]
    return None if any(c is None for _, c in out) else out


def certified_gcd(f, g):
    a, b = image(f), image(g)
    if a is None or b is None:
        return None
    n = f.nvars
    df, dg = ([max(d) for d in zip(*p.terms)] for p in (f, g))
    bounds = [0] * n
    for k in range(n):
        if df[k] and dg[k]:
            d = modp.degree_bound(a, b, k, df[k], dg[k])
            bounds[k] = min(df[k], dg[k]) if d is None else d
    if not any(bounds):
        return FracPoly.one(n)
    for p, dp, q in ((f, df, g), (g, dg, f)):
        if dp == bounds:
            try:
                frac_divexact(q, p)
            except ValueError:
                continue
            return monic(p)
    free = [k for k in range(n) if not bounds[k] and (df[k] or dg[k])]
    if not free:
        return None
    parts = {}
    for i, p in enumerate((f, g)):
        for e, c in p.terms.items():
            rest = list(e)
            for k in free:
                rest[k] = 0
            parts.setdefault((i, *(e[k] for k in free)), {})[tuple(rest)] = c
    out = FracPoly.zero(n)
    for terms in sorted(parts.values(), key=len):
        out = frac_gcd(out, FracPoly(n, terms))
        if out.is_one():
            break
    return out


def frac_gcd(f, g):
    """The monic gcd, by the modular certificate and then the PRS."""
    if f.is_zero():
        return monic(g)
    if g.is_zero():
        return monic(f)
    if f.is_constant() or g.is_constant():
        return FracPoly.one(f.nvars)
    out = certified_gcd(f, g)
    if out is not None:
        return out
    k = next(i for i in range(f.nvars) if f.degree_in(i) > 0 or g.degree_in(i) > 0)
    if f.degree_in(k) == 0:
        return frac_gcd(content_wrt(g, k), f)
    if g.degree_in(k) == 0:
        return frac_gcd(content_wrt(f, k), g)
    cf, cg = content_wrt(f, k), content_wrt(g, k)
    c = frac_gcd(cf, cg)
    fp, gp = frac_divexact(f, cf), frac_divexact(g, cg)
    if fp.degree_in(k) < gp.degree_in(k):
        fp, gp = gp, fp
    last = subresultant_last(fp, gp, k)
    if last.degree_in(k) == 0:
        return monic(c)
    return monic(c * frac_divexact(last, content_wrt(last, k)))


def mul_oracle(a, b):
    return (FracPoly.of(a) * FracPoly.of(b)).poly()


def divexact_oracle(f, g):
    return frac_divexact(FracPoly.of(f), FracPoly.of(g)).poly()


@contextmanager
def oracle_kernels():
    """Run the package on the old loops (every binding of divexact)."""
    saved = Polynomial.__mul__, poly_module.divexact, scalar_module.divexact
    Polynomial.__mul__ = mul_oracle
    poly_module.divexact = scalar_module.divexact = divexact_oracle
    try:
        yield
    finally:
        Polynomial.__mul__, poly_module.divexact, scalar_module.divexact = saved


# -- comparison ----------------------------------------------------------------------


def assert_integer_form(p):
    """nums over denom is canonical: no zero numerator, gcd(denom, every part)
    = 1, and (re, im) pairs only when some im is nonzero."""
    assert type(p.denom) is int and p.denom > 0
    pairs = {type(c) is tuple for c in p.nums.values()}
    assert len(pairs) <= 1, p.nums
    if pairs == {True}:
        assert all(type(x) is int for c in p.nums.values() for x in c)
        assert any(im for _, im in p.nums.values()), p.nums
        parts = [x for c in p.nums.values() for x in c]
        assert all(re or im for re, im in p.nums.values())
    else:
        parts = list(p.nums.values())
        assert all(type(c) is int and c for c in parts)
    assert gcd(p.denom, *parts) == 1, (p.nums, p.denom)


def assert_same(got, want):
    """Equal polynomials with the same term order and coefficient types, the
    first in canonical integer form."""
    assert isinstance(got, Polynomial), got
    assert got.nvars == want.nvars
    terms = got.terms
    assert list(terms) == list(want.terms)
    for e, c in want.terms.items():
        assert terms[e] == c
        assert type(terms[e]) is type(c), (e, terms[e], c)
    assert_integer_form(got)
    assert got == Polynomial(want.nvars, want.terms)


def assert_same_value(got, want):
    assert got == want and type(got) is type(want), (got, want)


def assert_canonical(p):
    """Every coefficient is a Fraction or a GaussianRational with im != 0."""
    for c in p.terms.values():
        assert type(c) is Fraction or (type(c) is GaussianRational and c.im), c


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)


def assert_same_outcome(fn, oracle, *args):
    got, want = outcome(fn, *args), outcome(oracle, *args)
    if isinstance(want, (Polynomial, FracPoly)):
        assert_same(got, want)
    else:
        assert got == want


# -- generated polynomials -----------------------------------------------------------

# small numerators and denominators make coefficient sums cancel often
fractions_ = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 6)))
nonzero = fractions_.filter(bool)
# GaussianRational(x, 0) is drawn on purpose: it enters as a Fraction
gaussians = st.builds(GaussianRational, fractions_, fractions_).filter(bool)
COEFFS = {"real": nonzero, "gaussian": gaussians, "mixed": st.one_of(nonzero, gaussians)}
# constants and point values: ints, zero, Fractions and elements of Q(i)
values = st.one_of(st.integers(-3, 3), fractions_, gaussians)


@st.composite
def polys(draw, nvars, kind, max_terms=5, max_deg=2):
    expos = draw(
        st.lists(
            st.tuples(*[st.integers(0, max_deg)] * nvars), min_size=1, max_size=max_terms, unique=True
        )
    )
    return Polynomial(nvars, {e: draw(COEFFS[kind]) for e in expos})


@st.composite
def poly_pairs(draw):
    """Two polynomials in the same variables, either of them or both often a
    single term (the product's one-term path)."""
    nvars = draw(st.integers(1, 4))
    kinds = draw(st.sampled_from(("real", "gaussian", "mixed"))), draw(
        st.sampled_from(("real", "gaussian", "mixed"))
    )
    sizes = draw(st.sampled_from(((5, 5), (1, 5), (5, 1), (1, 1))))
    return tuple(draw(polys(nvars, k, max_terms=t)) for k, t in zip(kinds, sizes))


def integral(c):
    """c with each part replaced by its numerator."""
    if type(c) is GaussianRational:
        return GaussianRational(c.re.numerator, c.im.numerator)
    return Fraction(c.numerator)


@st.composite
def operands(draw, nvars, max_terms=5):
    """A polynomial over Q, Q(i) or both, one with a common integer factor in
    every coefficient, zero, or a constant."""
    kind = draw(st.sampled_from(("real", "gaussian", "mixed", "non-primitive", "zero", "constant")))
    if kind == "zero":
        return Polynomial.zero(nvars)
    if kind == "constant":
        return Polynomial.const(nvars, draw(values))
    if kind == "non-primitive":
        p = draw(polys(nvars, draw(st.sampled_from(("real", "gaussian"))), max_terms))
        unit = draw(st.sampled_from((Fraction(6), Fraction(4, 5), GaussianRational(2, 2))))
        return Polynomial(nvars, {e: integral(c) * unit for e, c in p.terms.items()})
    return draw(polys(nvars, kind, max_terms))


# -- the integer form against the oracle ---------------------------------------------


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(operands(n), operands(n))), st.data())
def test_integer_form_matches_the_fraction_dicts(pair, data):
    a, b = pair
    fa, fb = FracPoly.of(a), FracPoly.of(b)
    n = a.nvars
    assert_same(a, fa)
    assert_same(a + b, fa + fb)
    assert_same(a - b, fa - fb)
    assert_same(a * b, fa * fb)
    c = data.draw(values)
    assert_same(a.scale(c), fa.scale(c))
    k = data.draw(st.integers(0, n - 1))
    assert_same(a.diff(k), fa.diff(k))
    point = [data.draw(values) for _ in range(n)]
    assert_same_value(a.eval(point), fa.eval(point))
    assign = {k: data.draw(values) for k in data.draw(st.sets(st.integers(0, n - 1)))}
    assert_same(a.substitute(assign), fa.substitute(assign))
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    assert_same_outcome(a.project, fa.project, keep)
    new_n = n + data.draw(st.integers(0, 2))
    index_map = data.draw(st.permutations(range(new_n)))[:n]
    assert_same(a.extend(new_n, index_map), fa.extend(new_n, index_map))
    if not a.is_zero():
        (ge, gc), (we, wc) = a.leading(), fa.leading()
        assert ge == we
        assert_same_value(gc, wc)
    e = data.draw(st.integers(0, 3))
    assert_same(a ** e, fa ** e)
    assert_same_outcome(divexact, divexact_oracle, a * b, b)
    assert_same_outcome(divexact, divexact_oracle, a, b)


@st.composite
def gcd_triples(draw):
    complex_ = draw(st.booleans())
    # Gaussian gcds blow up quickly (see the FOUND line on Q(i) in CHANGES.md)
    n = draw(st.integers(1, 2 if complex_ else 3))
    kind = "mixed" if complex_ else "real"
    a, b, h = (draw(polys(n, kind, max_terms=3)) for _ in range(3))
    unit = draw(st.sampled_from((Fraction(1), Fraction(6), Fraction(-4, 9))))
    return a.scale(unit), b, h


@SETTINGS
@given(gcd_triples())
def test_poly_gcd_matches_the_fraction_dicts(triple):
    a, b, h = triple
    fa, fb, fh = (FracPoly.of(p) for p in triple)
    assert_same(poly_gcd(a, b), frac_gcd(fa, fb))
    # h is a planted common factor
    assert_same(poly_gcd(a * h, b * h), frac_gcd(fa * fh, fb * fh))
    assert_same(poly_gcd(a * h, Polynomial.zero(a.nvars)), frac_gcd(fa * fh, FracPoly.zero(a.nvars)))


# -- no Fraction inside the core -----------------------------------------------------


@contextmanager
def fractions_built():
    """The running count of Fraction objects constructed."""
    count = [0]
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    fractions.Fraction.__new__ = counted
    try:
        yield count
    finally:
        fractions.Fraction.__new__ = new


def test_the_core_builds_no_fraction():
    chart = Chart("R", ("x", "y"))
    s = chart.scalar
    a = (s("x/2 + y/3 + 1") ** 3).num
    b = s("x/5 - y + 7/3").num
    h = s("x/2 - 3*y/7 + 1/5").num
    m = FracMatrix(chart, [[s("x/2"), s("y/3 + 1"), s("1/(x + 2)")], [s("2*x/3"), s("y/(y + 1)"), s("x*y/5")]])
    with fractions_built() as count:
        product = a * b
        total = a + b
        quotient = divexact(product, b)
        common = poly_gcd(h * a, h * b)
        kernel = kernel_basis(m)
    assert count[0] == 0
    # the results are right, read through the view after the count
    fa, fb, fh = FracPoly.of(a), FracPoly.of(b), FracPoly.of(h)
    assert_same(product, fa * fb)
    assert_same(total, fa + fb)
    assert_same(quotient, frac_divexact(fa * fb, fb))
    assert_same(common, frac_gcd(fh * fa, fh * fb))
    assert len(kernel) == 1
    for row in m.entries:
        assert sum((u * v for u, v in zip(row, kernel[0])), chart.zero()).is_zero()


# -- products and divisions on chosen inputs -----------------------------------------


@SETTINGS
@given(poly_pairs())
def test_mul_matches_the_term_loop(pair):
    a, b = pair
    assert_same(a * b, mul_oracle(a, b))
    assert_same(b * a, mul_oracle(b, a))
    assert_canonical(a * b)


def test_one_term_products_keep_the_key_order_of_the_other_operand():
    # the term-pair loop runs over the left operand's terms, then the right
    # one's; with a one-term operand on either side the keys come in the
    # order of the other operand
    i = GaussianRational(0, 1)
    many = Polynomial(2, {(0, 2): Fraction(1, 2), (1, 0): Fraction(3), (0, 0): Fraction(-1)})
    for one in (Polynomial(2, {(1, 1): Fraction(2, 3)}), Polynomial(2, {(0, 1): 1 + i}), Polynomial.const(2, i)):
        for a, b in ((many, one), (one, many), (one, one)):
            assert_same(a * b, mul_oracle(a, b))
            assert list((a * b).terms) == [tuple(map(sum, zip(e, f))) for e in a.terms for f in b.terms]


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(operands(n), operands(n)), max_size=4)))
def test_poly_dot_is_the_sum_of_the_products(pairs):
    nvars = pairs[0][0].nvars if pairs else 2
    want = FracPoly.zero(nvars)
    for a, b in pairs:
        want = want + FracPoly.of(a) * FracPoly.of(b)
    got = poly_dot(nvars, pairs)
    assert_integer_form(got)
    assert got == want.poly()
    assert_canonical(got)


def test_mul_cancellation_resets_the_coefficient_type():
    # the x^2 term collects i*i = -1, then 1*1 (the sum cancels and the term
    # is dropped), then 1*1: it ends on Fraction(1), while the x^3 term 1 + i
    # stays Gaussian
    i = GaussianRational(0, 1)
    a = Polynomial(1, {(0,): i, (1,): Fraction(1), (2,): Fraction(1)})
    b = Polynomial(1, {(2,): i, (1,): Fraction(1), (0,): Fraction(1)})
    got = a * b
    assert_same(got, mul_oracle(a, b))
    assert type(got.terms[(2,)]) is Fraction
    assert type(got.terms[(3,)]) is GaussianRational


@SETTINGS
@given(poly_pairs(), st.data())
def test_divexact_matches_the_division_loop(pair, data):
    a, b = pair
    f = mul_oracle(a, b)
    assert_same_outcome(divexact, divexact_oracle, f, b)
    assert_same_outcome(divexact, divexact_oracle, f, a)
    assert_canonical(divexact(f, b))
    # mostly inexact: either both raise the same error or both agree
    c = data.draw(polys(a.nvars, "mixed", max_terms=2))
    assert_same_outcome(divexact, divexact_oracle, f + c, b)
    assert_same_outcome(divexact, divexact_oracle, a, b)


def test_divexact_errors():
    p = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 3): GaussianRational(0, 1)})
    q = Polynomial(2, {(1, 0): Fraction(1), (0, 0): Fraction(1)})
    zero = Polynomial.zero(2)
    for f, g in ((p, zero), (zero, zero), (zero, p), (p, q), (q, p), (mul_oracle(p, q) + q * q, p)):
        assert_same_outcome(divexact, divexact_oracle, f, g)
    assert outcome(divexact, p, zero) == (ZeroDivisionError, "polynomial division by zero")
    assert outcome(divexact, p, q) == (ValueError, "inexact polynomial division")


def test_divexact_remainder_terms_turn_gaussian():
    # (x^3 + x^2 + 1 - i) / (x + i): the x^2 term of the remainder is the
    # Fraction 1 until i*x^2 is taken off it, so the next quotient
    # coefficient, (1 - i)/1, is Gaussian
    i = GaussianRational(0, 1)
    f = Polynomial(1, {(3,): Fraction(1), (2,): Fraction(1), (0,): 1 - i})
    g = Polynomial(1, {(1,): Fraction(1), (0,): i})
    got = divexact(f, g)
    assert_same(got, divexact_oracle(f, g))
    assert got.terms == {(2,): 1, (1,): 1 - i, (0,): -1 - i}
    assert [type(c) for c in got.terms.values()] == [Fraction, GaussianRational, GaussianRational]
    # (x^2 - 1) with GaussianRational coefficients of zero imaginary part over
    # the real x + 1: the quotient x - 1 is real, so its coefficients are
    # Fractions
    f = Polynomial(1, {(2,): GaussianRational(1), (0,): GaussianRational(-1)})
    g = Polynomial(1, {(1,): Fraction(1), (0,): Fraction(1)})
    got = divexact(f, g)
    assert_same(got, divexact_oracle(f, g))
    assert [type(c) for c in got.terms.values()] == [Fraction, Fraction]


def test_divexact_by_a_non_primitive_divisor():
    # 2x + 4 and (1+i)x + (2+2i): the lead does not divide the remainder's
    # lead over the integers, so the remainder is rescaled
    for unit in (Fraction(2), GaussianRational(1, 1)):
        g = Polynomial(2, {(1, 0): unit, (0, 0): 2 * unit})
        q = Polynomial(2, {(2, 1): Fraction(1, 3), (0, 1): Fraction(5), (0, 0): Fraction(-7, 2)})
        f = mul_oracle(q, g)
        assert_same(divexact(f, g), divexact_oracle(f, g))


# -- through ScalarExpr --------------------------------------------------------------


@st.composite
def scalar_pairs(draw):
    mode = draw(st.sampled_from(("real", "complex")))
    # Gaussian gcds blow up quickly (see the FOUND line on Q(i) in CHANGES.md)
    nvars = draw(st.integers(1, 3 if mode == "real" else 2))
    chart = Chart("C", tuple("xyz"[:nvars]), mode)
    kind = "real" if mode == "real" else "gaussian"
    parts = []
    for _ in range(2):
        num, den, common = (draw(polys(nvars, kind, max_terms=2, max_deg=1)) for _ in range(3))
        # a shared factor makes the canonical form cancel through gcd and divexact
        parts.append((mul_oracle(num, common), mul_oracle(den, common)))
    return chart, parts


def scalar_texts(chart, parts):
    a, b = (ScalarExpr(chart, num, den) for num, den in parts)
    return [to_str(s) for s in (a, b, a * b, a + b, a / b)]


@SETTINGS
@given(scalar_pairs())
def test_scalar_products_print_the_same(pair):
    chart, parts = pair
    got = scalar_texts(chart, parts)
    with oracle_kernels():
        want = scalar_texts(chart, parts)
    assert got == want


@SETTINGS
@given(poly_pairs())
def test_poly_gcd_is_unchanged(pair):
    a, b = pair
    got = poly_gcd(a, b)
    with oracle_kernels():
        want = poly_gcd(a, b)
    assert_same(got, want)
