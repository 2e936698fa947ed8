"""The integer kernels of Polynomial.__mul__ and divexact against the
term-by-term Fraction / GaussianRational loops they replaced.

The oracles below are the old loops, kept only here.  Coefficient types are
compared as well as values: the printer and the kernel normal form of
linalg branch on isinstance.  The oracles run on the arithmetic of gaussian.py, which gives a
coefficient its type from its value (a Fraction unless its imaginary part is
nonzero), so the kernels must do the same, also for inputs that hold a
GaussianRational with a zero imaginary part.
"""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dngeo.symbolic import Chart, GaussianRational, ScalarExpr, to_str
from dngeo.symbolic import poly as poly_module
from dngeo.symbolic import scalar as scalar_module
from dngeo.symbolic.poly import Polynomial, divexact, poly_gcd

SETTINGS = settings(derandomize=True, max_examples=120, deadline=None, database=None)


# -- the old loops (oracles) -------------------------------------------------------


def mul_oracle(self, other):
    if self.is_zero() or other.is_zero():
        return Polynomial.zero(self.nvars)
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
    return Polynomial(self.nvars, out)


def mul_term_oracle(p, expo, c):
    return Polynomial(p.nvars, {tuple(a + b for a, b in zip(e, expo)): k * c for e, k in p.terms.items()})


def divexact_oracle(f, g):
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return f
    if g.is_one():
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
        r = r - mul_term_oracle(g, qe, qc)
    return Polynomial(f.nvars, out)


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


def assert_same(got, want):
    """Equal polynomials with the same term order and coefficient types."""
    assert got.nvars == want.nvars
    assert list(got.terms) == list(want.terms)
    for e, c in want.terms.items():
        assert got.terms[e] == c
        assert type(got.terms[e]) is type(c), (e, got.terms[e], c)


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
    if isinstance(want, Polynomial):
        assert isinstance(got, Polynomial), got
        assert_same(got, want)
    else:
        assert got == want


# -- generated polynomials -----------------------------------------------------------

# small numerators and denominators make coefficient sums cancel often
fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 6)))
nonzero = fractions.filter(bool)
gaussians = st.builds(GaussianRational, fractions, fractions).filter(bool)
COEFFS = {"real": nonzero, "gaussian": gaussians, "mixed": st.one_of(nonzero, gaussians)}


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
    nvars = draw(st.integers(1, 4))
    kinds = draw(st.sampled_from(("real", "gaussian", "mixed"))), draw(
        st.sampled_from(("real", "gaussian", "mixed"))
    )
    return tuple(draw(polys(nvars, k)) for k in kinds)


# -- products ------------------------------------------------------------------------


@SETTINGS
@given(poly_pairs())
def test_mul_matches_the_term_loop(pair):
    a, b = pair
    assert_same(a * b, mul_oracle(a, b))
    assert_same(b * a, mul_oracle(b, a))
    assert_canonical(a * b)


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


# -- exact division ------------------------------------------------------------------


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
