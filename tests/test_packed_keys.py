"""Packed exponent keys, the stored form of Polynomial, against the
tuple-keyed integer form they replaced.

`TuplePoly` below is that form, kept only here as the oracle: integer
numerators (ints, or (re, im) pairs over Q(i)) over one denominator, keyed
by exponent tuples, with the term loops of products, sums, sums of products,
derivatives, substitution and reindexing run on those tuples, and the term
order graded lex by the key (total degree, exponents).  Results are compared
through the public views: the same `terms` in the same order, the same
canonical denominator, the same mod-P images and the same printed text.
Exponents are drawn small (the floor width holds total degrees up to 127)
and large (up to 70000), so products, sums and dots cross the floor, change
width in the middle, and narrow again after a cancellation or a derivative.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dngeo.symbolic import GaussianRational, modp, poly_to_str
from dngeo.symbolic import poly as poly_module
from dngeo.symbolic.gaussian import gaussian
from dngeo.symbolic.poly import Polynomial, divexact, poly_dot, poly_gcd, poly_one

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)


# -- the tuple-keyed integer form (oracle) -----------------------------------------


def _grlex(e):
    return sum(e), e


def _mul2(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


class TuplePoly:
    """nums maps exponent tuples to (re, im) pairs of ints over denom; the
    views turn them into the coefficients Polynomial reports."""

    __slots__ = ("nvars", "nums", "denom")

    def __init__(self, nvars, nums, denom=1):
        nums = {e: c for e, c in nums.items() if c != (0, 0)}
        g = gcd(denom, *[x for c in nums.values() for x in c]) if nums else denom
        self.nvars, self.denom = nvars, denom // g
        self.nums = {e: (re // g, im // g) for e, (re, im) in nums.items()}

    @staticmethod
    def of(p):
        """The oracle form of a Polynomial, read through its public view."""
        den = lcm(*[x.denominator for c in p.terms.values() for x in _parts(c)])
        nums = {e: tuple(int(x * den) for x in _parts(c)) for e, c in p.terms.items()}
        return TuplePoly(p.nvars, nums, den)

    def terms(self):
        return {e: gaussian(Fraction(re, self.denom), Fraction(im, self.denom)) for e, (re, im) in self.nums.items()}

    def sorted_terms(self):
        return sorted(self.terms().items(), key=lambda t: _grlex(t[0]), reverse=True)

    def is_zero(self):
        return not self.nums

    def __add__(self, other):
        den = lcm(self.denom, other.denom)
        out = {e: (re * (den // self.denom), im * (den // self.denom)) for e, (re, im) in self.nums.items()}
        for e, (re, im) in other.nums.items():
            s = out.get(e, (0, 0))
            out[e] = s[0] + re * (den // other.denom), s[1] + im * (den // other.denom)
        return TuplePoly(self.nvars, out, den)

    def __neg__(self):
        return TuplePoly(self.nvars, {e: (-re, -im) for e, (re, im) in self.nums.items()}, self.denom)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.nums.items():
            for eb, cb in other.nums.items():
                e = tuple(map(add, ea, eb))
                s, c = out.get(e, (0, 0)), _mul2(ca, cb)
                out[e] = s[0] + c[0], s[1] + c[1]
        return TuplePoly(self.nvars, out, self.denom * other.denom)

    def diff(self, k):
        out = {}
        for e, (re, im) in self.nums.items():
            if e[k]:
                out[e[:k] + (e[k] - 1,) + e[k + 1:]] = re * e[k], im * e[k]
        return TuplePoly(self.nvars, out, self.denom)

    def substitute(self, assign):
        out = TuplePoly(self.nvars, {})
        for e, c in self.terms().items():
            ne = list(e)
            for k, v in assign.items():
                if e[k]:
                    c = c * v ** e[k]
                ne[k] = 0
            out = out + _from_value(self.nvars, tuple(ne), c)
        return out

    def project(self, keep):
        out = {}
        for e, c in self.nums.items():
            ne = tuple(e[k] for k in keep)
            if sum(ne) != sum(e):
                raise ValueError("polynomial involves a projected-out variable")
            out[ne] = c
        return TuplePoly(len(keep), out, self.denom)

    def extend(self, new_nvars, index_map):
        out = {}
        for e, c in self.nums.items():
            ne = [0] * new_nvars
            for k, d in enumerate(e):
                ne[index_map[k]] = d
            out[tuple(ne)] = c
        return TuplePoly(new_nvars, out, self.denom)


def _parts(c):
    return (c.re, c.im) if isinstance(c, GaussianRational) else (c, Fraction(0))


def _from_value(nvars, e, c):
    re, im = _parts(c)
    den = lcm(re.denominator, im.denominator)
    return TuplePoly(nvars, {e: (int(re * den), int(im * den))}, den)


def oracle_dot(nvars, pairs):
    out = TuplePoly(nvars, {})
    for a, b in pairs:
        out = out + TuplePoly.of(a) * TuplePoly.of(b)
    return out


def oracle_divexact(f, g):
    """f / g by the term-by-term division on exponent tuples."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ge, gc = max(g.terms().items(), key=lambda t: _grlex(t[0]))
    r, out = f, TuplePoly(f.nvars, {})
    while not r.is_zero():
        re, rc = max(r.terms().items(), key=lambda t: _grlex(t[0]))
        qe = tuple(a - b for a, b in zip(re, ge))
        if min(qe) < 0:
            raise ValueError("inexact polynomial division")
        q = _from_value(f.nvars, qe, rc / gc)
        out, r = out + q, r + -(q * g)
    return out


def assert_same(got, want):
    """The same polynomial with the same term order and coefficient types."""
    assert isinstance(got, Polynomial) and got.nvars == want.nvars
    assert list(got.terms.items()) == list(want.terms().items())
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms().values()]
    assert got.denom == want.denom
    # canonical keys: equal polynomials, however formed, have equal fields
    assert got == Polynomial(want.nvars, want.terms())


# -- strategies ----------------------------------------------------------------------

SMALL = st.integers(0, 3)
LARGE = st.sampled_from([63, 64, 100, 127, 128, 200, 255, 256, 70000])
EXPONENT = st.one_of(SMALL, SMALL, SMALL, LARGE)
NVARS = st.sampled_from([1, 2, 3, 4, 12])


def coefficients(gaussian_):
    ints = st.integers(-3, 3).filter(bool).map(Fraction)
    fracs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    real = st.one_of(ints, fracs)
    if not gaussian_:
        return real
    return st.one_of(real, st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2).filter(bool)))


@st.composite
def polys(draw, n, gaussian_, max_terms=3, exponent=EXPONENT):
    exponents = st.tuples(*[exponent] * n)
    terms = draw(st.dictionaries(exponents, coefficients(gaussian_), max_size=max_terms))
    return Polynomial(n, terms)


@st.composite
def operands(draw, count, exponent=EXPONENT):
    n, gaussian_ = draw(NVARS), draw(st.booleans())
    return n, [draw(polys(n, gaussian_, exponent=exponent)) for _ in range(count)]


# -- properties ----------------------------------------------------------------------


@SETTINGS
@given(operands(4))
def test_products_sums_and_dots_match_the_oracle(case):
    n, (a, b, c, d) = case
    ta, tb = TuplePoly.of(a), TuplePoly.of(b)
    assert_same(a * b, ta * tb)
    assert_same(a + b, ta + tb)
    assert_same(a - b, ta + -tb)
    assert_same(-a, -ta)
    pairs = [(a, b), (c, d), (b, -c)]
    assert_same(poly_dot(n, pairs), oracle_dot(n, pairs))
    # a dot whose products cancel, in part or in full
    assert_same(poly_dot(n, [(a, b), (-a, b), (c, c)]), TuplePoly.of(c) * TuplePoly.of(c))


@SETTINGS
@given(operands(1), st.data())
def test_diff_eval_and_substitute_match_the_oracle(case, data):
    n, (a,) = case
    ta = TuplePoly.of(a)
    for k in range(n):
        assert_same(a.diff(k), ta.diff(k))
    values = st.one_of(st.integers(-3, 3).map(Fraction), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)))
    point = data.draw(st.lists(values, min_size=n, max_size=n))
    if max((sum(e) for e in ta.nums), default=0) <= 300:  # a value of x^70000 is not worth forming
        want = ta.substitute(dict(enumerate(point)))
        assert a.eval(point) == want.terms().get((0,) * n, Fraction(0))
    some = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2))
    assign = {k: data.draw(values) for k in some}
    if all(max((e[k] for e in ta.nums), default=0) <= 300 for k in some):
        assert_same(a.substitute(assign), ta.substitute(assign))


@SETTINGS
@given(operands(1), st.data())
def test_project_and_extend_match_the_oracle(case, data):
    n, (a,) = case
    ta = TuplePoly.of(a)
    m = n + data.draw(st.integers(0, 3))
    index_map = data.draw(st.permutations(range(m)))[:n]
    assert_same(a.extend(m, index_map), ta.extend(m, index_map))
    keep = data.draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    try:
        want = ta.project(keep)
    except ValueError:
        with pytest.raises(ValueError, match="projected-out"):
            a.project(keep)
    else:
        assert_same(a.project(keep), want)


# an inexact division with a degree gap of 70000 walks the whole long division
MODERATE = st.one_of(SMALL, SMALL, st.sampled_from([64, 127, 128, 256]))


@SETTINGS
@given(operands(3, MODERATE))
def test_divexact_matches_the_oracle(case):
    n, (a, b, c) = case
    if b.is_zero():
        return
    f = a * b
    assert_same(divexact(f, b), oracle_divexact(TuplePoly.of(f), TuplePoly.of(b)))
    try:
        want = oracle_divexact(TuplePoly.of(f + c), TuplePoly.of(b))
    except ValueError:
        with pytest.raises(ValueError, match="inexact"):
            divexact(f + c, b)
    else:
        assert_same(divexact(f + c, b), want)


def test_an_inexact_division_by_a_primitive_divisor_stops_at_its_first_step(monkeypatch):
    # by Gauss's lemma an exact quotient by a divisor of content 1 has integer
    # coefficients, so the first lead division with a remainder decides; the
    # 12 terms of f once took the whole long division, scaled 3-fold per step
    terms = {(70000,): 1, (327,): 3, (300,): -1, (255,): 2, (201,): 5, (150,): -4}
    terms.update({(128,): 1, (99,): 7, (64,): -2, (30,): 1, (2,): 3, (0,): -6})
    f, b = Polynomial(1, terms), Polynomial(1, {(127,): 3, (100,): 1, (1,): 2})
    scaled, times = [], poly_module._times

    def counted(p, k):
        if k != 1:
            scaled.append(k)
        return times(p, k)

    monkeypatch.setattr(poly_module, "_times", counted)
    with pytest.raises(ValueError, match="inexact"):
        divexact(f, b)
    assert scaled == []
    # a divisor of content 3 still scales, to an exact quotient with denominator 3
    three = Polynomial(1, {(1,): 3, (0,): 6})
    assert divexact(x(1, 0) + Polynomial.const(1, 2), three) == Polynomial.const(1, Fraction(1, 3))
    with pytest.raises(ValueError, match="inexact"):
        divexact(x(1, 0, 2) + Polynomial.const(1, 1), three)


@settings(SETTINGS, max_examples=30)
@given(st.data())
def test_gcd_of_disjoint_cofactors_is_the_common_factor(data):
    # a in x_0 only and b in x_1 only share no factor, so gcd(c a, c b) is c
    # made monic, whatever the widths of c, a and b; the gcd forms dense
    # images mod P, so the exponents stay moderate
    n, gaussian_ = data.draw(st.sampled_from([2, 3, 4])), data.draw(st.booleans())
    exponent = st.one_of(SMALL, st.sampled_from([70, 130]))
    c = data.draw(polys(n, gaussian_, max_terms=2, exponent=exponent).filter(lambda p: not p.is_zero()))

    def one_var(k):
        expos = st.tuples(*[exponent if j == k else st.just(0) for j in range(n)])
        terms = st.dictionaries(expos, coefficients(gaussian_), min_size=1, max_size=2)
        return terms.map(lambda t: Polynomial(n, t)).filter(lambda p: not p.is_constant())

    a, b = data.draw(one_var(0)), data.draw(one_var(1))
    g = poly_gcd(c * a, c * b)
    _, lc = max(TuplePoly.of(c).terms().items(), key=lambda t: _grlex(t[0]))
    want = TuplePoly.of(c) * _from_value(n, (0,) * n, 1 / lc)
    # the same canonical polynomial; its term order is the gcd's own
    assert g == Polynomial(n, want.terms()) and g.denom == want.denom


@SETTINGS
@given(operands(2))
def test_images_and_printing_match_the_oracle(case):
    n, (a, b) = case
    for p in (a, b, a * b):
        tp = TuplePoly.of(p)
        want = [(e, modp.coeff_image(c)) for e, c in tp.terms().items()]
        got = modp.poly_image(p)
        if got is None:
            assert any(c is None for _, c in want)
        else:
            assert got == want
        names = [f"x{k}" for k in range(n)]
        assert poly_to_str(p, names) == poly_to_str(tp, names)


# -- widths ----------------------------------------------------------------------------


def x(n, k, d=1):
    return Polynomial(n, {tuple(d if j == k else 0 for j in range(n)): 1})


def width(p):
    return poly_module._shape(p.nums, p.nvars)[1]


def test_a_product_and_a_dot_change_width_in_the_middle():
    a, b = x(2, 0, 100) + x(2, 1), x(2, 0, 50) * x(2, 1) + x(2, 1)
    assert width(a) == width(b) == 8
    ab = a * b  # total degree 151 needs a 9-bit field
    assert width(ab) == 9
    assert_same(ab, TuplePoly.of(a) * TuplePoly.of(b))
    # the first pair fits the floor, the second does not
    pairs = [(x(2, 0), x(2, 1)), (a, b)]
    assert width(poly_dot(2, pairs)) == 9
    assert_same(poly_dot(2, pairs), oracle_dot(2, pairs))
    # a wide operand and a narrow one: the narrow one is repacked
    assert_same(ab * x(2, 1), TuplePoly.of(ab) * TuplePoly.of(x(2, 1)))
    assert_same(ab + x(2, 1), TuplePoly.of(ab) + TuplePoly.of(x(2, 1)))


def test_a_cancellation_or_a_derivative_narrows_the_keys():
    big = x(1, 0, 128)
    assert width(big) == 9
    # d/dx x^128 = 128 x^127, of the floor width and so of the floor keys
    assert width(big.diff(0)) == 8 and big.diff(0) == Polynomial(1, {(127,): 128})
    sums = [big + x(1, 0) - big, poly_dot(1, [(big, x(1, 0)), (-big, x(1, 0)), (x(1, 0), x(1, 0))])]
    assert [s.nums for s in sums] == [x(1, 0).nums, (x(1, 0) * x(1, 0)).nums]
    assert divexact(big * x(1, 0), x(1, 0, 2)) == x(1, 0, 127)
    # 2^15 - 1 and 2^15: the last degree of a 16-bit field and the first of 17
    for d, w in ((2**15 - 1, 16), (2**15, 17)):
        p = x(3, 1, d) + x(3, 2)
        assert width(p) == w and p.degree_in(1) == d and p.degree_in(2) == 1
        assert list(p.terms) == [(0, d, 0), (0, 0, 1)]


def test_constants_sit_at_key_zero():
    for n in (1, 4, 12):
        for c in (Polynomial.const(n, 3), poly_one(n), Polynomial.const(n, GaussianRational(1, 2))):
            assert list(c.nums) == [0] and c.is_constant()
        assert poly_one(n).is_one() and not x(n, 0).is_constant()
        assert x(n, n - 1).extend(n + 2, list(range(2, n + 2))).project(list(range(2, n + 2))) == x(n, n - 1)


# -- work ------------------------------------------------------------------------------


def test_floor_width_arithmetic_unpacks_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an exponent was unpacked or repacked")

    a = x(3, 0, 5) * x(3, 1) + Polynomial.const(3, Fraction(1, 2))
    b = x(3, 2, 3) + x(3, 1) * Polynomial.const(3, GaussianRational(1, 1))
    for name in ("_repacked", "_split", "_pack", "_moved"):
        monkeypatch.setattr(poly_module, name, forbidden)
    monkeypatch.setattr(Polynomial, "_unpack", forbidden)
    assert not (a * b).is_zero() and not (b * b).is_zero()
    assert not poly_dot(3, [(a, b), (b, a), (a, a)]).is_zero()
    assert not a.diff(0).is_zero() and not b.diff(1).is_zero()
    assert poly_one(3).is_one() and not a.is_one()
    assert not (a + b).is_zero()
