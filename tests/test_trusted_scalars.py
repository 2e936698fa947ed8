"""Cheap scalars: the trusted constructor, the shared zero and the fast paths
of ScalarExpr arithmetic, against the canonicalising constructor and against
evaluation at rational points."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dngeo.errors import ChartMismatchError
from dngeo.symbolic import Chart, GaussianRational, Polynomial, ScalarExpr, same_chart, to_str
from dngeo.symbolic.poly import poly_gcd, poly_one

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

CHARTS = [Chart("R2", ("x", "y")), Chart("C1", ("z",), "complex"), Chart("C2", ("z", "w"), "complex")]
POINTS = [(Fraction(1, 2), Fraction(3)), (Fraction(-2), Fraction(5, 7)), (Fraction(4, 3), Fraction(-1, 5))]


# -- generated scalars ---------------------------------------------------------------


@st.composite
def polys(draw, chart, max_terms=3):
    n = chart.dim
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    if chart.mode == "complex":
        coeffs = st.one_of(coeffs, st.builds(GaussianRational, coeffs, coeffs))
    expos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=max_terms, unique=True))
    terms = {e: chart.coeff(draw(coeffs)) for e in expos}
    return Polynomial(n, {e: c for e, c in terms.items() if c})


@st.composite
def scalars(draw, chart):
    """Zero, constants, polynomials (denominator 1, the trusted paths),
    fractions and proper fractions, all canonical.  A proper fraction's
    denominator has a term x^(2 dim + 1) of higher degree than its numerator,
    so it keeps a non-constant denominator."""
    num = draw(polys(chart))
    kind = draw(st.sampled_from(("zero", "const", "poly", "poly", "fraction", "proper")))
    if kind == "zero":
        return chart.zero()
    if kind == "const":
        return chart.const(draw(st.integers(-3, 3)))
    den = draw(polys(chart, 2)) if kind in ("fraction", "proper") else poly_one(chart.dim)
    if kind == "proper":
        den = den + Polynomial.variable(chart.dim, 0) ** (2 * chart.dim + 1)
        num = num if num.terms else poly_one(chart.dim)
    if den.is_zero():
        den = poly_one(chart.dim)
    return ScalarExpr(chart, num, den)


# -- the oracle: the same expression on field values -----------------------------------


def value(s, point):
    """s at point, or None at a pole."""
    pt = point[: s.chart.dim]
    d = s.den.eval(pt)
    return s.num.eval(pt) / d if d else None


def diff_value(s, k, point):
    """d s / d x_k at point from the quotient rule, on field values."""
    pt = point[: s.chart.dim]
    n, d = s.num.eval(pt), s.den.eval(pt)
    if not d:
        return None
    return (s.num.diff(k).eval(pt) * d - n * s.den.diff(k).eval(pt)) / (d * d)


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def assert_canonical(s):
    c = ScalarExpr(s.chart, s.num, s.den)
    assert (s.num, s.den) == (c.num, c.den)
    assert to_str(s) == to_str(c)


@st.composite
def cases(draw):
    chart = draw(st.sampled_from(CHARTS))
    a = draw(scalars(chart))
    b = draw(st.one_of(scalars(chart), st.just(-a), st.just(a), st.just(chart.zero())))
    return chart, a, b


def _proper_products():
    """Operands with non-1 denominators: without cancellation, with a cross
    pair cancelled, and over Q(i)."""
    r2, c1 = CHARTS[0], CHARTS[1]
    x, y, z, i = r2.var("x"), r2.var("y"), c1.var("z"), c1.imag_unit()
    return [
        (r2, x / (y + 1), (x + 2) / (x * y + 3)),
        (r2, (x * x - 1) / (y + 1), (y + 1) / (x + 1)),
        (c1, z / (z + i), (z + i) / (z * z - 2 * i)),
    ]


PROPER = _proper_products()


def _shared_denominators():
    """Sums whose denominators share the factor g: y, z + i, and y again
    with a numerator that g divides, which the canonical form cancels."""
    r2, c1 = CHARTS[0], CHARTS[1]
    x, y, z, i = r2.var("x"), r2.var("y"), c1.var("z"), c1.imag_unit()
    return [
        (r2, x / (x * y + y), r2.one() / (y * (x + 2))),
        (c1, c1.one() / (z * (z + i)), z / ((z + i) * (z - 1))),
        (r2, r2.one() / (y * (x + 1)), (y - 1) / (y * (x + y + 1))),
    ]


HENRICI = _shared_denominators()


@SETTINGS
@given(cases(), st.sampled_from(sorted(BINARY)), st.integers(0, 4))
@example(PROPER[0], "*", 2)
@example(PROPER[1], "*", 1)
@example(PROPER[2], "/", 0)
@example(HENRICI[0], "+", 0)
@example(HENRICI[1], "-", 0)
@example(HENRICI[2], "+", 0)
def test_results_are_canonical_and_match_evaluation(case, op, k):
    chart, a, b = case
    results = [(-a, lambda p: -value(a, p)), (a + (-a), lambda p: 0)]
    if not (op == "/" and b.is_zero()):
        results.append((BINARY[op](a, b), lambda p: BINARY[op](value(a, p), value(b, p))))
    results.append((a ** k, lambda p: value(a, p) ** k))
    for var in range(chart.dim):
        results.append((a.diff(var), lambda p, var=var: diff_value(a, var, p)))
    for s, want in results:
        assert_canonical(s)
        for p in POINTS:
            if value(a, p) is None or value(b, p) is None or (op == "/" and not value(b, p)):
                continue
            assert value(s, p) == want(p)


def test_the_examples_multiply_two_proper_fractions():
    for _, a, b in PROPER:
        assert not a.den.is_one() and not b.den.is_one() and not b.inverse().den.is_one()


def test_a_sum_over_a_shared_factor_cancels_it():
    for _, a, b in HENRICI:
        assert not poly_gcd(a.den, b.den).is_constant() and a.den != b.den
    r2, (_, a, b) = CHARTS[0], HENRICI[2]
    x, y = r2.var("x"), r2.var("y")
    assert a + b == (x + 2) / ((x + 1) * (x + y + 1))


def test_trusted_paths_on_fixed_inputs():
    ch = CHARTS[0]
    x, y = ch.var("x"), ch.var("y")
    zero = ch.zero()
    assert x + (-x) is zero and ((x / y) - (x / y)).is_zero()
    assert ch.const(5).diff("x") is zero and x.diff("y") is zero
    assert x * zero is zero and zero * (x / y) is zero
    assert x + zero is x and zero + x is x and -zero is zero
    assert to_str((x + 1) ** 3) == "x^3 + 3*x^2 + 3*x + 1"


# -- ** makes no product it does not use -----------------------------------------------


def test_pow_makes_no_unused_square(monkeypatch):
    ch = CHARTS[0]
    p = (ch.var("x") + ch.var("y") + 1).num
    count = 0
    mul = Polynomial.__mul__

    def counted(self, other):
        nonlocal count
        count += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    for k in range(1, 41):
        count = 0
        p ** k
        assert count == k.bit_length() + bin(k).count("1") - 2, k
    count = 0
    assert p ** 0 == poly_one(2) and count == 0


# -- Chart stays a plain value -------------------------------------------------------


class TestChartValue:
    def test_equal_hash_and_repr_of_separately_built_charts(self):
        a, b = Chart("R2", ("x", "y")), Chart("R2", ("x", "y"))
        assert a is not b and a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "Chart(name='R2', variables=('x', 'y'), mode='real')"
        assert repr(Chart("C1", ("z",), "complex")) == "Chart(name='C1', variables=('z',), mode='complex')"
        assert a != Chart("S2", ("x", "y")) and a.dim == 2

    def test_one_shared_zero_stored_as_zero_over_one(self):
        ch = Chart("R2", ("x", "y"))
        z = ch.zero()
        assert z is ch.zero() and z.chart is ch
        assert z.num.terms == {} and z.den == poly_one(2)
        assert ScalarExpr(ch, Polynomial.zero(2), ch.var("x").num).den == poly_one(2)

    def test_constants_and_the_shared_one_build_no_fraction(self, monkeypatch):
        from dngeo.tensor import VectorField

        ch = Chart("R3", ("x", "y", "z"))
        half = Fraction(1, 2)
        built = 0
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        three, one, zero, halved = ch.const(3), ch.one(), ch.const(0), ch.const(half)
        fields = [VectorField.coordinate(ch, k) for k in range(3)]
        assert built == 0
        Fraction(3)
        assert built == 1  # the counter sees the Fractions it should
        monkeypatch.undo()
        assert three == ch.const(Fraction(3)) and three.den == poly_one(3)
        assert one is ch.one() and one == ch.const(Fraction(1)) and zero.is_zero()
        assert fields[1].comps == (ch.zero(), one, ch.zero())
        assert halved == ch.scalar("1/2") and ch.coeff(half) is half

    def test_distinct_incompatible_charts_with_one_name_still_mismatch(self):
        a, b = Chart("R2", ("x", "y")), Chart("R2", ("u", "v"))
        with pytest.raises(ChartMismatchError):
            same_chart(a.var("x"), b.var("u"))
        with pytest.raises(ChartMismatchError):
            a.var("x") + b.var("u")
        with pytest.raises(ChartMismatchError):
            a.zero() * b.zero()
        # a compatible chart object is accepted through `compatible`
        c = Chart("R2", ("x", "y"))
        assert same_chart(a.var("x"), c.var("x")) is a
        assert (a.var("x") + c.var("y")).num == (a.var("x") + a.var("y")).num
