"""The coefficient rule: an element of Q(i) is a Fraction when its imaginary
part is 0 and a GaussianRational only when that part is nonzero, whatever
operation made it and whatever types went into it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dngeo.errors import PointEvaluationError, ZeroDenominatorError
from dngeo.symbolic import Chart, GaussianRational

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

I = GaussianRational(0, 1)


def canonical(c):
    return type(c) is Fraction or (type(c) is GaussianRational and c.im != 0)


def assert_canonical_scalar(s):
    for p in (s.num, s.den):
        for c in p.terms.values():
            assert canonical(c), (s, c)


# -- the operators of GaussianRational ---------------------------------------------

ONE_I = GaussianRational(1, 1)
REAL_G = GaussianRational(Fraction(3, 2), 0)  # built by hand, not canonical


@pytest.mark.parametrize(
    "value, want",
    [
        (I * I, Fraction(-1)),
        (I + -I, Fraction(0)),
        (ONE_I - I, Fraction(1)),
        (1 - ONE_I, GaussianRational(0, -1)),
        (ONE_I * ONE_I.conjugate(), Fraction(2)),
        (ONE_I / ONE_I, Fraction(1)),
        (2 / ONE_I, GaussianRational(1, -1)),
        (ONE_I ** 4, Fraction(-4)),
        (ONE_I ** 0, Fraction(1)),
        (I ** -2, Fraction(-1)),
        (REAL_G.conjugate(), Fraction(3, 2)),
        (REAL_G + 1, Fraction(5, 2)),
        (REAL_G * REAL_G, Fraction(9, 4)),
        (REAL_G / 3, Fraction(1, 2)),
        (Fraction(1, 2) + I, GaussianRational(Fraction(1, 2), 1)),
    ],
)
def test_operators_return_canonical_values(value, want):
    assert value == want
    assert type(value) is type(want)


def test_real_gaussian_equals_and_hashes_like_its_fraction():
    assert REAL_G == Fraction(3, 2) and Fraction(3, 2) == REAL_G
    assert hash(REAL_G) == hash(Fraction(3, 2))
    assert str(REAL_G) == str(Fraction(3, 2))


# -- scalars against constants -----------------------------------------------------

REAL = Chart("R", ("x", "y"))
COMPLEX = Chart("C", ("z", "w"), "complex")


@pytest.mark.parametrize(
    "scalar, other, want",
    [
        (COMPLEX.imag_unit(), I, True),
        (COMPLEX.imag_unit(), GaussianRational(0, -1), False),
        (COMPLEX.const(2) + COMPLEX.imag_unit(), GaussianRational(2, 1), True),
        (COMPLEX.const(2), 2, True),
        (COMPLEX.const(2), GaussianRational(2, 0), True),
        (COMPLEX.var("z"), I, False),
        (REAL.const(Fraction(3, 2)), REAL_G, True),
        (REAL.const(Fraction(3, 2)), Fraction(3, 2), True),
        # a nonzero imaginary part on a real chart compares unequal, not raising
        (REAL.const(1), ONE_I, False),
        (REAL.zero(), I, False),
    ],
)
def test_scalars_compare_with_constants(scalar, other, want):
    assert (scalar == other) is want
    assert (other == scalar) is want
    assert (scalar != other) is not want


# -- scalars on complex charts -----------------------------------------------------

small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
# GaussianRational(x, 0) is included on purpose: it enters as a Fraction
constants = st.one_of(small, st.builds(GaussianRational, small, small))
OPS = ("+", "-", "*", "/", "**")


@st.composite
def complex_scalars(draw):
    chart = Chart("C", ("x", "y", "z")[: draw(st.integers(2, 3))], "complex")
    values = []
    for _ in range(3):
        s = chart.const(draw(constants))
        if draw(st.booleans()):
            s = s + chart.var(draw(st.sampled_from(chart.variables)))
        values.append(s)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(OPS))
        a = values[draw(st.integers(0, len(values) - 1))]
        b = values[draw(st.integers(0, len(values) - 1))]
        try:
            if op == "+":
                values.append(a + b)
            elif op == "-":
                values.append(a - b)
            elif op == "*":
                values.append(a * b)
            elif op == "/":
                values.append(a / b)
            else:
                values.append(a ** draw(st.integers(-2, 3)))
        except ZeroDenominatorError:
            pass
    point = [draw(constants) for _ in chart.variables]
    return chart, values, point


@SETTINGS
@given(complex_scalars())
def test_every_coefficient_follows_the_rule(case):
    chart, values, point = case
    name = chart.variables[0]
    for s in values:
        assert_canonical_scalar(s)
        for v in chart.variables:
            assert_canonical_scalar(s.diff(v))
        try:
            assert_canonical_scalar(s.substitute({name: point[0]}))
        except PointEvaluationError:
            pass
        try:
            value = s.eval(point)
        except PointEvaluationError:
            continue
        assert canonical(value), value
