"""The cheap common cases of the exact core: `dot`, the fused sum of
products, against the left fold of scalar products it replaces; the
memoized partial derivatives of a ScalarExpr; and `random_scalar`, which
builds its polynomial in one dict, against the fold of scalar operations it
replaced, kept here as the oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dngeo.errors import ChartMismatchError
from dngeo.fixtures import chart2, chart3, chart4, random_fraction, random_scalar
from dngeo.symbolic import Chart, GaussianRational, Polynomial, ScalarExpr, dot
from test_trusted_scalars import CHARTS, POINTS, SETTINGS, scalars, value


def fold(chart, pairs):
    """sum a*b over pairs, folded from chart.zero() as the contractions were."""
    return sum((a * b for a, b in pairs), chart.zero())


def assert_same_fields(got, want):
    assert (got.num.nums, got.num.denom) == (want.num.nums, want.num.denom)
    assert (got.den.nums, got.den.denom) == (want.den.nums, want.den.denom)


# -- dot against the left fold ---------------------------------------------------------


@st.composite
def monomials(draw, chart):
    """c * x^e with c rational, or Gaussian on a complex chart."""
    c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.sampled_from((1, 2, 3))))
    if chart.mode == "complex" and draw(st.booleans()):
        c = GaussianRational(c, draw(st.integers(-2, 2).filter(bool)))
    e = draw(st.tuples(*[st.integers(0, 2)] * chart.dim))
    return ScalarExpr(chart, Polynomial(chart.dim, {e: c}), Polynomial.const(chart.dim, 1))


@st.composite
def factors(draw, chart, polynomial):
    """Zero, constants, one-term scalars, polynomials and, unless
    `polynomial`, rational scalars; Gaussian coefficients on complex charts."""
    s = draw(st.one_of(scalars(chart), monomials(chart)))
    if polynomial and not s.den.is_one():
        return ScalarExpr(chart, s.num, Polynomial.const(chart.dim, 1))
    return s


@st.composite
def dot_cases(draw):
    chart = draw(st.sampled_from(CHARTS))
    polynomial = draw(st.booleans())  # only denominator 1: the fused path
    pair = st.tuples(factors(chart, polynomial), factors(chart, polynomial))
    return chart, draw(st.lists(pair, max_size=6))


@SETTINGS
@given(dot_cases())
def test_dot_matches_the_left_fold(case):
    chart, pairs = case
    got = dot(chart, pairs)
    assert_same_fields(got, fold(chart, pairs))
    assert got.chart.compatible(chart)
    for p in POINTS:
        values = [(value(a, p), value(b, p)) for a, b in pairs]
        if all(u is not None and v is not None for u, v in values):
            assert value(got, p) == sum(u * v for u, v in values)


def test_dot_on_fixed_inputs():
    ch = CHARTS[0]
    x, y, zero = ch.var("x"), ch.var("y"), ch.zero()
    assert dot(ch, []) is zero
    assert dot(ch, [(x, zero), (zero, y)]) is zero
    assert dot(ch, [(x, y), (-y, x)]) is zero
    assert dot(ch, ((a, b) for a, b in [(x, x), (y, y)])) == x * x + y * y
    assert dot(ch, [(x / (y + 1), y), (x, x)]) == x * y / (y + 1) + x * x


def test_dot_refuses_mismatched_charts():
    ch, other = CHARTS[0], Chart("Q", ("u", "v"))
    x, u = ch.var("x"), other.var("u")
    for pairs in ([(x, u)], [(u, x)], [(ch.zero(), u)], [(x, x), (other.zero(), x)]):
        with pytest.raises(ChartMismatchError):
            dot(ch, pairs)
        with pytest.raises(ChartMismatchError):
            fold(ch, pairs)
    twin = Chart("R2'", ch.variables)  # compatible: same variables and mode
    assert dot(ch, [(twin.var("x"), x)]) == x * x


# -- the partials memo -------------------------------------------------------------------


def test_a_second_diff_is_read_from_the_memo(monkeypatch):
    ch = CHARTS[0]
    s = ch.scalar("x^2*y + 3*y") / ch.scalar("x + 1")
    first = [s.diff(k) for k in range(ch.dim)]
    calls = []
    diff = Polynomial.diff
    monkeypatch.setattr(Polynomial, "diff", lambda p, k: calls.append(k) or diff(p, k))
    assert all(s.diff(k) is d for k, d in enumerate(first))
    assert s.diff("x") is first[0]
    assert calls == []
    assert ch.scalar("x^2*y").diff("y") == ch.scalar("x^2") and calls


@SETTINGS
@given(st.sampled_from(CHARTS).flatmap(lambda ch: st.tuples(scalars(ch), st.integers(0, ch.dim - 1))))
def test_memoized_partials_equal_those_of_a_fresh_copy(case):
    s, k = case
    memo = s.diff(k)
    assert s.diff(k) is memo
    assert_same_fields(memo, ScalarExpr(s.chart, s.num, s.den).diff(k))


def test_the_zero_scalar_differentiates_to_itself():
    for ch in CHARTS:
        zero = ch.zero()
        assert all(zero.diff(k) is zero for k in range(ch.dim))
        assert ScalarExpr(ch, Polynomial.zero(ch.dim), Polynomial.const(ch.dim, 1)).diff(0) is zero


# -- random_scalar against the fold it replaced ------------------------------------------


def folded_random_scalar(chart, rng, max_deg, terms):
    out = chart.zero()
    for _ in range(rng.randint(1, terms)):
        t = chart.const(random_fraction(rng))
        for _ in range(rng.randint(0, max_deg)):
            t = t * chart.var(rng.choice(chart.variables))
        out = out + t
    return out


@pytest.mark.parametrize("chart", [chart2(), chart3(), chart4()], ids=lambda ch: ch.name)
@pytest.mark.parametrize("max_deg, terms", [(2, 2), (3, 2), (3, 3)])
def test_random_scalar_matches_the_fold(chart, max_deg, terms):
    for seed in range(50):
        rng, oracle = random.Random(seed), random.Random(seed)
        got = random_scalar(chart, rng, max_deg, terms)
        want = folded_random_scalar(chart, oracle, max_deg, terms)
        assert_same_fields(got, want)
        assert list(got.num.terms) == list(want.num.terms)
        assert rng.getstate() == oracle.getstate()
