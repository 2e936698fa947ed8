"""The closed forms of the derivations D^r, D^{r,*} and the combined
derivation along any field, of the Lie derivative of p-forms, of the
Nijenhuis torsion, of the derived and the double bracket and of the tangent
lift, against their defining expressions: D^r through Lie brackets,
[Y, rX] - r([Y, X]), D^{r,*} as L_X(r*a) - L_{rX} a and L through Cartan's
formula i_X d + d i_X, the combined derivation as (D^r, D^{r,*}) by those
definitions, the torsion through Lie brackets,
[r dj, r dk] - r([r dj, dk]) - r([dj, r dk]), `bracket_Dr` through
[[(rX, r*a), (Y, b)]] + bigD_Y(X, a) and the contracted bracket,
`double_bracket` through ([X, Y]_r, L^r_X b - i_Y d^r a), and the mixed
block of `tangent_lift` through D^r_{d_j}(d_k).  Entries are drawn over Q on
2-, 3- and 4-charts and over Q(i) on a complex 2-chart, with zeros,
Gaussian coefficients and nonconstant denominators."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dngeo.courant import (
    GSection,
    _coordinate_D,
    apply_rr,
    big_D,
    bracket_Dr,
    contracted_bracket,
    courant_bracket,
    double_bracket,
)
from dngeo.identities import double_bracket_by_definition
from dngeo.symbolic import Chart, GaussianRational
from dngeo.tensor import (
    D_r,
    D_r_star,
    OneOneTensor,
    PForm,
    VectorField,
    ext_d,
    interior,
    lie_bracket,
    lie_deriv_form,
    nijenhuis_torsion,
    tangent_lift,
)

SETTINGS = settings(derandomize=True, max_examples=15, deadline=None, database=None)

CHARTS = [
    Chart("R2", ("x", "y")),
    Chart("R3", ("x", "y", "z")),
    Chart("R4", ("x", "y", "z", "w")),
    Chart("C2", ("z", "w"), "complex"),
]


@st.composite
def scalars(draw, chart, poles=True):
    """Zero, or c * x_k^e * x_l + d, divided by x_m + q or x_m^2 + q in a
    third of the draws when `poles`."""
    if draw(st.integers(0, 2)) == 0:
        return chart.zero()
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    if chart.mode == "complex":
        coeffs = st.one_of(coeffs, st.builds(GaussianRational, coeffs, coeffs))
    var = st.sampled_from(chart.variables).map(chart.var)
    out = chart.const(draw(coeffs)) * draw(var) ** draw(st.integers(0, 2)) * draw(var)
    out = out + chart.const(draw(coeffs))
    if poles and draw(st.integers(0, 2)) == 0:
        out = out / (draw(var) ** draw(st.integers(1, 2)) + draw(st.integers(1, 3)))
    return out


@st.composite
def cases(draw, chart):
    n = chart.dim
    one = st.just(chart.one())
    entry = scalars(chart)
    r = OneOneTensor(chart, [[draw(st.one_of(entry, one) if i == j else entry) for j in range(n)] for i in range(n)])
    vec = VectorField(chart, [draw(entry) for _ in range(n)])
    cov = PForm(chart, 1, {(k,): draw(entry) for k in range(n)})
    return r, GSection(vec, cov)


@st.composite
def sections(draw, chart):
    entry = scalars(chart)
    n = chart.dim
    vec = VectorField(chart, [draw(entry) for _ in range(n)])
    return GSection(vec, PForm(chart, 1, {(k,): draw(entry) for k in range(n)}))


@st.composite
def forms(draw, chart, degree):
    return PForm(chart, degree, {idx: draw(scalars(chart)) for idx in combinations(range(chart.dim), degree)})


def D_r_by_brackets(X, Y, r):
    """D^r_X Y = [Y, rX] - r([Y, X])."""
    return lie_bracket(Y, r.apply(X)) - r.apply(lie_bracket(Y, X))


def lie_deriv_by_cartan(X, w):
    """L_X w = i_X dw + d(i_X w) for a form of degree >= 1."""
    return interior(X, ext_d(w)) + ext_d(interior(X, w))


def D_r_star_by_definition(X, a, r):
    """D^{r,*}_X a = L_X(r* a) - L_{rX} a, with L by Cartan's formula."""
    return lie_deriv_by_cartan(X, r.dual(a)) - lie_deriv_by_cartan(r.apply(X), a)


def big_D_by_definition(X, s, r):
    """bigD_X(Y, a) = (D^r_X Y, D^{r,*}_X a), both by their definitions."""
    return GSection(D_r_by_brackets(X, s.vec, r), D_r_star_by_definition(X, s.cov, r))


def torsion_by_brackets(r):
    """N^i_jk from Lie brackets of the columns r dj and the coordinate fields."""
    chart = r.chart
    n = chart.dim
    cols = [VectorField(chart, [r.grid[i][j] for i in range(n)]) for j in range(n)]
    out = {}
    for j, k in combinations(range(n), 2):
        val = (
            lie_bracket(cols[j], cols[k])
            - r.apply(lie_bracket(cols[j], VectorField.coordinate(chart, k)))
            - r.apply(lie_bracket(VectorField.coordinate(chart, j), cols[k]))
        )
        for i in range(n):
            if not val.comps[i].is_zero():
                out[(i, j, k)] = val.comps[i]
    return out


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
@SETTINGS
@given(data=st.data())
def test_coordinate_table_equals_big_D_on_coordinate_fields(chart, data):
    r, s = data.draw(cases(chart))
    row = _coordinate_D(s, r)
    assert len(row) == chart.dim
    for k, d in enumerate(row):
        coord = VectorField.coordinate(chart, k)
        assert d == big_D(coord, s, r) == big_D_by_definition(coord, s, r), k


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
@SETTINGS
@given(data=st.data())
def test_derivations_along_any_field_equal_their_definitions(chart, data):
    r, s = data.draw(cases(chart))
    X = data.draw(sections(chart)).vec
    assert D_r(X, s.vec, r) == D_r_by_brackets(X, s.vec, r)
    assert D_r_star(X, s.cov, r) == D_r_star_by_definition(X, s.cov, r)
    assert big_D(X, s, r) == big_D_by_definition(X, s, r)


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
@SETTINGS
@given(data=st.data())
def test_lie_derivative_equals_cartans_formula_in_every_degree(chart, data):
    X = data.draw(sections(chart)).vec
    for degree in range(1, chart.dim + 1):
        w = data.draw(forms(chart, degree))
        assert lie_deriv_form(X, w) == lie_deriv_by_cartan(X, w), degree


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
@SETTINGS
@given(data=st.data())
def test_closed_torsion_equals_the_bracket_expression(chart, data):
    r, _ = data.draw(cases(chart))
    assert nijenhuis_torsion(r).comps == torsion_by_brackets(r)


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
@SETTINGS
@given(data=st.data())
def test_derived_bracket_equals_its_defining_and_contracted_expressions(chart, data):
    # The double bracket is read from the derived one, so it is checked on the
    # same draws against its definition.
    r, _ = data.draw(cases(chart))
    s1, s2 = (data.draw(sections(chart)) for _ in range(2))
    derived = bracket_Dr(s1, s2, r)
    assert derived == courant_bracket(apply_rr(s1, r), s2) + big_D_by_definition(s2.vec, s1, r)
    assert derived == contracted_bracket(s1, s2, r)
    assert double_bracket(s1, s2, r) == double_bracket_by_definition(s1, s2, r)


@pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.name)
@SETTINGS
@given(data=st.data())
def test_tangent_lift_mixed_block_is_D_r_on_coordinate_fields(chart, data):
    r, _ = data.draw(cases(chart))
    lift, big = tangent_lift(r)
    n = chart.dim
    coord = [VectorField.coordinate(chart, j) for j in range(n)]
    for j in range(n):
        entries = [big.zero()] * n
        for k in range(n):
            w = D_r_by_brackets(coord[j], coord[k], r)  # (L_{d_k} r)(d_j)
            entries = [e + big.var("v_" + chart.variables[k]) * c.extend(big) for e, c in zip(entries, w.comps)]
        assert [lift.grid[n + i][j] for i in range(n)] == entries, j


def test_the_draws_reach_every_chart_and_kind_of_entry():
    seen = set()

    @SETTINGS
    @given(data=st.data())
    def record(chart, data):
        r, s = data.draw(cases(chart))
        for c in [*(c for row in r.grid for c in row), *s.vec.comps]:
            seen.add((chart.name, "zero" if c.is_zero() else "poly" if c.den.is_one() else "fraction"))
            if not c.num.is_real():
                seen.add((chart.name, "gaussian"))

    for chart in CHARTS:
        record(chart)
    for name in ("R2", "R3", "R4", "C2"):
        assert {(name, kind) for kind in ("zero", "poly", "fraction")} <= seen
    assert ("C2", "gaussian") in seen


def test_examples():
    ch = CHARTS[0]
    x = ch.var("x")
    # diag(a, c) with a - c = 1 and c = x^2: N(dx, dy) = (a - c) c' dy = 2x dy
    r = OneOneTensor.diagonal(ch, [x * x + 1, x * x])
    assert nijenhuis_torsion(r).comps == {(1, 0, 1): 2 * x}
    # D_{dx}(dy, dy) for r = x*id is (0, dy), as bigD's own test states
    s = GSection(VectorField.coordinate(ch, 1), PForm.coordinate(ch, 1))
    row = _coordinate_D(s, OneOneTensor.scalar(ch, x))
    assert row[0] == GSection.from_form(PForm.coordinate(ch, 1))
    assert row[1] == GSection(VectorField.zero(ch), PForm(ch, 1, {(0,): -ch.one()}))
    assert row[1] == big_D_by_definition(VectorField.coordinate(ch, 1), s, OneOneTensor.scalar(ch, x))
