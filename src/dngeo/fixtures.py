"""Seeded deterministic generators and reusable geometric fixtures.

Everything here takes an explicit random.Random so the identity suite, the
CLI selftest and the test suite all reproduce the same objects for the same
seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .symbolic import Chart, GaussianRational, Polynomial, ScalarExpr
from .courant import GSection
from .dirac import make_graph_poisson
from .holomorphic import standard_complex_structure
from .tensor import Bivector, OneOneTensor, PForm, VectorField


def chart2(mode: str = "real") -> Chart:
    return Chart("R2", ("x", "y"), mode)


def chart3(mode: str = "real") -> Chart:
    return Chart("R3", ("x", "y", "z"), mode)


def chart4() -> Chart:
    """Real chart underlying C^2, ordered for the standard complex structure."""
    return Chart("C2real", ("x1", "x2", "y1", "y2"))


def random_fraction(rng: random.Random, span: int = 3) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.choice((1, 1, 2))
    return Fraction(num, den)


def random_scalar(
    chart: Chart, rng: random.Random, max_deg: int = 3, terms: int = 3
) -> ScalarExpr:
    """A random polynomial scalar (denominator one) of bounded degree: up to
    `terms` monomials c * x_k1 * ... * x_kd, summed in one dict."""
    coeffs: dict = {}
    for _ in range(rng.randint(1, terms)):
        c = random_fraction(rng)
        expo = [0] * chart.dim
        for _ in range(rng.randint(0, max_deg)):
            expo[chart.index(rng.choice(chart.variables))] += 1
        e = tuple(expo)
        s = coeffs.get(e, 0) + c
        if s:
            coeffs[e] = s
        else:  # a term that cancels is dropped, as a sum of scalars drops it
            coeffs.pop(e, None)
    p = Polynomial(chart.dim, coeffs)
    return ScalarExpr(chart, p, chart.one().den) if p.nums else chart.zero()


def random_vf(chart: Chart, rng: random.Random, max_deg: int = 3) -> VectorField:
    return VectorField(
        chart, [random_scalar(chart, rng, max_deg, 2) for _ in range(chart.dim)]
    )


def random_oneform(chart: Chart, rng: random.Random, max_deg: int = 3) -> PForm:
    return PForm(
        chart,
        1,
        {(k,): random_scalar(chart, rng, max_deg, 2) for k in range(chart.dim)},
    )


def random_pform(chart: Chart, degree: int, rng: random.Random, max_deg: int = 3) -> PForm:
    from itertools import combinations

    return PForm(
        chart,
        degree,
        {
            idx: random_scalar(chart, rng, max_deg, 2)
            for idx in combinations(range(chart.dim), degree)
        },
    )


def random_oneone(chart: Chart, rng: random.Random, max_deg: int = 3) -> OneOneTensor:
    return OneOneTensor(
        chart,
        [
            [random_scalar(chart, rng, max_deg, 2) for _ in range(chart.dim)]
            for _ in range(chart.dim)
        ],
    )


def random_bivector(chart: Chart, rng: random.Random, max_deg: int = 3) -> Bivector:
    from itertools import combinations

    return Bivector(
        chart,
        {
            idx: random_scalar(chart, rng, max_deg, 2)
            for idx in combinations(range(chart.dim), 2)
        },
    )


def random_gsection(chart: Chart, rng: random.Random, max_deg: int = 3) -> GSection:
    return GSection(random_vf(chart, rng, max_deg), random_oneform(chart, rng, max_deg))


# -- compatible pairs -------------------------------------------------------------


def pn_pair_2chart(rng: random.Random):
    """A compatible pair on a 2-chart: pi = h dx^dy with r = f id.

    On a 2-chart any such pair satisfies both compatibility conditions, so
    this is the generic seeded Poisson-compatible family.
    """
    ch = chart2()
    h = ch.one() + random_scalar(ch, rng, 2, 2) ** 2  # nonvanishing at samples
    f = random_scalar(ch, rng, 2, 2)
    pi = Bivector(ch, {(0, 1): h})
    r = OneOneTensor.scalar(ch, f)
    return ch, pi, r


def split_43_fixture(a: ScalarExpr, b: ScalarExpr):
    """The 2-dimensional worked example: span(d/dx2) plus its annihilator,
    with the diagonal tensor diag(a(x1), b(x2))."""
    ch = a.chart
    from .dirac import make_split

    L = make_split([VectorField.coordinate(ch, 1)])
    r = OneOneTensor.diagonal(ch, [a, b])
    return L, r


# -- holomorphic constructions ------------------------------------------------------


def expand_holomorphic_poly(chart: Chart, terms: dict):
    """Expand a polynomial p(z1, z2) with Gaussian coefficients into real and
    imaginary parts over the chart (x1, x2, y1, y2).

    terms maps (d1, d2) to GaussianRational coefficients; z_k = x_k + i y_k.
    """
    x1, x2, y1, y2 = (chart.var(v) for v in chart.variables)
    re_total, im_total = chart.zero(), chart.zero()
    for (d1, d2), coeff in terms.items():
        re, im = chart.const(coeff.re), chart.const(coeff.im)
        for base_re, base_im, d in ((x1, y1, d1), (x2, y2, d2)):
            for _ in range(d):
                re, im = re * base_re - im * base_im, re * base_im + im * base_re
        re_total = re_total + re
        im_total = im_total + im
    return re_total, im_total


def holomorphic_poisson_real_part(rng: random.Random):
    """Real part graph(4 pi) of a holomorphic Poisson bivector p(z) dz1 ^ dz2.

    Returns (chart, J, pi4 = 4*pi, frame).  4*pi = Re(p) (dx1^dx2 - dy1^dy2)
    + Im(p) (dx1^dy2 + dy1^dx2) for the standard complex structure.
    """
    ch = chart4()
    J = standard_complex_structure(ch)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        key = (rng.randint(0, 1), rng.randint(0, 1))
        terms[key] = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
    if not any(bool(c) for c in terms.values()):
        terms[(0, 0)] = GaussianRational(1, 0)
    re, im = expand_holomorphic_poly(ch, terms)
    i1, i2, j1, j2 = 0, 1, 2, 3  # x1 x2 y1 y2
    pi4 = Bivector(
        ch,
        {
            (i1, i2): re,
            (j1, j2): -re,
            (i1, j2): im,
            (i2, j1): -im,
        },
    )
    return ch, J, pi4, make_graph_poisson(pi4)


def holomorphic_section_2chart(rng: random.Random, J=None, chart=None) -> GSection:
    """A holomorphic section of the generalized tangent bundle of (R^2, J):
    vector part Re(h) dx + Im(h) dy, covector part Re(g) dx - Im(g) dy for
    random holomorphic polynomials h, g in z = x + i y."""
    ch = chart or chart2()
    x, y = ch.var("x"), ch.var("y")

    def expand(coeffs):
        re_t, im_t = ch.zero(), ch.zero()
        for d, c in enumerate(coeffs):
            re, im = ch.const(c.re), ch.const(c.im)
            for _ in range(d):
                re, im = re * x - im * y, re * y + im * x
            re_t, im_t = re_t + re, im_t + im
        return re_t, im_t

    deg = rng.randint(0, 2)
    h = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(deg + 1)]
    g = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(deg + 1)]
    hre, him = expand(h)
    gre, gim = expand(g)
    return GSection(
        VectorField(ch, [hre, him]),
        PForm(ch, 1, {(0,): gre, (1,): -gim}),
    )


def quasi_fixture_4chart():
    """A compatible pair with nonzero torsion matched by a closed 3-form.

    Built by oracle: on the constant symplectic bivector of R^4, twist by the
    closed 2-form B = x3 dx1^dx2 - x1 dx2^dx3 via r = pi# B_flat (which keeps
    both compatibility conditions), expand the torsion on coordinates, and
    solve the graph relation torsion(Y, Z) = pi#(phi(Y, Z, .)) for phi.

    Returns (chart, pi, r, phi, frame)."""
    from itertools import combinations

    from .tensor import ext_d, interior, nijenhuis_torsion

    ch = Chart("R4", ("x1", "x2", "x3", "x4"))
    one = ch.one()
    pi = Bivector(ch, {(0, 1): one, (2, 3): one})
    x1, x3 = ch.var("x1"), ch.var("x3")
    B = PForm(ch, 2, {(0, 1): x3, (1, 2): -x1})
    assert ext_d(B).is_zero()
    n = ch.dim
    grid = [
        [
            pi.sharp(interior(VectorField.coordinate(ch, j), B)).comps[i]
            for j in range(n)
        ]
        for i in range(n)
    ]
    r = OneOneTensor(ch, grid)
    N = nijenhuis_torsion(r)

    def sharp_inv(v):
        c = v.comps
        return PForm(ch, 1, {(0,): c[1], (1,): -c[0], (2,): c[3], (3,): -c[2]})

    phi = PForm(
        ch,
        3,
        {
            (j, k, l): sharp_inv(
                N.apply(VectorField.coordinate(ch, j), VectorField.coordinate(ch, k))
            ).get((l,))
            for j, k, l in combinations(range(n), 3)
        },
    )
    return ch, pi, r, phi, make_graph_poisson(pi)


def c2_presymplectic_fixture():
    """The closed holomorphic 2-form dz1 ^ dz2 on C^2 as a (real, imaginary)
    pair: real part dx1^dx2 - dy1^dy2, imaginary part dx1^dy2 + dy1^dx2.

    The imaginary part equals minus the r-contraction of the real part, as
    the real-part correspondence requires."""
    ch = chart4()
    J = standard_complex_structure(ch)
    one = ch.one()
    omega = PForm(ch, 2, {(0, 1): one, (2, 3): -one})
    omega_im = PForm(ch, 2, {(0, 3): one, (1, 2): -one})  # dx1^dy2 + dy1^dx2
    return ch, J, omega, omega_im
