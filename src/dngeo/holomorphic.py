"""Complex structures and the two-way dictionary between compatible pairs on
the real chart and holomorphic data.

Holomorphic objects are stored as (real, imaginary) pairs of real tensors;
the identification map sends (X, a) to ((X - i rX)/2, a - i r*(a)), and a
section is holomorphic exactly when it is flat for the combined derivation
of the complex structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .symbolic import Chart, same_chart
from .courant import GSection, _coordinate_D, courant_bracket, pairing
from .dirac import PASS, Verdict, _components
from .tensor import (
    Bivector,
    OneOneTensor,
    PForm,
    ext_d,
    form_r,
    interior,
    lie_bracket,
    lie_deriv_form,
    nijenhuis_torsion,
)


@dataclass(frozen=True)
class ComplexStructure:
    """A (1,1)-tensor with square -id and vanishing torsion on an even chart."""

    r: OneOneTensor

    def __post_init__(self):
        r = self.r
        if r.chart.dim % 2 != 0:
            raise PreconditionError("complex structure needs an even-dimensional chart")
        sq = r.compose(r) + OneOneTensor.identity(r.chart)
        if not sq.is_zero():
            raise PreconditionError("square is not -identity")
        if not nijenhuis_torsion(r).is_zero():
            raise PreconditionError("torsion does not vanish")

    @property
    def chart(self) -> Chart:
        return self.r.chart


def standard_complex_structure(chart: Chart) -> ComplexStructure:
    """J sending d/dx_k to d/dy_k on a chart ordered (x_1..x_m, y_1..y_m)."""
    n = chart.dim
    m = n // 2
    z = chart.zero()
    one = chart.one()
    grid = [[z for _ in range(n)] for _ in range(n)]
    for k in range(m):
        grid[m + k][k] = one
        grid[k][m + k] = -one
    return ComplexStructure(OneOneTensor(chart, grid))


@dataclass(frozen=True)
class ComplexGSection:
    re: GSection
    im: GSection

    def __post_init__(self):
        same_chart(self.re, self.im)

    def __sub__(self, other: "ComplexGSection") -> "ComplexGSection":
        return ComplexGSection(self.re - other.re, self.im - other.im)


def phi_map(s: GSection, J: ComplexStructure) -> ComplexGSection:
    """The identification (X, a) -> ((X - i rX)/2, a - i r*(a))."""
    same_chart(s, J.r)
    chart = s.chart
    half = chart.const(1) / chart.const(2)
    re = GSection(s.vec.scale(half), s.cov)
    im = GSection(J.r.apply(s.vec).scale(-half), -J.r.dual(s.cov))
    return ComplexGSection(re, im)


def phi_pairing(c1: ComplexGSection, c2: ComplexGSection):
    """Complex-bilinear pairing of identified sections: (re, im) scalars."""
    re = pairing(c1.re, c2.re) - pairing(c1.im, c2.im)
    im = pairing(c1.re, c2.im) + pairing(c1.im, c2.re)
    return re, im


def is_holomorphic_section(s: GSection, J: ComplexStructure) -> bool:
    """Flatness for the combined derivation on every coordinate field."""
    return all(d.is_zero() for d in _coordinate_D(s, J.r))


def holo_form_from_real(omega: PForm, J: ComplexStructure):
    """(omega, -omega_J); raises when omega_J is not skew."""
    same_chart(omega, J.r)
    wr = form_r(omega, J.r)
    if not wr.is_skew():
        raise PreconditionError("omega_J is not antisymmetric")
    return omega, -wr.to_form()


def check_holo_form(pair, J: ComplexStructure) -> Verdict:
    """pair = (omega, omega1) encodes a holomorphic p-form iff omega1 = -omega_J
    and (omega, J) is a compatible pair."""
    from .dirac import check_form_compat

    omega, omega1 = pair
    same_chart(omega, omega1, J.r)
    wr = form_r(omega, J.r)
    if not wr.is_skew():
        return Verdict.fail(("omega_J", "not antisymmetric"))
    imaginary = Verdict.first(_components("imaginary part", omega1 + wr.to_form()))
    return imaginary if imaginary.status != PASS else check_form_compat(omega, J.r)


def phi_courant_check(s1: GSection, s2: GSection, J: ComplexStructure) -> Verdict:
    """Bracket preservation under the identification, for holomorphic inputs.

    The right side is expanded degreewise: the vector part is
    ([X,Y] - [rX, rY] - i([rX, Y] + [X, rY]))/4 and the covector part is
    (L_{X - i rX}(b - i r*b) - i_{Y - i rY} d(a - i r*a))/2, with d standing
    in for the holomorphic differential on holomorphic arguments.
    """
    r = J.r
    chart = same_chart(s1, s2, r)
    if not is_holomorphic_section(s1, J) or not is_holomorphic_section(s2, J):
        raise PreconditionError("inputs are not holomorphic sections")
    X, a = s1.vec, s1.cov
    Y, b = s2.vec, s2.cov
    quarter = chart.const(1) / chart.const(4)
    half = chart.const(1) / chart.const(2)
    vec_re = (lie_bracket(X, Y) - lie_bracket(r.apply(X), r.apply(Y))).scale(quarter)
    vec_im = (
        lie_bracket(r.apply(X), Y) + lie_bracket(X, r.apply(Y))
    ).scale(-quarter)
    da, drsa = ext_d(a), ext_d(r.dual(a))
    cov_re = (
        lie_deriv_form(X, b)
        - lie_deriv_form(r.apply(X), r.dual(b))
        - interior(Y, da)
        + interior(r.apply(Y), drsa)
    ).scale(half)
    cov_im = (
        lie_deriv_form(r.apply(X), b)
        + lie_deriv_form(X, r.dual(b))
        - interior(r.apply(Y), da)
        - interior(Y, drsa)
    ).scale(-half)
    rhs = ComplexGSection(GSection(vec_re, cov_re), GSection(vec_im, cov_im))
    diff = phi_map(courant_bracket(s1, s2), J) - rhs
    return Verdict.first(
        (f"{part}[{i}]", c) for part, sec in (("re", diff.re), ("im", diff.im)) for i, c in enumerate(sec.components())
    )


def bivector_from_sharp(op: OneOneTensor) -> Bivector:
    """Bivector whose sharp map has the given matrix (must be antisymmetric
    in the bivector sense); components pi^{ij} = (sharp dx^i)^j."""
    chart = op.chart
    n = chart.dim
    comps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if not (op.grid[i][j] + op.grid[j][i]).is_zero():
                raise ValueError("matrix is not the sharp of a bivector")
            comps[(i, j)] = op.grid[j][i]
    return Bivector(chart, comps)


def push_bivector(pi: Bivector, r: OneOneTensor) -> Bivector:
    """The bivector with sharp = r o pi#; needs pi# r* = r pi#."""
    return bivector_from_sharp(r.compose(pi.sharp_matrix()))
