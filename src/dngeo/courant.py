"""Sections of TM + T*M, the symmetric pairing, the Dorfman bracket, the
combined operator on both slots, and the derived brackets used to compare
compatibility notions.

The stored bracket is the (non-skew) Dorfman one,
    [[(X, a), (Y, b)]] = ([X, Y], L_X b - i_Y da);
its skew-symmetrization is derivable and not separately exposed.

Along a coordinate field the combined derivation of s = (Y, a) has the
closed form `_coordinate_D`, the column k of L_Y r beside the row k of
D^{r,*} on a from tensor.py:
    (D_{d_k} Y)^i  = sum_j (Y^j dj r^i_k - r^j_k dj Y^i + r^i_j dk Y^j),
    (D*_{d_k} a)_j = sum_i (a_i (dk r^i_j - dj r^i_k) + r^i_j dk a_i - r^i_k di a_j).
The derivation is C-infinity-linear in X, so `big_D` along any X is
sum_k X^k D_{d_k}(s), read from these rows as kept on s; the test suite
compares it with (D_r, D_r_star) as defined by brackets and Cartan's formula.

The bracket of the double of the Lie bialgebroid ((TM, [.,.]_r, r), T*M),
    [[(X, a), (Y, b)]]_double = ([X, Y]_r, L^r_X b - i_Y d^r a),
equals the derived bracket minus the concomitant,
    [[s1, s2]]_r - (0, C_L(s1, s2)),
and `double_bracket` is that difference.  The deformed differential d^r and
Lie derivative L^r live only in identities.py, as the oracle of the
selftest identities `double_bracket_relation` and
`deformed_cartan_expressions`.
"""

from __future__ import annotations

from .symbolic import ScalarExpr, dot, same_chart
from .symbolic.scalar import _kept
from .tensor import (
    OneOneTensor,
    PForm,
    VectorField,
    _D_r_star_rows,
    deformed_bracket,
    ext_d,
    interior,
    lie_bracket,
    lie_deriv_form,
    lie_deriv_tensor,
)


class GSection:
    """An immutable section (X, a) of the generalized tangent bundle.  The rows
    of `_coordinate_D` along each tensor are kept by the memo rule (see `_kept`)."""

    __slots__ = ("chart", "vec", "cov", "_memo")

    def __init__(self, vec: VectorField, cov: PForm):
        same_chart(vec, cov)
        if cov.degree != 1:
            raise ValueError("covector part must be a 1-form")
        self.chart = vec.chart
        self.vec = vec
        self.cov = cov
        self._memo = None

    @staticmethod
    def zero(chart) -> "GSection":
        return GSection(VectorField.zero(chart), PForm.zero(chart, 1))

    @staticmethod
    def from_vector(X: VectorField) -> "GSection":
        return GSection(X, PForm.zero(X.chart, 1))

    @staticmethod
    def from_form(a: PForm) -> "GSection":
        return GSection(VectorField.zero(a.chart), a)

    def __add__(self, other: "GSection") -> "GSection":
        return GSection(self.vec + other.vec, self.cov + other.cov)

    def __sub__(self, other: "GSection") -> "GSection":
        return GSection(self.vec - other.vec, self.cov - other.cov)

    def __neg__(self) -> "GSection":
        return GSection(-self.vec, -self.cov)

    def scale(self, f: ScalarExpr) -> "GSection":
        return GSection(self.vec.scale(f), self.cov.scale(f))

    def is_zero(self) -> bool:
        return self.vec.is_zero() and self.cov.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, GSection)
            and self.vec == other.vec
            and self.cov == other.cov
        )

    __hash__ = None

    def components(self):
        """Flat 2n-vector of components (vector part, then covector part)."""
        n = self.chart.dim
        return list(self.vec.comps) + [self.cov.get((k,)) for k in range(n)]

    def __repr__(self):
        return f"GSection({self.vec!r}, {self.cov!r})"


def apply_rr(s: GSection, r: OneOneTensor) -> GSection:
    """(r, r*) applied to a section."""
    return GSection(r.apply(s.vec), r.dual(s.cov))


def pairing(s1: GSection, s2: GSection) -> ScalarExpr:
    """<(X, a), (Y, b)> = b(X) + a(Y) = sum_i (X^i b_i + Y^i a_i)."""
    chart = same_chart(s1, s2)
    return dot(chart, [(s.vec.comps[i], c) for s, t in ((s1, s2), (s2, s1)) for (i,), c in t.cov.comps.items()])


def courant_bracket(s1: GSection, s2: GSection) -> GSection:
    """Dorfman bracket ([X, Y], L_X b - i_Y da)."""
    same_chart(s1, s2)
    return GSection(
        lie_bracket(s1.vec, s2.vec),
        lie_deriv_form(s1.vec, s2.cov) - interior(s2.vec, ext_d(s1.cov)),
    )


def big_D(X: VectorField, s: GSection, r: OneOneTensor) -> GSection:
    """Componentwise derivation (D^r_X on the vector part, D^{r,*}_X on the
    rest), as sum_k X^k bigD_{d_k}(s) over the rows of `_coordinate_D`."""
    chart = same_chart(X, s, r)
    n = chart.dim
    cols = zip(*(d.components() for d in _coordinate_D(s, r)))
    flat = [dot(chart, zip(X.comps, col)) for col in cols]
    return GSection(VectorField(chart, flat[:n]), PForm(chart, 1, {(j,): c for j, c in enumerate(flat[n:])}))


def _coordinate_D(s: GSection, r: OneOneTensor) -> tuple:
    """(bigD_{d_k}(s) for each k) for s = (Y, a), by the closed form of the
    module docstring, with each derivative of r, Y and a taken once; formed
    once per (s, r) and kept on s under id(r).  The kept pair holds r, so
    while it is kept no other tensor can have that id."""
    return _kept(s, id(r), _held_rows, s, r)[1]


def _held_rows(s: GSection, r: OneOneTensor) -> tuple:
    return r, _coordinate_rows(s, r)


def _coordinate_rows(s: GSection, r: OneOneTensor) -> tuple:
    chart = same_chart(s, r)
    lie, cov = lie_deriv_tensor(s.vec, r).grid, _D_r_star_rows(s.cov, r)
    return tuple(
        GSection(VectorField(chart, [row[k] for row in lie]), PForm(chart, 1, {(j,): c for j, c in enumerate(cov[k])}))
        for k in range(chart.dim)
    )


def concomitant_CL(s1: GSection, s2: GSection, r: OneOneTensor) -> PForm:
    """The 1-form X -> <bigD_X(s1), s2>, assembled on coordinate fields."""
    same_chart(s1, s2, r)
    row = _coordinate_D(s1, r)
    return PForm(s1.chart, 1, {(k,): pairing(d, s2) for k, d in enumerate(row)})


def bracket_Dr(s1: GSection, s2: GSection, r: OneOneTensor) -> GSection:
    """The derived bracket ([X,Y]_r, L_{rX} b - i_{rY} da), the closed form
    of [[(rX, r*a), (Y, b)]] + bigD_Y(X, a); the selftest compares the two."""
    same_chart(s1, s2, r)
    return GSection(
        deformed_bracket(s1.vec, s2.vec, r),
        lie_deriv_form(r.apply(s1.vec), s2.cov)
        - interior(r.apply(s2.vec), ext_d(s1.cov)),
    )


def contracted_bracket(s1: GSection, s2: GSection, r: OneOneTensor) -> GSection:
    """Bracket contracted by N = (r, 0):
    [[N s1, s2]] + [[s1, N s2]] - N([[s1, s2]]).

    It equals the derived bracket for this N; the selftest compares the two.
    """
    same_chart(s1, s2, r)

    def N(s: GSection) -> GSection:
        return GSection(r.apply(s.vec), PForm.zero(s.chart, 1))

    return (
        courant_bracket(N(s1), s2)
        + courant_bracket(s1, N(s2))
        - N(courant_bracket(s1, s2))
    )


def contracted_torsion(s1: GSection, s2: GSection, r: OneOneTensor) -> GSection:
    """Torsion of the contracted bracket for N = (r, 0):
    [[N s1, N s2]] - N([[s1, s2]]_N).

    This sign matches the classical convention (bracket of images minus image
    of the contracted bracket), so the value is exactly (torsion(X, Y), 0).
    """
    same_chart(s1, s2, r)

    def N(s: GSection) -> GSection:
        return GSection(r.apply(s.vec), PForm.zero(s.chart, 1))

    return courant_bracket(N(s1), N(s2)) - N(contracted_bracket(s1, s2, r))


# -- the double (Lie-bialgebroid) bracket --------------------------------------


def double_bracket(s1: GSection, s2: GSection, r: OneOneTensor) -> GSection:
    """Bracket of the double of the Lie bialgebroid ((TM, [.,.]_r, r), T*M),
    ([X, Y]_r, L^r_X b - i_Y d^r a), as [[s1, s2]]_r - (0, C_L(s1, s2))."""
    return bracket_Dr(s1, s2, r) - GSection.from_form(concomitant_CL(s1, s2, r))
