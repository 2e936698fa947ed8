"""Lie algebroids by structure functions, the infinitesimal equations for
forms and (1,1)-tensors, compatibility between them, and the construction
turning a checked subbundle frame into algebroid data plus a closed 2-form
datum.

Sections are handled as coefficient vectors with respect to the defining
frame; the degree-1 derivation datum of an IMOneOne is stored by its values
on frame sections and extended to scaled sections by its Leibniz rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations

from .errors import PreconditionError
from .symbolic import ScalarExpr, dot, solve_linear
from .courant import GSection, _coordinate_D, apply_rr, courant_bracket
from .dirac import (
    GFrame,
    Verdict,
    _components,
    _require,
    check_involutive,
    check_lagrangian,
    check_nijenhuis,
)
from .tensor import (
    OneOneTensor,
    PForm,
    VectorField,
    combination,
    deformed_bracket,
    ext_d,
    form_as_covform,
    form_r,
    interior,
    lie_bracket,
    lie_deriv_form,
    nijenhuis_torsion,
)


class AlgebroidData:
    """Anchor columns and structure functions for a frame e_1..e_m, plus the
    verdict on the algebroid axioms once `check_algebroid` decided it."""

    __slots__ = ("chart", "rank", "anchors", "struct", "_axioms")

    def __init__(self, chart, anchors, struct):
        self.chart = chart
        self.anchors = tuple(anchors)
        self.rank = len(self.anchors)
        m = self.rank
        clean = {}
        for (a, b, c), val in struct.items():
            if a >= b:
                raise ValueError("store structure functions with a < b")
            if not (0 <= a < m and 0 <= b < m and 0 <= c < m):
                raise ValueError("structure index out of range")
            if not val.is_zero():
                clean[(a, b, c)] = val
        self.struct = clean
        self._axioms = None

    def c(self, a: int, b: int, cc: int) -> ScalarExpr:
        if a == b:
            return self.chart.zero()
        if a < b:
            return self.struct.get((a, b, cc), self.chart.zero())
        val = self.struct.get((b, a, cc))
        return self.chart.zero() if val is None else -val

    def anchor_of(self, coeffs) -> VectorField:
        return combination(self.anchors, coeffs, VectorField.zero(self.chart))

    def frame_section(self, a: int):
        return [
            self.chart.one() if b == a else self.chart.zero() for b in range(self.rank)
        ]

    def bracket_coeffs(self, u, v):
        """[u, v] for coefficient-vector sections, with derivative terms."""
        rho_u = self.anchor_of(u)
        rho_v = self.anchor_of(v)
        out = []
        for c in range(self.rank):
            # c(a, b, c) u^a v^b over a < b, with c(b, a, c) = -c(a, b, c)
            terms = [(val, u[a] * v[b] - u[b] * v[a]) for (a, b, cc), val in self.struct.items() if cc == c]
            out.append(dot(self.chart, terms) + rho_u.deriv(v[c]) - rho_v.deriv(u[c]))
        return out


def tangent_algebroid(chart) -> AlgebroidData:
    """The tangent bundle with coordinate frame, identity anchor, zero bracket."""
    anchors = [VectorField.coordinate(chart, k) for k in range(chart.dim)]
    return AlgebroidData(chart, anchors, {})


def abelian_algebroid(chart, rank: int) -> AlgebroidData:
    anchors = [VectorField.zero(chart) for _ in range(rank)]
    return AlgebroidData(chart, anchors, {})


def check_algebroid(A: AlgebroidData) -> Verdict:
    """Anchor morphism plus Jacobi identity on frame triples, decided once per A."""
    if A._axioms is None:
        A._axioms = _decide_axioms(A)
    return A._axioms


def _decide_axioms(A: AlgebroidData) -> Verdict:
    e = [A.frame_section(a) for a in range(A.rank)]
    br = A.bracket_coeffs

    def axioms():
        for a, b in combinations(range(A.rank), 2):
            diff = lie_bracket(A.anchors[a], A.anchors[b]) - A.anchor_of(br(e[a], e[b]))
            yield from ((f"anchor[{a},{b}]_{i}", val) for i, val in enumerate(diff.comps))
        for a, b, c in combinations(range(A.rank), 3):
            terms = [br(br(e[u], e[v]), e[w]) for u, v, w in ((a, b, c), (b, c, a), (c, a, b))]
            yield from ((f"jacobi[{a},{b},{c}]_{k}", x + y + z) for k, (x, y, z) in enumerate(zip(*terms)))

    return Verdict.first(axioms())


# -- IM forms -------------------------------------------------------------------------


@dataclass(frozen=True)
class IMForm:
    """A pair of bundle maps (mu, nu) into forms of degree p-1 and p,
    stored by values on the frame sections."""

    parent: AlgebroidData
    degree: int
    mu: tuple
    nu: tuple

    def mu_of(self, coeffs) -> PForm:
        return combination(self.mu, coeffs, PForm.zero(self.parent.chart, self.degree - 1))

    def nu_of(self, coeffs) -> PForm:
        return combination(self.nu, coeffs, PForm.zero(self.parent.chart, self.degree))


def check_IM_form(imf: IMForm) -> Verdict:
    """The three structure equations on frame-section pairs.

    The pointwise (tensorial) equation is checked first; given it, the two
    differential equations on frame pairs settle the general case.
    """
    A = imf.parent
    _require(check_algebroid(A), "algebroid axioms")
    m = A.rank
    rho, mu, nu = A.anchors, imf.mu, imf.nu

    def equations():
        # third equation: i_{rho(a)} mu(b) = -i_{rho(b)} mu(a)
        for a in range(m):
            for b in range(a, m):
                yield from _components(f"symmetry[{a},{b}]", interior(rho[a], mu[b]) + interior(rho[b], mu[a]))
        # first two equations on ordered frame pairs
        for a in range(m):
            for b in range(m):
                br = A.bracket_coeffs(A.frame_section(a), A.frame_section(b))
                rhs1 = lie_deriv_form(rho[a], mu[b]) - interior(rho[b], ext_d(mu[a]) + nu[a])
                yield from _components(f"mu_eq[{a},{b}]", imf.mu_of(br) - rhs1)
                rhs2 = lie_deriv_form(rho[a], nu[b]) - interior(rho[b], ext_d(nu[a]))
                yield from _components(f"nu_eq[{a},{b}]", imf.nu_of(br) - rhs2)

    return Verdict.first(equations())


# -- IM (1,1)-tensors --------------------------------------------------------------------


@dataclass(frozen=True)
class IMOneOne:
    """A degree-1 derivation datum (D, l, r) on the algebroid frame.

    theta[a][b] is the 1-form coefficient of e_b in D(e_a), so that
    D_X(e_a) = sum_b theta[a][b](X) e_b; l is an m x m grid; r acts on the base.
    """

    parent: AlgebroidData
    theta: tuple
    l_grid: tuple
    r: OneOneTensor

    def l_of(self, coeffs):
        return [dot(self.parent.chart, zip(row, coeffs)) for row in self.l_grid]

    def D_of(self, X: VectorField, coeffs):
        """D_X(sum f^a e_a), extended by the Leibniz rule."""
        A = self.parent
        m = A.rank
        live = [a for a in range(m) if coeffs[a]]
        base = {a: [interior(X, self.theta[a][b]).as_scalar() for b in range(m)] for a in live}
        xf = {a: X.deriv(coeffs[a]) for a in live}
        # sum_a f^a theta[a](X) + X(f^a) l(e_a), with l(e_a)^b = l_grid[b][a]
        out = [
            dot(A.chart, [p for a in live for p in ((coeffs[a], base[a][b]), (xf[a], self.l_grid[b][a]))])
            for b in range(m)
        ]
        rX = self.r.apply(X)
        for a in live:
            out[a] = out[a] - rX.deriv(coeffs[a])
        return out


def check_IM_oneone(T: IMOneOne) -> Verdict:
    """The four structure equations for a derivation triple on an algebroid."""
    A = T.parent
    _require(check_algebroid(A), "algebroid axioms")
    chart = A.chart
    m = A.rank
    coords = [VectorField.coordinate(chart, k) for k in range(chart.dim)]
    e = [A.frame_section(a) for a in range(m)]

    # each derivation the equations share is built once, on first use
    @cache
    def D_coord(k, b):  # D_{d_k}(e_b)
        return T.D_of(coords[k], e[b])

    @cache
    def bracket(a, b):  # [e_a, e_b]
        return A.bracket_coeffs(e[a], e[b])

    @cache
    def rho_coord(b, k):  # [rho(b), d_k] = -dk rho(b)
        return VectorField(chart, [-c.diff(k) for c in A.anchors[b].comps])

    def equations():
        # (1) r . rho = rho . l
        for a in range(m):
            diff = T.r.apply(A.anchors[a]) - A.anchor_of(T.l_of(e[a]))
            yield from ((f"anchor_l[{a}]_{i}", val) for i, val in enumerate(diff.comps))
        # (2) rho(D_X(a)) = D^r_X(rho(a)) on coordinate X: the vector part of bigD
        for a in range(m):
            for k, d in enumerate(_coordinate_D(GSection.from_vector(A.anchors[a]), T.r)):
                diff = A.anchor_of(D_coord(k, a)) - d.vec
                yield from ((f"anchor_D[{a}]_{i}", val) for i, val in enumerate(diff.comps))
        # (3) l([a,b]) = [a, l(b)] - D_{rho(b)}(a)
        for a in range(m):
            for b in range(m):
                terms = zip(T.l_of(bracket(a, b)), A.bracket_coeffs(e[a], T.l_of(e[b])), T.D_of(A.anchors[b], e[a]))
                yield from ((f"l_bracket[{a},{b}]_{k}", x - y + z) for k, (x, y, z) in enumerate(terms))
        # (4) D_X([a,b]) = [a, D_X(b)] - [b, D_X(a)] + D_{[rho(b),X]}(a) - D_{[rho(a),X]}(b),
        # whose two sides change sign with (a, b): read on a < b
        for a, b in combinations(range(m), 2):
            for k, X in enumerate(coords):
                terms = zip(
                    T.D_of(X, bracket(a, b)),
                    A.bracket_coeffs(e[a], D_coord(k, b)),
                    A.bracket_coeffs(e[b], D_coord(k, a)),
                    T.D_of(rho_coord(b, k), e[a]),
                    T.D_of(rho_coord(a, k), e[b]),
                )
                for c, (x, x1, x2, x3, x4) in enumerate(terms):
                    yield f"D_bracket[{a},{b}]_{c}", x - (x1 - x2 + x3 - x4)

    return Verdict.first(equations())


def im_D_square(T: IMOneOne, X: VectorField, Y: VectorField, coeffs):
    """l(D_{[X,Y]}(a)) - [D_X, D_Y](a) - D_{[X,Y]_r}(a) as coefficients."""
    A = T.parent
    lhs = T.l_of(T.D_of(lie_bracket(X, Y), coeffs))
    comm = [
        x - y
        for x, y in zip(
            T.D_of(X, T.D_of(Y, coeffs)), T.D_of(Y, T.D_of(X, coeffs))
        )
    ]
    dr = T.D_of(deformed_bracket(X, Y, T.r), coeffs)
    return [a - b - c for a, b, c in zip(lhs, comm, dr)]


def check_IM_nijenhuis(T: IMOneOne) -> Verdict:
    """Vanishing torsion, l-D commutation, and the squared-derivation equation."""
    A = T.parent
    _require(check_algebroid(A), "algebroid axioms")
    torsion = check_nijenhuis(T.r)
    if torsion.status != "pass":
        return torsion
    chart = A.chart
    m = A.rank
    coords = [VectorField.coordinate(chart, k) for k in range(chart.dim)]
    e = [A.frame_section(a) for a in range(m)]
    l_D_comm = (
        (f"l_D_comm[{a}]_{k}", x - y)
        for a in range(m)
        for X in coords
        for k, (x, y) in enumerate(zip(T.l_of(T.D_of(X, e[a])), T.D_of(X, T.l_of(e[a]))))
    )
    D_square = (
        (f"D_square[{a};{xi},{yi}]_{k}", val)
        for a in range(m)
        for xi, yi in combinations(range(chart.dim), 2)
        for k, val in enumerate(im_D_square(T, coords[xi], coords[yi], e[a]))
    )
    return Verdict.first(chain(l_D_comm, D_square))


def check_IM_compat(imf: IMForm, T: IMOneOne) -> Verdict:
    """mu . l = r-contraction of mu, and mu . D = derivation of mu (same for
    nu), for a form and a tensor datum that pass their own checks."""
    if check_IM_form(imf).status != "pass":
        raise PreconditionError("the form datum fails its structure equations")
    if check_IM_oneone(T).status != "pass":
        raise PreconditionError("the tensor datum fails its structure equations")
    return _im_compat(imf, T)


def _im_compat(imf: IMForm, T: IMOneOne) -> Verdict:
    """`check_IM_compat` without the checks of the two data."""
    A = imf.parent
    if T.parent is not A and T.parent.anchors != A.anchors:
        raise PreconditionError("data live on different algebroids")
    chart = A.chart
    coords = [VectorField.coordinate(chart, k) for k in range(chart.dim)]
    r_coords = [T.r.apply(X) for X in coords]

    def D_star(w, w_r):
        """[D^{r,*}_X(w) = i_X d(w_r) - i_{rX} dw for each coordinate X], for
        w_r = form_r(w, r) skew."""
        dw_r, dw = ext_d(w_r.to_form()), ext_d(w)
        return [interior(X, dw_r) - interior(rX, dw) for X, rX in zip(coords, r_coords)]

    def equations():
        for a, (mu_a, nu_a) in enumerate(zip(imf.mu, imf.nu)):
            ea = A.frame_section(a)
            la = T.l_of(ea)
            # mu(l(a)) = mu(a)_r and nu(l(a)) = nu(a)_r
            mu_r, nu_r = form_r(mu_a, T.r), form_r(nu_a, T.r)
            yield from _components(f"mu_l[{a}]", form_as_covform(imf.mu_of(la)) - mu_r)
            lhs_nu = imf.nu_of(la)
            yield from _components(f"nu_l[{a}]", lhs_nu if nu_a.is_zero() else form_as_covform(lhs_nu) - nu_r)
            # mu(D_X(a)) = D^{r,*}_X(mu(a)), and the same for nu: past the two
            # lines above, mu(a)_r and nu(a)_r are the forms mu(l(a)) and nu(l(a))
            for X, dmu, dnu in zip(coords, D_star(mu_a, mu_r), D_star(nu_a, nu_r)):
                da = T.D_of(X, ea)
                yield from _components(f"mu_D[{a}]", imf.mu_of(da) - dmu)
                yield from _components(f"nu_D[{a}]", imf.nu_of(da) - dnu)

    return Verdict.first(equations())


# -- the subbundle-to-algebroid construction ------------------------------------------


def dirac_to_algebroid(L: GFrame, samples: int = 3):
    """Algebroid data of a Dirac frame plus its closed 2-form datum.

    The frame must pass `check_lagrangian` at `samples` sample points and
    then `check_involutive`; otherwise PreconditionError.  Anchors are the
    vector parts; structure functions come from solving the bracket of frame
    sections back into the frame (possible exactly when the frame is
    involutive); mu is the covector part, nu = 0.  The kernel transversality
    condition (the frame matrix has rank n) is part of the lagrangian pass.
    Build the algebroid once per frame and hand it to `transport_oneone` and
    the checks.
    """
    if check_lagrangian(L, samples).status != "pass":
        raise PreconditionError("frame is not lagrangian")
    if check_involutive(L, samples).status != "pass":
        raise PreconditionError("frame is not involutive")
    chart = L.chart
    n = chart.dim
    fm = L.matrix()
    struct = {}
    for a in range(n):
        for b in range(a + 1, n):
            br = courant_bracket(L.sections[a], L.sections[b])
            coeffs = solve_linear(fm, br.components())
            if coeffs is None:
                raise PreconditionError("bracket leaves the frame span")
            for c in range(n):
                struct[(a, b, c)] = coeffs[c]
    A = AlgebroidData(chart, [s.vec for s in L.sections], struct)
    mu = tuple(s.cov for s in L.sections)
    nu = tuple(PForm.zero(chart, 2) for _ in range(n))
    return A, IMForm(A, 2, mu, nu)


def transport_oneone(A: AlgebroidData, L: GFrame, r: OneOneTensor) -> IMOneOne:
    """The derivation triple a compatible tensor induces on the algebroid A
    that `dirac_to_algebroid(L)` built from the frame L.

    l is solved from (r, r*) applied to frame sections; theta from the
    combined derivation along coordinate fields.  Both solves succeed exactly
    when the compatibility conditions hold; otherwise PreconditionError.
    The frame's own checks are not repeated: A already carries them.
    """
    if A.anchors != tuple(s.vec for s in L.sections):
        raise ValueError("the algebroid is not built from this frame")
    chart = L.chart
    n = chart.dim
    fm = L.matrix()
    lg = []
    for a in range(n):
        coeffs = solve_linear(fm, apply_rr(L.sections[a], r).components())
        if coeffs is None:
            raise PreconditionError("(r, r*) does not preserve the frame span")
        lg.append(coeffs)
    l_grid = tuple(tuple(lg[a][b] for a in range(n)) for b in range(n))
    theta = []
    for a in range(n):
        rows = []
        for d in _coordinate_D(L.sections[a], r):
            coeffs = solve_linear(fm, d.components())
            if coeffs is None:
                raise PreconditionError("derivation does not preserve the frame span")
            rows.append(coeffs)
        theta.append(
            tuple(
                PForm(chart, 1, {(k,): rows[k][b] for k in range(chart.dim)})
                for b in range(n)
            )
        )
    return IMOneOne(A, tuple(theta), l_grid, r)


def _im_steps(A: AlgebroidData, imf: IMForm, L: GFrame, r: OneOneTensor | None = None):
    """The infinitesimal checks of a frame's algebroid as (name, verdict)
    steps: the axioms, then the form datum, then (given r) the tensor datum
    transported onto the same A.  `A, imf` come from one
    `dirac_to_algebroid(L, samples)` call, so the frame is checked once, at
    the caller's sample count; A keeps its axiom verdict for every later
    check.  Each stage runs only if the one before it passed; a tensor that
    cannot be transported ends the chain with an inconclusive step."""
    axioms = check_algebroid(A)
    yield "algebroid_axioms", axioms
    if axioms.status != "pass":
        return
    v = check_IM_form(imf)
    yield "im_form", v
    if v.status != "pass" or r is None:
        return
    try:
        T = transport_oneone(A, L, r)
        yield "im_oneone", check_IM_oneone(T)
        yield "im_nijenhuis", check_IM_nijenhuis(T)
        yield "im_compat", _im_compat(imf, T)
    except PreconditionError as e:
        yield "transport", Verdict.inconclusive(("precondition", str(e)))


# -- holomorphic (real-part) and quasi variants -----------------------------------------


def real_part_IM(imf: IMForm, T: IMOneOne) -> Verdict:
    """Certify a holomorphic IM form through its real part.

    Preconditions: l and r square to -id and the derivation satisfies the
    flatness relation l(D_X(u)) + D_{r(X)}(u) = 0.  Given those, the pair
    (mu, nu) encodes a holomorphic datum iff it passes the structure and
    compatibility checks against (D, l, r).
    """
    A = imf.parent
    chart = A.chart
    m = A.rank
    rsq = T.r.compose(T.r) + OneOneTensor.identity(chart)
    if not rsq.is_zero():
        raise PreconditionError("base tensor does not square to -id")
    for a in range(m):
        ea = A.frame_section(a)
        ll = T.l_of(T.l_of(ea))
        for k in range(m):
            expect = -chart.one() if k == a else chart.zero()
            if not (ll[k] - expect).is_zero():
                raise PreconditionError("fiber map does not square to -id")
    coords = [VectorField.coordinate(chart, k) for k in range(chart.dim)]
    for a in range(m):
        ea = A.frame_section(a)
        for X in coords:
            val = [
                x + y
                for x, y in zip(
                    T.l_of(T.D_of(X, ea)), T.D_of(T.r.apply(X), ea)
                )
            ]
            for k in range(m):
                if not val[k].is_zero():
                    raise PreconditionError("flatness relation fails")
    form_ok = check_IM_form(imf)
    if form_ok.status != "pass":
        return form_ok
    return _im_compat(imf, T)


def quasi_IM_check(imf: IMForm, r: OneOneTensor, phi: PForm) -> Verdict:
    """The twisted-torsion relation for the closed 2-form datum:
    <mu(a), torsion(.,.)> = -i_{rho(a)} phi on every frame section; the
    companion 3-form datum vanishes identically, asserted via the squared
    derivation of the transported tensor when available."""
    A = imf.parent
    chart = A.chart
    if phi.degree != 3:
        raise ValueError("need a 3-form")
    if not ext_d(phi).is_zero():
        raise PreconditionError("phi is not closed")
    N = nijenhuis_torsion(r)
    # <mu(a), N(., .)> + i_{rho(a)} phi, component by component
    return Verdict.first(
        item
        for a, (rho, mu_a) in enumerate(zip(A.anchors, imf.mu))
        for item in _components(f"quasi_mu[{a}]", N.pair_form(mu_a) + interior(rho, phi))
    )


def quasi_IM_nu_tilde(imf: IMForm, T: IMOneOne) -> Verdict:
    """The induced 3-form datum
    nu~(a)(X,Y,Z) = d mu(a)(X, N(Y,Z)) - <mu(D^2_{(Y,Z)} a), X> - d(N* mu(a))(X,Y,Z)
    vanishes for compatible data; asserted on frame sections and coordinates."""
    A = imf.parent
    chart = A.chart
    N = nijenhuis_torsion(T.r)
    coords = [VectorField.coordinate(chart, k) for k in range(chart.dim)]

    def values():
        for a, mu_a in enumerate(imf.mu):
            dmu = ext_d(mu_a)
            dNstar = ext_d(N.pair_form(mu_a))
            for yi, zi in combinations(range(chart.dim), 2):
                Y, Z = coords[yi], coords[zi]
                mu_dsq = imf.mu_of(im_D_square(T, Y, Z, A.frame_section(a)))
                for xi, X in enumerate(coords):
                    val = (
                        interior(N.apply(Y, Z), interior(X, dmu)).as_scalar()
                        - interior(X, mu_dsq).as_scalar()
                        - interior(Z, interior(Y, interior(X, dNstar))).as_scalar()
                    )
                    yield f"nu_tilde[{a};{xi},{yi},{zi}]", val

    return Verdict.first(values())
