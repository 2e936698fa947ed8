"""Lie algebroids by structure functions, the infinitesimal equations for
forms and (1,1)-tensors, compatibility between them, and the construction
turning a checked subbundle frame into algebroid data plus a closed 2-form
datum.

Sections are coefficient vectors on the frame e_1..e_m, and every equation
is read on frame sections and coordinate fields from data formed once per
datum: the structure functions by pair, c(a, b, .), the grids
Theta_k[a][b] = theta[a][b]_k and the columns l(e_a) and r d_k.  For
g = sum_a g^a e_a,

    [e_a, g]^c   = sum_d g^d c(a, d, c) + rho(e_a)(g^c),
    D_X(e_a)     = sum_k X^k Theta_k[a]            (D is C-infinity-linear in X),
    D_{d_k}(g)^b = sum_a (g^a Theta_k[a][b] + dk g^a l(e_a)^b) - (r d_k)(g^b),
    [d_i, d_j] = 0  and  [d_i, d_j]_r = sum_m (di r^m_j - dj r^m_i) d_m.

Each equation sums, by output index, the products of nonzero entries only.
The definitional forms (D along any field and section by the Leibniz rule,
the bracket of any two sections, the squared derivation along any two
fields) are oracles in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from .errors import PreconditionError
from .symbolic import dot, solve_columns
from .symbolic.scalar import _kept
from .courant import _coordinate_D, apply_rr
from .dirac import (
    GFrame,
    Verdict,
    _components,
    _frame_bracket,
    _require,
    check_involutive,
    check_lagrangian,
    check_nijenhuis,
)
from .tensor import (
    OneOneTensor,
    PForm,
    VectorField,
    _add_interior,
    _add_split,
    _partials,
    _sparse,
    combination,
    ext_d,
    lie_deriv_form,
)


class AlgebroidData:
    """Anchor columns and structure functions for a frame e_1..e_m.  The
    structure functions by pair (see `bracket`) and the verdict of
    `check_algebroid` are kept by the memo rule (see `_kept`)."""

    __slots__ = ("chart", "rank", "anchors", "struct", "_memo")

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
        self._memo = None

    def bracket(self, a: int, b: int) -> dict:
        """[e_a, e_b] as {c: c(a, b, c)} over its nonzero structure functions,
        a dict kept on A and shared by every caller, who must not change it."""
        return _kept(self, "rows", _pair_rows, self.rank, self.struct)[a, b]


def _pair_rows(m: int, struct: dict) -> dict:
    rows = {(p, q): {} for p in range(m) for q in range(m)}
    for (p, q, c), val in struct.items():
        rows[p, q][c] = val
        rows[q, p][c] = -val
    return rows


def tangent_algebroid(chart) -> AlgebroidData:
    """The tangent bundle with coordinate frame, identity anchor, zero bracket."""
    anchors = [VectorField.coordinate(chart, k) for k in range(chart.dim)]
    return AlgebroidData(chart, anchors, {})


# -- sums over nonzero entries ------------------------------------------------------------
# `out` maps an output index (a frame index, or a form's component key) to the
# (factor, factor) pairs of its sum; the sparse operands are {index: nonzero entry}.


def _add(out, f, v: dict, s=1):
    """out += s * f * v."""
    if f:
        f = f if s > 0 else -f
        for c, vc in v.items():
            out[c].append((f, vc))


def _add_deriv(out, X: dict, g: dict, s=1):
    """out += s * X(g), the derivative of each entry of g along X."""
    if X:
        X = X if s > 0 else {j: -x for j, x in X.items()}
        for c, gc in g.items():
            out[c] += [(x, gc.diff(j)) for j, x in X.items()]


def _add_bracket(out, A: AlgebroidData, rho, a: int, g: dict, s=1):
    """out += s * [e_a, g]."""
    for d, gd in g.items():
        _add(out, gd, A.bracket(a, d), s)
    _add_deriv(out, rho[a], g, s)


def _add_D(out, T: "IMOneOne", k: int, g: dict, s=1):
    """out += s * D_{d_k}(g)."""
    theta, lcol, rd = _grids(T)
    for a, ga in g.items():
        _add(out, ga, theta[k][a], s)
        _add(out, ga.diff(k), lcol[a], s)
    _add_deriv(out, rd[k], g, -s)


def _add_D_along(out, theta, X: dict, a: int, s=1):
    """out += s * D_X(e_a) = s * sum_k X^k Theta_k[a]."""
    for k, x in X.items():
        _add(out, x, theta[k][a], s)


def _named(label: str, out, chart):
    """(label + index, its sum) for each index of out, in order."""
    return ((f"{label}{c}", dot(chart, out[c])) for c in sorted(out))


# -- the algebroid axioms ------------------------------------------------------------------


def check_algebroid(A: AlgebroidData) -> Verdict:
    """Anchor morphism plus Jacobi identity on frame triples, decided once per A
    unless `dirac_to_algebroid` kept its frame's involutivity pass there."""
    return _kept(A, "axioms", _decide_axioms, A)


def _decide_axioms(A: AlgebroidData) -> Verdict:
    return Verdict.first(_axiom_equations(A))


def _axiom_equations(A: AlgebroidData):
    """[rho(a), rho(b)] - rho([a, b]), then the Jacobi sums, with
    [[a, b], c] + [[b, c], a] + [[c, a], b] = -([c, [a, b]] + [a, [b, c]] + [b, [c, a]])."""
    rho = [_sparse(X.comps) for X in A.anchors]
    for a, b in combinations(range(A.rank), 2):
        out = defaultdict(list)
        _add_deriv(out, rho[a], rho[b])
        _add_deriv(out, rho[b], rho[a], -1)
        for c, v in A.bracket(a, b).items():
            _add(out, v, rho[c], -1)
        yield from _named(f"anchor[{a},{b}]_", out, A.chart)
    for a, b, c in combinations(range(A.rank), 3):
        out = defaultdict(list)
        for u, v, w in ((c, a, b), (a, b, c), (b, c, a)):
            _add_bracket(out, A, rho, u, A.bracket(v, w), -1)
        yield from _named(f"jacobi[{a},{b},{c}]_", out, A.chart)


# -- IM forms -------------------------------------------------------------------------


@dataclass(frozen=True)
class IMForm:
    """A pair of bundle maps (mu, nu) into forms of degree p-1 and p,
    stored by values on the frame sections."""

    parent: AlgebroidData
    degree: int
    mu: tuple
    nu: tuple


def check_IM_form(imf: IMForm) -> Verdict:
    """The three structure equations on frame-section pairs.

    The pointwise (tensorial) equation is checked first; given it, the two
    differential equations on frame pairs settle the general case.
    """
    _require(check_algebroid(imf.parent), "algebroid axioms")
    return Verdict.first(_form_equations(imf))


def _form_equations(imf: IMForm):
    A, mu, nu = imf.parent, imf.mu, imf.nu
    chart, m, rho = A.chart, A.rank, [_sparse(X.comps) for X in A.anchors]
    # third equation: i_{rho(a)} mu(b) = -i_{rho(b)} mu(a)
    for a in range(m):
        for b in range(a, m):
            out = defaultdict(list)
            _add_interior(out, rho[a], mu[b])
            _add_interior(out, rho[b], mu[a])
            yield from _named(f"symmetry[{a},{b}]", out, chart)
    # mu([a, b]) = L_{rho(a)} mu(b) - i_{rho(b)}(d mu(a) + nu(a)) and
    # nu([a, b]) = L_{rho(a)} nu(b) - i_{rho(b)} d nu(a) on ordered frame pairs
    one, d_mu, d_nu = chart.one(), [ext_d(w) + v for w, v in zip(mu, nu)], [ext_d(v) for v in nu]
    for a in range(m):
        for b in range(m):
            for label, forms, dw in (("mu_eq", mu, d_mu), ("nu_eq", nu, d_nu)):
                out = defaultdict(list)
                for c, v in A.bracket(a, b).items():
                    _add(out, v, forms[c].comps)
                _add(out, one, lie_deriv_form(A.anchors[a], forms[b]).comps, -1)
                _add_interior(out, rho[b], dw[a])
                yield from _named(f"{label}[{a},{b}]", out, chart)


# -- IM (1,1)-tensors --------------------------------------------------------------------


@dataclass(frozen=True)
class IMOneOne:
    """A degree-1 derivation datum (D, l, r) on the algebroid frame.

    theta[a][b] is the 1-form coefficient of e_b in D(e_a), so that
    D_X(e_a) = sum_b theta[a][b](X) e_b; l is an m x m grid with
    l(e_a) = sum_b l_grid[b][a] e_b; r acts on the base.  What the equations
    read (`_grids`) is kept by the memo rule (see `_kept`)."""

    parent: AlgebroidData
    theta: tuple
    l_grid: tuple
    r: OneOneTensor
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def _grids(T: IMOneOne) -> tuple:
    """(Theta, l, rd) with Theta[k][a] = D_{d_k}(e_a), l[a] = l(e_a) and rd[k] = r d_k,
    each {index: nonzero entry}; kept on T under "grids"."""
    return _kept(T, "grids", _sparse_grids, T)


def _sparse_grids(T: IMOneOne) -> tuple:
    return (
        [[_sparse(w.comps.get((k,)) for w in row) for row in T.theta] for k in range(T.r.chart.dim)],
        [_sparse(col) for col in zip(*T.l_grid)],
        [_sparse(col) for col in zip(*T.r.grid)],
    )


def check_IM_oneone(T: IMOneOne) -> Verdict:
    """The four structure equations for a derivation triple on an algebroid."""
    _require(check_algebroid(T.parent), "algebroid axioms")
    return Verdict.first(_oneone_equations(T))


def _oneone_equations(T: IMOneOne):
    A = T.parent
    chart, n, m = A.chart, A.chart.dim, A.rank
    rho, (theta, lcol, rd) = [_sparse(X.comps) for X in A.anchors], _grids(T)
    # (1) r . rho = rho . l
    for a in range(m):
        out = defaultdict(list)
        for j, x in rho[a].items():
            _add(out, x, rd[j])
        for b, v in lcol[a].items():
            _add(out, v, rho[b], -1)
        yield from _named(f"anchor_l[{a}]_", out, chart)
    # (2) rho(D_{d_k}(a)) = D^r_{d_k}(rho(a)), the column k of L_Y r for Y = rho(a):
    # (L_Y r)^i_k = sum_j (Y^j dj r^i_k - r^j_k dj Y^i + r^i_j dk Y^j)
    dr = _partials(T.r)
    for a in range(m):
        for k in range(n):
            out = defaultdict(list)
            for b, v in theta[k][a].items():
                _add(out, v, rho[b])
            for j, y in rho[a].items():
                _add(out, y, _sparse(row[k] for row in dr[j]), -1)
                _add(out, y.diff(k), rd[j], -1)
            _add_deriv(out, rd[k], rho[a])
            yield from _named(f"anchor_D[{a}]_", out, chart)
    # (3) l([a,b]) = [a, l(b)] - D_{rho(b)}(a)
    for a in range(m):
        for b in range(m):
            out = defaultdict(list)
            for c, v in A.bracket(a, b).items():
                _add(out, v, lcol[c])
            _add_bracket(out, A, rho, a, lcol[b], -1)
            _add_D_along(out, theta, rho[b], a)
            yield from _named(f"l_bracket[{a},{b}]_", out, chart)
    # (4) D_X([a,b]) = [a, D_X(b)] - [b, D_X(a)] + D_{[rho(b),X]}(a) - D_{[rho(a),X]}(b),
    # whose two sides change sign with (a, b): read on a < b, with [rho(b), d_k] = -dk rho(b)
    for a, b in combinations(range(m), 2):
        for k in range(n):
            out = defaultdict(list)
            _add_D(out, T, k, A.bracket(a, b))
            _add_bracket(out, A, rho, a, theta[k][b], -1)
            _add_bracket(out, A, rho, b, theta[k][a])
            _add_D_along(out, theta, {j: x.diff(k) for j, x in rho[b].items()}, a)
            _add_D_along(out, theta, {j: x.diff(k) for j, x in rho[a].items()}, b, -1)
            yield from _named(f"D_bracket[{a},{b}]_", out, chart)


def check_IM_nijenhuis(T: IMOneOne) -> Verdict:
    """Vanishing torsion, l-D commutation, and the squared-derivation equation."""
    _require(check_algebroid(T.parent), "algebroid axioms")
    torsion = check_nijenhuis(T.r)
    if torsion.status != "pass":
        return torsion
    return Verdict.first(_nijenhuis_equations(T))


def _nijenhuis_equations(T: IMOneOne):
    """l(D_X(a)) - D_X(l(a)), then the squared-derivation equation
    l(D_{[X,Y]}(a)) - [D_X, D_Y](a) - D_{[X,Y]_r}(a) on coordinate fields."""
    chart, m = T.parent.chart, T.parent.rank
    n = chart.dim
    theta, lcol, _ = _grids(T)
    for a in range(m):
        for x in range(n):
            out = defaultdict(list)
            for b, v in theta[x][a].items():
                _add(out, v, lcol[b])
            _add_D(out, T, x, lcol[a], -1)
            yield from _named(f"l_D_comm[{a}]_", out, chart)
    dr = _partials(T.r)
    deformed = {
        (i, j): _sparse(dr[i][h][j] - dr[j][h][i] for h in range(n)) for i, j in combinations(range(n), 2)
    }
    for a in range(m):
        for i, j in combinations(range(n), 2):
            out = defaultdict(list)
            _add_D(out, T, i, theta[j][a], -1)
            _add_D(out, T, j, theta[i][a])
            _add_D_along(out, theta, deformed[i, j], a, -1)
            yield from _named(f"D_square[{a};{i},{j}]_", out, chart)


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
    A, B = imf.parent, T.parent
    if B is not A and (B.anchors != A.anchors or B.struct != A.struct):
        raise PreconditionError("data live on different algebroids")
    return Verdict.first(_compat_equations(imf, T))


def _compat_equations(imf: IMForm, T: IMOneOne):
    chart = imf.parent.chart
    theta, _, rd = _grids(T)
    ident, rows = [{k: chart.one()} for k in range(chart.dim)], [_sparse(row) for row in T.r.grid]

    def l_line(label, w_l, w):
        """w(l(a)) - w(a)_r by (first slot, rest), with w_r(X1; X2..) = w(r X1, X2..)."""
        out = defaultdict(list)
        _add_split(out, ident, w_l)
        _add_split(out, rows, w, -1)
        return _named(label, out, chart)

    for a, (mu_a, nu_a) in enumerate(zip(imf.mu, imf.nu)):
        if mu_a.degree < 1:
            raise ValueError("need degree >= 1")
        # mu(l(a)) = mu(a)_r and nu(l(a)) = nu(a)_r; a zero nu(a) names nu(l(a)) by its form keys
        l_a = [row[a] for row in T.l_grid]
        mu_l = combination(imf.mu, l_a, PForm.zero(chart, mu_a.degree))
        nu_l = combination(imf.nu, l_a, PForm.zero(chart, nu_a.degree))
        yield from l_line(f"mu_l[{a}]", mu_l, mu_a)
        yield from _components(f"nu_l[{a}]", nu_l) if nu_a.is_zero() else l_line(f"nu_l[{a}]", nu_l, nu_a)
        # mu(D_X(a)) = D^{r,*}_X(mu(a)) = i_X d(mu(a)_r) - i_{rX} d mu(a), and the same
        # for nu: past the two lines above, mu(a)_r and nu(a)_r are the forms mu_l and nu_l
        pieces = (("mu_D", imf.mu, ext_d(mu_l), ext_d(mu_a)), ("nu_D", imf.nu, ext_d(nu_l), ext_d(nu_a)))
        for k in range(chart.dim):
            for label, forms, dw_r, dw in pieces:
                out = defaultdict(list)
                for b, v in theta[k][a].items():
                    _add(out, v, forms[b].comps)
                _add_interior(out, ident[k], dw_r, -1)
                _add_interior(out, rd[k], dw)
                yield from _named(f"{label}[{a}]", out, chart)


# -- the subbundle-to-algebroid construction ------------------------------------------


def dirac_to_algebroid(L: GFrame, samples: int = 3):
    """Algebroid data of a Dirac frame plus its closed 2-form datum.

    The frame must pass `check_lagrangian` at `samples` sample points and
    then `check_involutive`; otherwise PreconditionError.  A Dirac structure
    with the restricted Courant bracket and the anchor pr_T is a Lie algebroid
    (Courant 1990; Liu, Weinstein and Xu 1997), so A keeps that pass as its
    axiom verdict.  Anchors are the vector parts; structure functions are the
    coefficients of the brackets of frame sections in the frame, all solved in
    one solve_columns call against the frame matrix (possible exactly when the
    frame is involutive), on a graph frame read off its identity block, and
    the brackets are the ones the involutivity pass kept on L, so each is
    formed once; mu is the covector part, nu = 0.  The kernel
    transversality condition (the frame matrix has rank n) is part of the
    lagrangian pass.
    Build the algebroid once per frame and hand it to `transport_oneone`.
    """
    if check_lagrangian(L, samples).status != "pass":
        raise PreconditionError("frame is not lagrangian")
    if check_involutive(L, samples).status != "pass":
        raise PreconditionError("frame is not involutive")
    chart = L.chart
    n = chart.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    solved = solve_columns(L.matrix(), [_frame_bracket(L, a, b).components() for a, b in pairs])
    if None in solved:
        raise PreconditionError("bracket leaves the frame span")
    struct = {(a, b, c): coeffs[c] for (a, b), coeffs in zip(pairs, solved) for c in range(n)}
    A = AlgebroidData(chart, [s.vec for s in L.sections], struct)
    _kept(A, "axioms", check_involutive, L, samples)
    mu = tuple(s.cov for s in L.sections)
    nu = tuple(PForm.zero(chart, 2) for _ in range(n))
    return A, IMForm(A, 2, mu, nu)


def transport_oneone(A: AlgebroidData, L: GFrame, r: OneOneTensor) -> IMOneOne:
    """The derivation triple a compatible tensor induces on the algebroid A
    that `dirac_to_algebroid(L)` built from the frame L.

    l is solved from (r, r*) applied to frame sections, theta from the
    combined derivation along coordinate fields, all n + n^2 columns in one
    solve_columns call against the frame matrix.  Both solves succeed exactly when the
    compatibility conditions hold; otherwise PreconditionError, on l first.
    The frame's own checks are not repeated: A already carries them.
    """
    if A.anchors != tuple(s.vec for s in L.sections):
        raise ValueError("the algebroid is not built from this frame")
    chart = L.chart
    n = chart.dim
    columns = [apply_rr(s, r).components() for s in L.sections]
    columns += [d.components() for s in L.sections for d in _coordinate_D(s, r)]
    solved = solve_columns(L.matrix(), columns)
    lg, solved = solved[:n], solved[n:]  # solved[a * n + k] = D_{d_k}(e_a)
    if None in lg:
        raise PreconditionError("(r, r*) does not preserve the frame span")
    if None in solved:
        raise PreconditionError("derivation does not preserve the frame span")
    l_grid = tuple(tuple(lg[a][b] for a in range(n)) for b in range(n))
    theta = tuple(
        tuple(PForm(chart, 1, {(k,): solved[a * n + k][b] for k in range(n)}) for b in range(n)) for a in range(n)
    )
    return IMOneOne(A, theta, l_grid, r)


def _im_steps(A: AlgebroidData, imf: IMForm, L: GFrame, r: OneOneTensor | None = None):
    """The infinitesimal checks of a frame's algebroid as (name, verdict)
    steps: the axioms, then the form datum, then (given r) the tensor datum
    transported onto the same A.  `A, imf` come from one
    `dirac_to_algebroid(L, samples)` call, so the frame is checked once, at
    the caller's sample count, and its involutivity pass is the axiom verdict
    that A keeps.  Each stage runs only if the one before it passed; a tensor
    that cannot be transported ends the chain with an inconclusive step."""
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
