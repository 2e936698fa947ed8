"""The built-in identity suite.

Every invariant of the package that is quantified over random inputs lives
here as a named check, so the CLI selftest, the acceptance tests and the
property tests all exercise exactly the same statements.  Each check draws
its inputs from a seeded generator, alternating between 2- and 3-charts,
and returns the number of failing instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import PointEvaluationError
from .symbolic import (
    Chart,
    FracMatrix,
    dot,
    generic_rank,
    kernel_basis,
    parse_scalar,
    same_chart,
    solve_columns,
    to_str,
)
from .courant import (
    GSection,
    apply_rr,
    big_D,
    bracket_Dr,
    concomitant_CL,
    contracted_bracket,
    contracted_torsion,
    courant_bracket,
    double_bracket,
    pairing,
)
from .dirac import (
    check_concur,
    check_involutive,
    check_lagrangian,
    concomitant_C,
    concomitant_R,
    concomitant_S,
    concomitant_S_tilde,
    dirac_nijenhuis_report,
    frames_equal_span,
    hierarchy,
    make_graph_poisson,
    make_graph_presymplectic,
    null_distribution,
    transform_frame,
)
from .fixtures import (
    chart2,
    chart3,
    pn_pair_2chart,
    random_bivector,
    random_gsection,
    random_oneform,
    random_oneone,
    random_pform,
    random_scalar,
    random_vf,
)
from .tensor import (
    Bivector,
    OneOneTensor,
    PForm,
    VectorField,
    D_r,
    D_r_star,
    _D_r_star_rows,
    deformed_bracket,
    ext_d,
    form_r,
    interior,
    lie_bracket,
    lie_deriv_form,
    lie_deriv_tensor,
    nijenhuis_torsion,
    scalar_d,
    schouten_bivector,
    tangent_lift,
    cotangent_lift,
    vertical_lift_vf,
    )

IDENTITIES = {}


def identity(name):
    def wrap(fn):
        IDENTITIES[name] = fn
        return fn

    return wrap


def _chart_for(k: int) -> Chart:
    return chart2() if k % 2 == 0 else chart3()


def run_identity(name: str, seed: int = 0, instances: int = 3) -> int:
    """Number of failing instances out of `instances` for one named check."""
    fn = IDENTITIES[name]
    failures = 0
    for k in range(instances):
        rng = random.Random((seed, name, k).__repr__())
        if not fn(rng, k):
            failures += 1
    return failures


# -- symbolic kernel ------------------------------------------------------------------


@identity("scalar_field_axioms")
def _(rng, k):
    ch = _chart_for(k)
    a = random_scalar(ch, rng) / (ch.one() + random_scalar(ch, rng, 1) ** 2)
    b = random_scalar(ch, rng)
    c = random_scalar(ch, rng)
    ok = ((a + b) + c - (a + (b + c))).is_zero()
    ok = ok and ((a * b) * c - (a * (b * c))).is_zero()
    ok = ok and (a * (b + c) - (a * b + a * c)).is_zero()
    ok = ok and (a + (-a)).is_zero()
    if not b.is_zero():
        ok = ok and (a / b * b - a).is_zero()
    return ok


@identity("scalar_diff_leibniz")
def _(rng, k):
    ch = _chart_for(k)
    a = random_scalar(ch, rng)
    b = random_scalar(ch, rng) / (ch.one() + random_scalar(ch, rng, 1) ** 2)
    var = rng.randrange(ch.dim)
    return ((a * b).diff(var) - a.diff(var) * b - a * b.diff(var)).is_zero()


@identity("scalar_canonical_construction")
def _(rng, k):
    ch = _chart_for(k)
    a = random_scalar(ch, rng)
    b = random_scalar(ch, rng)
    d = ch.one() + random_scalar(ch, rng, 1) ** 2
    # two construction orders of (a + b)/d
    left = a / d + b / d
    right = (b + a) / d
    return left.num == right.num and left.den == right.den


@identity("kernel_basis_annihilation")
def _(rng, k):
    ch = _chart_for(k)
    rows = rng.randrange(1, 4)
    m = FracMatrix(
        ch,
        [[random_scalar(ch, rng, 2, 2) for _ in range(3)] for _ in range(rows)],
    )
    basis = kernel_basis(m)
    for vec in basis:
        for i in range(rows):
            if not dot(ch, zip(m.entries[i], vec)).is_zero():
                return False
    return generic_rank(m) + len(basis) == 3


@identity("schwartz_zippel_crosscheck")
def _(rng, k):
    ch = _chart_for(k)
    a = random_scalar(ch, rng)
    if a.is_zero():
        return True
    hits = 0
    for s in range(8):
        point = [Fraction(rng.randint(1, 10**6)) for _ in range(ch.dim)]
        try:
            if a.eval(point):
                hits += 1
        except PointEvaluationError:
            continue
    return hits >= 1


@identity("print_parse_roundtrip")
def _(rng, k):
    ch = _chart_for(k)
    a = random_scalar(ch, rng) / (ch.one() + random_scalar(ch, rng, 1) ** 2)
    return parse_scalar(to_str(a), ch) == a


# -- tensor layer ----------------------------------------------------------------------


@identity("one_derivation_leibniz")
def _(rng, k):
    ch = _chart_for(k)
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    r = random_oneone(ch, rng)
    f = random_scalar(ch, rng)
    lhs = D_r(X, Y.scale(f), r)
    rhs = (
        D_r(X, Y, r).scale(f)
        + r.apply(Y).scale(X.deriv(f))
        - Y.scale(r.apply(X).deriv(f))
    )
    return (lhs - rhs).is_zero()


@identity("dual_one_derivation_leibniz")
def _(rng, k):
    ch = _chart_for(k)
    X = random_vf(ch, rng)
    a = random_oneform(ch, rng)
    r = random_oneone(ch, rng)
    f = random_scalar(ch, rng)
    lhs = D_r_star(X, a.scale(f), r)
    rhs = (
        D_r_star(X, a, r).scale(f)
        + r.dual(a).scale(X.deriv(f))
        - a.scale(r.apply(X).deriv(f))
    )
    return (lhs - rhs).is_zero()


@identity("duality_pairing")
def _(rng, k):
    ch = _chart_for(k)
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    a = random_oneform(ch, rng)
    r = random_oneone(ch, rng)
    lhs = interior(Y, D_r_star(X, a, r)).as_scalar()
    rhs = (
        X.deriv(interior(r.apply(Y), a).as_scalar())
        - r.apply(X).deriv(interior(Y, a).as_scalar())
        - interior(D_r(X, Y, r), a).as_scalar()
    )
    return (lhs - rhs).is_zero()


@identity("derivation_two_expressions")
def _(rng, k):
    ch = _chart_for(k)
    X = random_vf(ch, rng)
    a = random_oneform(ch, rng)
    r = random_oneone(ch, rng)
    lhs = D_r_star(X, a, r)
    rhs = interior(X, ext_d(r.dual(a))) - interior(r.apply(X), ext_d(a))
    return (lhs - rhs).is_zero()


@identity("naturality_projection")
def _(rng, k):
    big = chart3()
    small = chart2()
    r2 = random_oneone(small, rng)
    X2, Y2 = random_vf(small, rng), random_vf(small, rng)
    beta = random_oneform(small, rng)

    def lift(e):
        return e.extend(big)

    r1 = OneOneTensor(
        big,
        [
            [lift(r2.grid[0][0]), lift(r2.grid[0][1]), big.zero()],
            [lift(r2.grid[1][0]), lift(r2.grid[1][1]), big.zero()],
            [random_scalar(big, rng), random_scalar(big, rng), random_scalar(big, rng)],
        ],
    )
    X1 = VectorField(big, [lift(X2.comps[0]), lift(X2.comps[1]), random_scalar(big, rng)])
    Y1 = VectorField(big, [lift(Y2.comps[0]), lift(Y2.comps[1]), random_scalar(big, rng)])
    up = D_r(X1, Y1, r1)
    down = D_r(X2, Y2, r2)
    related = all((up.comps[i] - lift(down.comps[i])).is_zero() for i in range(2))
    pull = PForm(big, 1, {(0,): lift(beta.get((0,))), (1,): lift(beta.get((1,)))})
    lhs = D_r_star(X1, pull, r1)
    rhs = D_r_star(X2, beta, r2)
    related = related and all(
        (lhs.get((i,)) - lift(rhs.get((i,)))).is_zero() for i in range(2)
    )
    related = related and lhs.get((2,)).is_zero()
    return related


@identity("torsion_tensorial")
def _(rng, k):
    ch = _chart_for(k)
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    f = random_scalar(ch, rng)
    N = nijenhuis_torsion(random_oneone(ch, rng))
    return (N.apply(X.scale(f), Y) - N.apply(X, Y).scale(f)).is_zero()


def torsion_via_D(r: OneOneTensor, X: VectorField, Y: VectorField) -> VectorField:
    """r(D^r_X Y) - D^r_X(r Y); equals the torsion on (X, Y)."""
    return r.apply(D_r(X, Y, r)) - D_r(X, r.apply(Y), r)


def torsion_via_Dstar(r: OneOneTensor, X: VectorField, Y: VectorField, a: PForm):
    """<r*(D^{r,*}_X a) - D^{r,*}_X(r* a), Y>; equals <a, torsion(X, Y)>."""
    diff = r.dual(D_r_star(X, a, r)) - D_r_star(X, r.dual(a), r)
    return interior(Y, diff).as_scalar()


@identity("torsion_via_derivation")
def _(rng, k):
    ch = _chart_for(k)
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    r = random_oneone(ch, rng)
    return (torsion_via_D(r, X, Y) - nijenhuis_torsion(r).apply(X, Y)).is_zero()


@identity("torsion_via_dual_derivation")
def _(rng, k):
    ch = _chart_for(k)
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    a = random_oneform(ch, rng)
    r = random_oneone(ch, rng)
    lhs = torsion_via_Dstar(r, X, Y, a)
    rhs = interior(nijenhuis_torsion(r).apply(X, Y), a).as_scalar()
    return (lhs - rhs).is_zero()


@identity("d_squared_zero")
def _(rng, k):
    ch = _chart_for(k)
    w = random_pform(ch, rng.randrange(0, ch.dim), rng)
    return ext_d(ext_d(w)).is_zero()


@identity("cartan_magic")
def _(rng, k):
    ch = _chart_for(k)
    X = random_vf(ch, rng)
    w = random_pform(ch, rng.randrange(1, ch.dim + 1), rng)
    lhs = lie_deriv_form(X, w)
    rhs = interior(X, ext_d(w)) + ext_d(interior(X, w))
    return (lhs - rhs).is_zero()


@identity("lie_deriv_identity_tensor")
def _(rng, k):
    ch = _chart_for(k)
    X = random_vf(ch, rng)
    return lie_deriv_tensor(X, OneOneTensor.identity(ch)).is_zero()


def lift_relations_hold(r: OneOneTensor, u: VectorField, a: PForm) -> bool:
    """The defining relations of both lifts on a vector field and a 1-form:
    vertical lifts map to vertical lifts of the (dual) image, and the Lie
    derivative along a vertical lift reproduces the derivation datum."""
    from .tensor import vertical_lift_form

    ch = r.chart
    n = ch.dim
    tg, tgch = tangent_lift(r)
    ok = tg.apply(vertical_lift_vf(u, tgch)) == vertical_lift_vf(r.apply(u), tgch)
    lhs = lie_deriv_tensor(vertical_lift_vf(u, tgch), tg)
    grid = [[tgch.zero() for _ in range(2 * n)] for _ in range(2 * n)]
    lie = lie_deriv_tensor(u, r).grid  # column j is D^r_{d_j} u
    for j in range(n):
        for i in range(n):
            grid[n + i][j] = lie[i][j].extend(tgch)
    ok = ok and lhs == OneOneTensor(tgch, grid)
    cg, cgch = cotangent_lift(r)
    ok = ok and cg.apply(vertical_lift_form(a, cgch)) == vertical_lift_form(
        r.dual(a), cgch
    )
    lhs2 = lie_deriv_tensor(vertical_lift_form(a, cgch), cg)
    grid2 = [[cgch.zero() for _ in range(2 * n)] for _ in range(2 * n)]
    rows = _D_r_star_rows(a, r)  # row j is D^{r,*}_{d_j} a
    for j in range(n):
        for i in range(n):
            grid2[n + i][j] = rows[j][i].extend(cgch)
    return ok and lhs2 == OneOneTensor(cgch, grid2)


@identity("lift_defining_relations")
def _(rng, k):
    ch = chart2()
    r = random_oneone(ch, rng, 2)
    return lift_relations_hold(r, random_vf(ch, rng, 2), random_oneform(ch, rng, 2))


def lift_pairing_holds(r: OneOneTensor) -> bool:
    """The duality of the two lifts through the derivative of the natural
    pairing, checked as a polynomial identity in all induced coordinates."""
    ch = r.chart
    n = ch.dim
    tg, _ = tangent_lift(r)
    cg, _ = cotangent_lift(r)
    names = (
        list(ch.variables)
        + ["v_" + v for v in ch.variables]
        + ["p_" + v for v in ch.variables]
        + ["xd_" + v for v in ch.variables]
        + ["vd_" + v for v in ch.variables]
        + ["pd_" + v for v in ch.variables]
    )
    big = Chart("pairing", tuple(names), ch.mode)
    xd = [big.var("xd_" + v) for v in ch.variables]
    vd = [big.var("vd_" + v) for v in ch.variables]
    pd = [big.var("pd_" + v) for v in ch.variables]
    vv = [big.var("v_" + v) for v in ch.variables]
    pp = [big.var("p_" + v) for v in ch.variables]

    def emb(e):
        return e.extend(big)

    U = xd + vd
    KU = [dot(big, zip(map(emb, row), U)) for row in tg.grid]
    V = xd + pd
    KtV = [dot(big, zip(map(emb, row), V)) for row in cg.grid]
    lhs = dot(big, [p for i in range(n) for p in ((KtV[n + i], vv[i]), (pp[i], KU[n + i]))])
    rbig = [[emb(r.grid[i][j]) for j in range(n)] for i in range(n)]
    rv = [dot(big, zip(row, vv)) for row in rbig]
    ix = range(n)
    fiber = [
        dot(big, [(emb(r.grid[i][kk].diff(j)) * vv[kk], xd[j]) for j in ix for kk in ix] + list(zip(rbig[i], vd)))
        for i in ix
    ]
    rhs = dot(big, [p for i in range(n) for p in ((pd[i], rv[i]), (pp[i], fiber[i]))])
    return (lhs - rhs).is_zero()


@identity("lift_pairing_duality")
def _(rng, k):
    return lift_pairing_holds(random_oneone(chart2(), rng, 2))


def pn_intertwine_holds(pi: Bivector, r: OneOneTensor) -> bool:
    """Tangent map of the bivector's sharp intertwines the two lifts."""
    ch = pi.chart
    n = ch.dim
    tg, tgch = tangent_lift(r)
    cg, cgch = cotangent_lift(r)
    # Jacobian of pi#: (x, p) -> (x, pi# p), as a matrix over the cotangent chart
    sharp = pi.sharp_matrix()
    z = cgch.zero()
    jac = [[z for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        jac[i][i] = cgch.one()
    pvars = [cgch.var("p_" + v) for v in ch.variables]
    for i in range(n):
        for kk in range(n):
            jac[n + i][kk] = dot(cgch, ((pvars[j], sharp.grid[i][j].diff(kk).extend(cgch)) for j in range(n)))
        for j in range(n):
            jac[n + i][n + j] = sharp.grid[i][j].extend(cgch)
    # r_tg entries with v substituted by pi# p, re-expressed on the cotangent chart
    subs = {}
    for kk, v in enumerate(ch.variables):
        subs["v_" + v] = dot(cgch, ((sharp.grid[kk][j].extend(cgch), pvars[j]) for j in range(n)))

    def pull(e):
        # entries of tg are polynomial in v; substitute each v variable
        out = cgch.zero()
        for expo, coeff in e.num.terms.items():
            term = cgch.const(coeff)
            for idx, d in enumerate(expo):
                name = tgch.variables[idx]
                base = (
                    subs[name] if name in subs else cgch.var(name)
                )
                for _ in range(d):
                    term = term * base
            out = out + term
        return out

    tg_pulled = [[pull(tg.grid[i][j]) for j in range(2 * n)] for i in range(2 * n)]
    m = 2 * n
    lhs = [[dot(cgch, zip(jac[i], col)) for col in zip(*cg.grid)] for i in range(m)]
    rhs = [[dot(cgch, zip(tg_pulled[i], col)) for col in zip(*jac)] for i in range(m)]
    return all(
        (lhs[i][j] - rhs[i][j]).is_zero() for i in range(m) for j in range(m)
    )


@identity("pn_lift_intertwine")
def _(rng, k):
    ch, pi, r = pn_pair_2chart(rng)
    return pn_intertwine_holds(pi, r)


@identity("trace_derivative_formula")
def _(rng, k):
    """X(trace r) equals the trace of the endomorphism Y -> D^r_Y(X)."""
    ch = _chart_for(k)
    r = random_oneone(ch, rng, 2)
    X = random_vf(ch, rng, 2)
    lhs = X.deriv(r.trace())
    rhs = ch.zero()
    lie = lie_deriv_tensor(X, r).grid  # column j is D^r_{d_j} X
    for j in range(ch.dim):
        rhs = rhs + lie[j][j]
    return (lhs - rhs).is_zero()


@identity("derivation_power_rule")
def _(rng, k):
    """D^{r^j}_X(Y) = sum_{k=0}^{j-1} r^{j-1-k}( D^r_{r^k X}(Y) )."""
    ch = _chart_for(k)
    r = random_oneone(ch, rng, 2)
    X, Y = random_vf(ch, rng, 2), random_vf(ch, rng, 2)
    j = 2 + k % 2
    lhs = D_r(X, Y, r.power(j))
    rhs = VectorField.zero(ch)
    for m in range(j):
        rhs = rhs + r.power(j - 1 - m).apply(D_r(r.power(m).apply(X), Y, r))
    return (lhs - rhs).is_zero()


@identity("trace_ladder")
def _(rng, k):
    """r*(d phi_i) = d phi_{i+1} for torsion-free r (trace functions)."""
    ch = chart2()
    if k % 2 == 0:
        r = OneOneTensor.scalar(ch, random_scalar(ch, rng, 2, 2))
    else:
        a = ch.one() + random_scalar(ch, rng, 2, 2) ** 2
        b = ch.var("y") ** 2 + ch.const(rng.randint(1, 4))
        r = OneOneTensor.diagonal(ch, [a.substitute({"y": 0}), b])
    if not nijenhuis_torsion(r).is_zero():
        return False
    ok = True
    power = r
    for i in (1, 2, 3):
        phi_i = power.trace() / ch.const(i)
        power = power.compose(r)
        phi_next = power.trace() / ch.const(i + 1)
        ok = ok and (r.dual(scalar_d(phi_i)) - scalar_d(phi_next)).is_zero()
    return ok


# -- courant layer -----------------------------------------------------------------------


@identity("combined_leibniz")
def _(rng, k):
    ch = _chart_for(k)
    X = random_vf(ch, rng)
    s = random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    f = random_scalar(ch, rng)
    lhs = big_D(X, s.scale(f), r)
    rhs = (
        big_D(X, s, r).scale(f)
        + apply_rr(s, r).scale(X.deriv(f))
        - s.scale(r.apply(X).deriv(f))
    )
    return (lhs - rhs).is_zero()


@identity("dorfman_symmetrization")
def _(rng, k):
    ch = _chart_for(k)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    sym = courant_bracket(s1, s2) + courant_bracket(s2, s1)
    return (sym - GSection(VectorField.zero(ch), scalar_d(pairing(s1, s2)))).is_zero()


@identity("courant_compat_anchor")
def _(rng, k):
    ch = _chart_for(k)
    s = random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    return (apply_rr(s, r).vec - r.apply(s.vec)).is_zero()


@identity("courant_compat_projection")
def _(rng, k):
    ch = _chart_for(k)
    s = random_gsection(ch, rng)
    X = random_vf(ch, rng)
    r = random_oneone(ch, rng)
    return (big_D(X, s, r).vec - D_r(X, s.vec, r)).is_zero()


@identity("courant_compat_bracket_invariance")
def _(rng, k):
    ch = _chart_for(k)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    lhs = apply_rr(courant_bracket(s1, s2), r)
    rhs = (
        courant_bracket(s1, apply_rr(s2, r))
        - big_D(s2.vec, s1, r)
        - GSection.from_form(concomitant_CL(s1, s2, r))
    )
    return (lhs - rhs).is_zero()


@identity("courant_compat_bracket_derivation")
def _(rng, k):
    ch = _chart_for(k)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    Z = random_vf(ch, rng)
    r = random_oneone(ch, rng)
    lhs = big_D(Z, courant_bracket(s1, s2), r)
    rhs = (
        courant_bracket(s1, big_D(Z, s2, r))
        - courant_bracket(s2, big_D(Z, s1, r))
        + big_D(lie_bracket(s2.vec, Z), s1, r)
        - big_D(lie_bracket(s1.vec, Z), s2, r)
        - GSection.from_form(interior(Z, ext_d(concomitant_CL(s1, s2, r))))
    )
    return (lhs - rhs).is_zero()


@identity("derivation_square")
def _(rng, k):
    ch = _chart_for(k)
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    s = random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    N = nijenhuis_torsion(r)
    lhs = (
        apply_rr(big_D(lie_bracket(X, Y), s, r), r)
        - (big_D(X, big_D(Y, s, r), r) - big_D(Y, big_D(X, s, r), r))
        - big_D(deformed_bracket(X, Y, r), s, r)
    )
    Zv, gam = s.vec, s.cov
    lzn = (
        lie_bracket(Zv, N.apply(X, Y))
        - N.apply(lie_bracket(Zv, X), Y)
        - N.apply(X, lie_bracket(Zv, Y))
    )
    cov = interior(X, interior(Y, ext_d(N.pair_form(gam)))) - interior(
        N.apply(X, Y), ext_d(gam)
    )
    return (lhs - GSection(lzn, cov)).is_zero()


@identity("hierarchy_involutivity_identity")
def _(rng, k):
    ch = _chart_for(k)
    X, Y, Z = (random_vf(ch, rng) for _ in range(3))
    al, be, ga = (random_oneform(ch, rng) for _ in range(3))
    r = random_oneone(ch, rng)
    lhs = pairing(
        courant_bracket(GSection(r.apply(X), al), GSection(r.apply(Y), be)),
        GSection(r.apply(Z), ga),
    )
    rhs = (
        pairing(
            courant_bracket(GSection(r.apply(X), r.dual(al)), GSection(Y, be)),
            GSection(r.apply(Z), r.dual(ga)),
        )
        + pairing(big_D(Y, GSection(X, al), r), GSection(r.apply(Z), r.dual(ga)))
        + interior(nijenhuis_torsion(r).apply(X, Y), ga).as_scalar()
    )
    return (lhs - rhs).is_zero()


@identity("deformed_bracket_symmetrization")
def _(rng, k):
    ch = _chart_for(k)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    sym = bracket_Dr(s1, s2, r) + bracket_Dr(s2, s1, r)
    expect = GSection(
        VectorField.zero(ch), scalar_d(pairing(apply_rr(s1, r), s2))
    )
    return (sym - expect).is_zero()


@identity("contracted_equals_derived")
def _(rng, k):
    ch = _chart_for(k)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    derived = bracket_Dr(s1, s2, r)
    defining = courant_bracket(apply_rr(s1, r), s2) + big_D(s2.vec, s1, r)
    return derived == defining and contracted_bracket(s1, s2, r) == derived


@identity("contracted_torsion_formula")
def _(rng, k):
    ch = _chart_for(k)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    t = contracted_torsion(s1, s2, r)
    expect = GSection(
        nijenhuis_torsion(r).apply(s1.vec, s2.vec), PForm.zero(ch, 1)
    )
    return (t - expect).is_zero()


# The deformed calculus of the Lie algebroid (TM, [.,.]_r, r), by definition
# on coordinate fields; it is the oracle of `courant.double_bracket`.


def d_r_oneform(a: PForm, r: OneOneTensor) -> PForm:
    """(d^r a)(X, Y) = (rX) a(Y) - (rY) a(X) - a([X, Y]_r) on coordinate fields."""
    chart = a.chart
    n = chart.dim
    out = {}
    for j in range(n):
        for k in range(j + 1, n):
            ej = VectorField.coordinate(chart, j)
            ek = VectorField.coordinate(chart, k)
            val = (
                r.apply(ej).deriv(a.get((k,)))
                - r.apply(ek).deriv(a.get((j,)))
                - interior(deformed_bracket(ej, ek, r), a).as_scalar()
            )
            out[(j, k)] = val
    return PForm(chart, 2, out)


def lie_r_oneform(X: VectorField, b: PForm, r: OneOneTensor) -> PForm:
    """Deformed Lie derivative L^r_X = i_X d^r + d^r i_X on 1-forms, with
    d^r f = r*(df) on functions."""
    return interior(X, d_r_oneform(b, r)) + r.dual(scalar_d(interior(X, b).as_scalar()))


def double_bracket_by_definition(s1: GSection, s2: GSection, r: OneOneTensor) -> GSection:
    """Bracket of the double of the Lie bialgebroid ((TM, [.,.]_r, r), T*M):
    ([X, Y]_r, L^r_X b - i_Y d^r a)."""
    same_chart(s1, s2, r)
    return GSection(
        deformed_bracket(s1.vec, s2.vec, r),
        lie_r_oneform(s1.vec, s2.cov, r) - interior(s2.vec, d_r_oneform(s1.cov, r)),
    )


@identity("double_bracket_relation")
def _(rng, k):
    """The double bracket is the derived bracket minus the concomitant."""
    ch = _chart_for(k)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    r = random_oneone(ch, rng)
    return (double_bracket(s1, s2, r) - double_bracket_by_definition(s1, s2, r)).is_zero()


@identity("deformed_cartan_expressions")
def _(rng, k):
    """The deformed differential and Lie derivative expand through the
    derivation operators:
    i_Y d^r a = i_{rY} da + <D*_(.) a, Y> and L^r_X b = L_{rX} b - <b, D_(.) X>."""
    ch = _chart_for(k)
    a, b = random_oneform(ch, rng), random_oneform(ch, rng)
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    r = random_oneone(ch, rng)
    ix = range(ch.dim)
    rows = _D_r_star_rows(a, r)  # row i is D^{r,*}_{d_i} a
    lhs = interior(Y, d_r_oneform(a, r))
    rhs = interior(r.apply(Y), ext_d(a)) + PForm(
        ch,
        1,
        {(i,): interior(Y, PForm(ch, 1, {(j,): rows[i][j] for j in ix})).as_scalar() for i in ix},
    )
    if not (lhs - rhs).is_zero():
        return False
    lhs2 = lie_r_oneform(X, b, r)
    lie = lie_deriv_tensor(X, r).grid  # column i is D^r_{d_i} X
    rhs2 = lie_deriv_form(r.apply(X), b) - PForm(
        ch,
        1,
        {(i,): interior(VectorField(ch, [row[i] for row in lie]), b).as_scalar() for i in ix},
    )
    return (lhs2 - rhs2).is_zero()


@identity("mm_concomitant_alternative")
def _(rng, k):
    ch = _chart_for(k)
    pi = random_bivector(ch, rng)
    r = random_oneone(ch, rng)
    X = random_vf(ch, rng)
    a = random_oneform(ch, rng)
    lhs = concomitant_R(pi, r, X, a)
    rhs = pi.sharp(D_r_star(X, a, r)) - D_r(X, pi.sharp(a), r)
    defn = pi.sharp(
        lie_deriv_form(X, r.dual(a)) - lie_deriv_form(r.apply(X), a)
    ) - lie_deriv_tensor(pi.sharp(a), r).apply(X)
    return (lhs - rhs).is_zero() and (lhs - defn).is_zero()


@identity("concomitant_pairing_relation")
def _(rng, k):
    # The relation presupposes the algebraic condition pi# r* = r pi#
    # (without it the second concomitant is not even built from a bivector),
    # so inputs are drawn from condition-satisfying families.
    ch = _chart_for(k)
    pi = Bivector(ch, {(0, 1): random_scalar(ch, rng)})
    if ch.dim == 2:
        r = OneOneTensor.scalar(ch, random_scalar(ch, rng))
        pi = Bivector(ch, {(0, 1): ch.one() + random_scalar(ch, rng, 1) ** 2})
    else:
        z = ch.zero()
        a = random_scalar(ch, rng)
        r = OneOneTensor(
            ch,
            [
                [a, z, random_scalar(ch, rng)],
                [z, a, random_scalar(ch, rng)],
                [z, z, random_scalar(ch, rng)],
            ],
        )
        pi = Bivector(ch, {(0, 1): ch.one()})
    X = random_vf(ch, rng)
    a1, b1 = random_oneform(ch, rng), random_oneform(ch, rng)
    lhs = interior(concomitant_R(pi, r, X, a1), b1).as_scalar()
    rhs = interior(X, concomitant_C(pi, r, a1, b1)).as_scalar()
    return (lhs - rhs).is_zero()


@identity("form_concomitant_relation")
def _(rng, k):
    # S~ = S + d omega(X, rY) whenever the algebraic condition holds; use
    # omega built to commute with r: r = f id always commutes.
    ch = _chart_for(k)
    w = random_pform(ch, 2, rng)
    r = OneOneTensor.scalar(ch, random_scalar(ch, rng))
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    lhs = concomitant_S_tilde(w, r, X, Y)
    rhs = concomitant_S(w, r, X, Y) + interior(
        r.apply(Y), interior(X, ext_d(w))
    )
    return (lhs - rhs).is_zero()


@identity("form_concomitant_structure")
def _(rng, k):
    # S~ (X, Y) = i_Y i_X d(omega_r) - i_Y i_{rX} d omega under the algebraic condition
    ch = _chart_for(k)
    w = random_pform(ch, 2, rng)
    r = OneOneTensor.scalar(ch, random_scalar(ch, rng))
    X, Y = random_vf(ch, rng), random_vf(ch, rng)
    wr = form_r(w, r)
    if wr is None:
        return False
    lhs_form = interior(Y, interior(X, ext_d(wr)))
    rhs_corr = interior(Y, interior(r.apply(X), ext_d(w)))
    value = concomitant_S_tilde(w, r, X, Y)
    return (value - (lhs_form - rhs_corr)).is_zero()


# -- dirac layer ---------------------------------------------------------------------------


@identity("graph_poisson_equivalence")
def _(rng, k):
    ch, pi, r = pn_pair_2chart(rng)
    L = make_graph_poisson(pi)
    rep = dirac_nijenhuis_report(L, r)
    # independent computation: matrix commutation and concomitant vanishing
    sharp = pi.sharp_matrix()
    cond1 = all(
        (sharp.compose(_transpose(r)).grid[i][j] - r.compose(sharp).grid[i][j]).is_zero()
        for i in range(ch.dim)
        for j in range(ch.dim)
    )
    cond2 = all(
        concomitant_R(pi, r, VectorField.coordinate(ch, i), PForm.coordinate(ch, j)).is_zero()
        for i in range(ch.dim)
        for j in range(ch.dim)
    )
    agree = (rep.invariance.status == "pass") == cond1
    agree = agree and (rep.d_stability.status == "pass") == (cond1 and cond2)
    return agree


def _transpose(r: OneOneTensor) -> OneOneTensor:
    n = r.chart.dim
    return OneOneTensor(r.chart, [[r.grid[j][i] for j in range(n)] for i in range(n)])


@identity("graph_presymplectic_equivalence")
def _(rng, k):
    ch = chart2()
    w = random_pform(ch, 2, rng)
    r = OneOneTensor.scalar(ch, random_scalar(ch, rng))
    L = make_graph_presymplectic(w)
    rep = dirac_nijenhuis_report(L, r)
    # def:romega conditions, computed directly
    flat = OneOneTensor(
        ch,
        [
            [w.get((j, i)) for j in range(ch.dim)]
            for i in range(ch.dim)
        ],
    )  # (omega_b X)_i = X^j w_{ji}
    cond1 = all(
        (flat.compose(r).grid[i][j] - _transpose(r).compose(flat).grid[i][j]).is_zero()
        for i in range(ch.dim)
        for j in range(ch.dim)
    )
    cond2 = all(
        concomitant_S_tilde(w, r, VectorField.coordinate(ch, i), VectorField.coordinate(ch, j)).is_zero()
        for i in range(ch.dim)
        for j in range(ch.dim)
    )
    agree = (rep.invariance.status == "pass") == cond1
    agree = agree and (rep.d_stability.status == "pass") == (cond1 and cond2)
    return agree


@identity("bivector_hierarchy_recursion")
def _(rng, k):
    ch, pi, r = pn_pair_2chart(rng)
    L = make_graph_poisson(pi)
    n = rng.randrange(1, 4)
    try:
        Ln = hierarchy(L, r, n, "n0")
    except Exception:
        return True  # kernel condition may genuinely fail for vanishing f
    rn = r.power(n)
    target = make_graph_poisson(
        Bivector(ch, {(0, 1): rn.grid[0][0] * pi.get(0, 1)})
    )
    return frames_equal_span(Ln, target)


@identity("form_hierarchy_recursion")
def _(rng, k):
    ch = chart2()
    w = random_pform(ch, 2, rng)
    f = ch.one() + random_scalar(ch, rng, 1) ** 2
    r = OneOneTensor.scalar(ch, f)
    L = make_graph_presymplectic(w)
    n = rng.randrange(1, 4)
    Ln = hierarchy(L, r, n, "0n")
    wn = w.scale(f ** n)
    return frames_equal_span(Ln, make_graph_presymplectic(wn))


@identity("hierarchy_null_distribution")
def _(rng, k):
    # the (n,0) members keep the null distribution of the base frame
    ch = chart2()
    from .dirac import make_split

    a = ch.one() + random_scalar(ch, rng, 1) ** 2
    b = random_scalar(ch, rng)
    L = make_split([VectorField.coordinate(ch, 1)])
    r = OneOneTensor.diagonal(ch, [a, ch.one() + b * b])
    Ln = hierarchy(L, r, rng.randrange(1, 3), "n0")
    n1 = null_distribution(L)
    n2 = null_distribution(Ln)
    if len(n1.basis) != len(n2.basis):
        return False
    rows = FracMatrix(ch, [[v.comps[i] for v in n1.basis] for i in range(ch.dim)])
    return None not in solve_columns(rows, [list(v.comps) for v in n2.basis])


@identity("hierarchy_leaf_projection")
def _(rng, k):
    # the (0,n) members keep the tangent projection of the base frame
    ch = chart2()
    w = random_pform(ch, 2, rng)
    f = ch.one() + random_scalar(ch, rng, 1) ** 2
    r = OneOneTensor.scalar(ch, f)
    L = make_graph_presymplectic(w)
    Ln = hierarchy(L, r, rng.randrange(1, 3), "0n")
    m1, m2 = (
        FracMatrix(ch, [[s.vec.comps[i] for s in F.sections] for i in range(ch.dim)])
        for F in (L, Ln)
    )
    return generic_rank(m1) == generic_rank(m2) and None not in solve_columns(
        m1, [list(s.vec.comps) for s in Ln.sections]
    )


@identity("inverse_compatibility")
def _(rng, k):
    ch, pi, r = pn_pair_2chart(rng)
    f = r.grid[0][0]
    if f.is_zero():
        return True
    rinv = OneOneTensor.scalar(ch, ch.one() / (ch.one() + f * f))
    r = OneOneTensor.scalar(ch, ch.one() + f * f)  # invertible everywhere
    L = make_graph_poisson(pi)
    rep = dirac_nijenhuis_report(L, r)
    rep_inv = dirac_nijenhuis_report(L, rinv)
    ok = rep.all_pass() and rep_inv.all_pass()
    L01 = hierarchy(L, r, 1, "0n")
    L10_inv = hierarchy(L, rinv, 1, "n0")
    # the (0,n) transform of (L, r) coincides with the (n,0) transform of
    # (L, r^{-1}); for graphs both reduce to bivector scalings
    pi01 = Bivector(ch, {(0, 1): pi.get(0, 1) / (ch.one() + f * f)})
    ok = ok and frames_equal_span(L01, make_graph_poisson(pi01))
    ok = ok and frames_equal_span(L10_inv, make_graph_poisson(pi01))
    return ok


@identity("weak_torsion_involutivity")
def _(rng, k):
    # a compatible but torsionful pair still has involutive (0,1) transform
    ch = chart2()
    a = ch.var("x") ** 2 + ch.one()
    c = ch.var("x") + ch.const(3)
    from .dirac import make_split

    L = make_split([VectorField.coordinate(ch, 1)])
    r = OneOneTensor.diagonal(ch, [a, c])
    if nijenhuis_torsion(r).is_zero():
        return False
    rep = dirac_nijenhuis_report(L, r)
    if not rep.compatible():
        return False
    L01 = hierarchy(L, r, 1, "0n")
    return check_lagrangian(L01).status == "pass" and check_involutive(L01).status == "pass"


@identity("concurrence_of_poisson_sums")
def _(rng, k):
    ch = chart2()
    p1 = random_bivector(ch, rng)
    p2 = random_bivector(ch, rng)
    if p1.is_zero() or p2.is_zero():
        return True
    v = check_concur(make_graph_poisson(p1), make_graph_poisson(p2))
    s = p1 + p2
    expect = not schouten_bivector(s, s)
    return (v.status == "pass") == expect


# -- holomorphic layer ----------------------------------------------------------------------


@identity("phi_complex_linear")
def _(rng, k):
    from .fixtures import chart2 as c2
    from .holomorphic import phi_map, standard_complex_structure

    ch = c2()
    J = standard_complex_structure(ch)
    s = random_gsection(ch, rng)
    lhs = phi_map(apply_rr(s, J.r), J)
    rhs = phi_map(s, J)
    return (lhs.re + rhs.im).is_zero() and (lhs.im - rhs.re).is_zero()


@identity("phi_pairing_expansion")
def _(rng, k):
    from .fixtures import chart2 as c2
    from .holomorphic import phi_map, phi_pairing, standard_complex_structure

    ch = c2()
    J = standard_complex_structure(ch)
    s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
    re, im = phi_pairing(phi_map(s1, J), phi_map(s2, J))
    return (re - pairing(s1, s2)).is_zero() and (
        im + pairing(apply_rr(s1, J.r), s2)
    ).is_zero()


@identity("holomorphic_hierarchy_square")
def _(rng, k):
    from .fixtures import holomorphic_poisson_real_part
    from .holomorphic import push_bivector

    ch, J, pi4, L = holomorphic_poisson_real_part(rng)
    st = L
    stages = []
    for _ in range(4):
        st = transform_frame(st, J.r.apply, lambda x: x)
        stages.append(st)
    minus = transform_frame(L, lambda v: -v, lambda x: x)
    ok = frames_equal_span(stages[1], minus) and frames_equal_span(stages[3], L)
    piJ = push_bivector(pi4, J.r)
    imag = transform_frame(stages[0], lambda v: -v, lambda x: x)
    ok = ok and frames_equal_span(
        imag,
        make_graph_poisson(Bivector(ch, {key: -v for key, v in piJ.comps.items()})),
    )
    return ok


# -- algebroid layer ---------------------------------------------------------------------


@identity("dirac_algebroid_koszul")
def _(rng, k):
    from .algebroid import dirac_to_algebroid
    from .dirac import koszul_bracket

    ch = chart2()
    pi = random_bivector(ch, rng)
    L = make_graph_poisson(pi)
    A, _ = dirac_to_algebroid(L)
    for a in range(ch.dim):
        for b in range(ch.dim):
            got = PForm(ch, 1, {(c,): v for c, v in A.bracket(a, b).items()})
            kz = koszul_bracket(
                pi.sharp, PForm.coordinate(ch, a), PForm.coordinate(ch, b)
            )
            if not (got - kz).is_zero():
                return False
    return True


@identity("dirac_algebroid_transversality")
def _(rng, k):
    from .algebroid import dirac_to_algebroid

    ch = _chart_for(k)
    # a rank-2 bivector with fixed kernel plane is Poisson for any coefficient
    pi = Bivector(ch, {(0, 1): ch.one() + random_scalar(ch, rng, 2) ** 2})
    L = make_graph_poisson(pi)
    A, imf = dirac_to_algebroid(L)
    rows = []
    for i in range(ch.dim):
        rows.append([A.anchors[a].comps[i] for a in range(A.rank)])
    for i in range(ch.dim):
        rows.append([imf.mu[a].get((i,)) for a in range(A.rank)])
    return not kernel_basis(FracMatrix(ch, rows))


@identity("im_form_frame_permutation")
def _(rng, k):
    from .algebroid import check_IM_form, dirac_to_algebroid
    from .dirac import GFrame

    ch = chart2()
    pi = Bivector(ch, {(0, 1): ch.one() + random_scalar(ch, rng, 1) ** 2})
    L = make_graph_poisson(pi)
    perm = GFrame(tuple(reversed(L.sections)))
    v1 = check_IM_form(dirac_to_algebroid(L)[1])
    v2 = check_IM_form(dirac_to_algebroid(perm)[1])
    return v1.status == v2.status == "pass"


CRITERION_ONE = (
    "duality_pairing",
    "one_derivation_leibniz",
    "dual_one_derivation_leibniz",
    "combined_leibniz",
    "torsion_via_derivation",
    "torsion_via_dual_derivation",
    "form_concomitant_structure",
    "form_concomitant_relation",
    "concomitant_pairing_relation",
    "mm_concomitant_alternative",
    "hierarchy_involutivity_identity",
    "courant_compat_anchor",
    "courant_compat_projection",
    "courant_compat_bracket_invariance",
    "courant_compat_bracket_derivation",
    "derivation_square",
    "deformed_bracket_symmetrization",
    "contracted_equals_derived",
    "contracted_torsion_formula",
    "double_bracket_relation",
    "deformed_cartan_expressions",
)
