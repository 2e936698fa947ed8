"""Cartan calculus, the derivation operators, torsion, the Schouten bracket
and the tangent/cotangent lifts."""

import random

import pytest

from dngeo.fixtures import (
    chart2,
    chart3,
    random_bivector,
    random_oneform,
    random_oneone,
    random_pform,
    random_scalar,
    random_vf,
)
from dngeo.identities import run_identity, torsion_via_D, torsion_via_Dstar
from dngeo.symbolic import parse_scalar
from dngeo.tensor import (
    Bivector,
    OneOneTensor,
    PForm,
    VectorField,
    D_r,
    D_r_star,
    cotangent_chart,
    CovFormValued,
    cotangent_lift,
    deformed_bracket,
    ext_d,
    form_as_covform,
    form_r,
    interior,
    is_poisson,
    lie_bracket,
    lie_deriv_form,
    lie_deriv_tensor,
    nijenhuis_torsion,
    schouten_bivector,
    schouten_is_zero,
    tangent_chart,
    tangent_lift,
    wedge,
)


@pytest.fixture
def ch():
    return chart2()


def D_r_star_pform(X: VectorField, w: PForm, r: OneOneTensor) -> CovFormValued:
    """Extension of D^{r,*} to p-forms with skew omega_r:
    i_X d(omega_r) - i_{rX} d(omega)."""
    wr = form_r(w, r)
    if not wr.is_skew():
        raise ValueError("omega_r is not skew: omega is outside the admissible forms")
    value = interior(X, ext_d(wr.to_form())) - interior(r.apply(X), ext_d(w))
    return form_as_covform(value)


class TestCartan:
    def test_bracket_examples(self, ch):
        xdy = VectorField(ch, [ch.zero(), ch.var("x")])
        dx = VectorField.coordinate(ch, 0)
        dy = VectorField.coordinate(ch, 1)
        assert lie_bracket(xdy, dx) == -dy
        assert lie_bracket(dx, dy).is_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_bracket_self(self, ch, seed):
        X = random_vf(ch, random.Random(seed))
        assert lie_bracket(X, X).is_zero()

    def test_ext_d_examples(self, ch):
        xdy = PForm(ch, 1, {(1,): ch.var("x")})
        assert ext_d(xdy) == PForm(ch, 2, {(0, 1): ch.one()})
        vol = PForm(ch, 2, {(0, 1): ch.one()})
        assert ext_d(vol).is_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_d_squared(self, seed):
        ch = chart3()
        w = random_pform(ch, seed % 3, random.Random(seed))
        assert ext_d(ext_d(w)).is_zero()

    def test_interior_and_lie(self, ch):
        dx = VectorField.coordinate(ch, 0)
        vol = PForm(ch, 2, {(0, 1): ch.one()})
        assert interior(dx, vol) == PForm.coordinate(ch, 1)
        xdy = PForm(ch, 1, {(1,): ch.var("x")})
        assert lie_deriv_form(dx, xdy) == PForm.coordinate(ch, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_cartan_magic(self, seed):
        ch = chart3()
        rng = random.Random(seed)
        X = random_vf(ch, rng)
        w = random_pform(ch, 1 + seed % 2, rng)
        lhs = lie_deriv_form(X, w)
        rhs = interior(X, ext_d(w)) + ext_d(interior(X, w))
        assert (lhs - rhs).is_zero()

    def test_lie_identity_tensor(self, ch):
        X = random_vf(ch, random.Random(0))
        assert lie_deriv_tensor(X, OneOneTensor.identity(ch)).is_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_wedge_graded_commutativity(self, seed):
        ch = chart3()
        rng = random.Random(seed)
        a, b = random_oneform(ch, rng), random_oneform(ch, rng)
        assert (wedge(a, b) + wedge(b, a)).is_zero()


class TestDerivationOperators:
    def test_identity_tensor_annihilates(self, ch):
        rng = random.Random(1)
        X, Y = random_vf(ch, rng), random_vf(ch, rng)
        a = random_oneform(ch, rng)
        rid = OneOneTensor.identity(ch)
        assert D_r(X, Y, rid).is_zero()
        assert D_r_star(X, a, rid).is_zero()

    def test_scalar_tensor_example(self, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        dx = VectorField.coordinate(ch, 0)
        dy = VectorField.coordinate(ch, 1)
        assert D_r(dx, dy, rx).is_zero()
        # oracle for r = f id: (X f) a - a(X) df, here f = x, X = d_x, a = dy
        assert D_r_star(dx, PForm.coordinate(ch, 1), rx) == PForm.coordinate(ch, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_defining_expressions_agree(self, seed):
        ch = chart2() if seed % 2 else chart3()
        rng = random.Random(seed)
        X, Y = random_vf(ch, rng), random_vf(ch, rng)
        r = random_oneone(ch, rng)
        lhs = D_r(X, Y, r)
        rhs = lie_bracket(Y, r.apply(X)) - r.apply(lie_bracket(Y, X))
        assert (lhs - rhs).is_zero()
        alt = lie_deriv_tensor(Y, r).apply(X)
        assert (lhs - alt).is_zero()

    @pytest.mark.parametrize("name", ["one_derivation_leibniz", "dual_one_derivation_leibniz", "duality_pairing", "derivation_two_expressions", "naturality_projection"])
    def test_identities(self, name):
        assert run_identity(name, seed=1, instances=4) == 0

    def test_pform_extension_reduces_to_degree_one(self, ch):
        rng = random.Random(3)
        X = random_vf(ch, rng)
        a = random_oneform(ch, rng)
        r = OneOneTensor.scalar(ch, random_scalar(ch, rng))
        ext = D_r_star_pform(X, a, r)
        assert ext.to_form() == D_r_star(X, a, r)

    def test_pform_extension_constant_scalar(self):
        ch = chart3()
        rng = random.Random(4)
        w = random_pform(ch, 2, rng)
        r = OneOneTensor.scalar(ch, ch.const(5))
        X = random_vf(ch, rng)
        assert D_r_star_pform(X, w, r).is_zero()

    def test_pform_extension_closed_case(self):
        ch = chart3()
        w = PForm(ch, 2, {(0, 1): ch.one()})  # closed, and w_r closed for constant r
        r = OneOneTensor.scalar(ch, ch.const(3))
        X = VectorField.coordinate(ch, 2)
        assert D_r_star_pform(X, w, r).is_zero()

    def test_pform_extension_rejects_non_skew(self, ch):
        # omega_J is symmetric for the rotation tensor on a Kaehler-like form
        J = OneOneTensor(ch, [[ch.zero(), -ch.one()], [ch.one(), ch.zero()]])
        w = PForm(ch, 2, {(0, 1): ch.one()})
        with pytest.raises(ValueError):
            D_r_star_pform(VectorField.coordinate(ch, 0), w, J)


class TestTorsion:
    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_multiple_of_identity(self, ch, seed):
        f = random_scalar(ch, random.Random(seed))
        assert nijenhuis_torsion(OneOneTensor.scalar(ch, f)).is_zero()

    def test_diagonal_separated_variables(self, ch):
        a = parse_scalar("x^2+1", ch)
        b = parse_scalar("y^3-y", ch)
        assert nijenhuis_torsion(OneOneTensor.diagonal(ch, [a, b])).is_zero()

    def test_diagonal_same_variable_criterion(self, ch):
        a = parse_scalar("x^2", ch)
        c = parse_scalar("x+1", ch)
        N = nijenhuis_torsion(OneOneTensor.diagonal(ch, [a, c]))
        expect = (a - c) * c.diff(0)
        assert N.get(1, 0, 1) == expect
        # and the verdict tracks is_zero((a-c) c')
        c2 = parse_scalar("7", ch)
        assert nijenhuis_torsion(OneOneTensor.diagonal(ch, [a, c2])).is_zero()
        assert nijenhuis_torsion(OneOneTensor.diagonal(ch, [a, a])).is_zero()

    @pytest.mark.parametrize("name", ["torsion_via_derivation", "torsion_via_dual_derivation", "torsion_tensorial"])
    def test_identities(self, name):
        assert run_identity(name, seed=2, instances=4) == 0

    def test_nijenhuis_implies_both_vanish(self, ch):
        rng = random.Random(5)
        f = random_scalar(ch, rng)
        r = OneOneTensor.scalar(ch, f)
        X, Y = random_vf(ch, rng), random_vf(ch, rng)
        a = random_oneform(ch, rng)
        assert torsion_via_D(r, X, Y).is_zero()
        assert torsion_via_Dstar(r, X, Y, a).is_zero()


class TestDeformedBracket:
    def test_identity_and_zero(self, ch):
        rng = random.Random(6)
        X, Y = random_vf(ch, rng), random_vf(ch, rng)
        assert (deformed_bracket(X, Y, OneOneTensor.identity(ch)) - lie_bracket(X, Y)).is_zero()
        assert deformed_bracket(X, Y, OneOneTensor.zero(ch)).is_zero()

    def test_antisymmetry(self, ch):
        rng = random.Random(7)
        X, Y = random_vf(ch, rng), random_vf(ch, rng)
        r = random_oneone(ch, rng)
        assert (deformed_bracket(X, Y, r) + deformed_bracket(Y, X, r)).is_zero()


class TestSchouten:
    def test_constant_bivector(self):
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.one(), (1, 2): ch.const(2)})
        assert schouten_is_zero(schouten_bivector(pi, pi))

    def test_two_dimensional_always_poisson(self, ch):
        rng = random.Random(8)
        assert is_poisson(random_bivector(ch, rng))

    def test_r3_oracle(self):
        # oracle: the Jacobiator of the bracket on coordinates,
        # J^{ijk} = sum_l pi^{li} d_l pi^{jk} + cyclic, computed independently
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.var("x"), (1, 2): ch.var("z")})
        sig = Bivector(ch, {(0, 1): ch.one()})

        def jacobiator(p, q):
            out = ch.zero()
            for (i, j, k) in [(0, 1, 2)]:
                for l in range(3):
                    for (u, v, w) in ((i, j, k), (j, k, i), (k, i, j)):
                        out = out + p.get(l, u) * q.get(v, w).diff(l)
                        out = out + q.get(l, u) * p.get(v, w).diff(l)
            return out

        got = schouten_bivector(pi, sig)
        expect = jacobiator(pi, sig)
        assert (got.get((0, 1, 2), ch.zero()) - expect).is_zero()

    def test_poisson_detection_r3(self):
        ch = chart3()
        # pi = x dy^dz + dz^dx: check against the brute Jacobi expansion
        pi = Bivector(ch, {(1, 2): ch.var("x"), (0, 2): -ch.one()})
        assert is_poisson(pi) == schouten_is_zero(schouten_bivector(pi, pi))


class TestLifts:
    def test_identity_lifts_to_identity(self, ch):
        rid = OneOneTensor.identity(ch)
        tg, tch = tangent_lift(rid)
        cg, cch = cotangent_lift(rid)
        assert tg == OneOneTensor.identity(tch)
        assert cg == OneOneTensor.identity(cch)

    def test_doubled_chart_naming(self, ch):
        assert tangent_chart(ch).variables == ("x", "y", "v_x", "v_y")
        assert cotangent_chart(ch).variables == ("x", "y", "p_x", "p_y")

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("chart", [chart2(), chart3(), chart2("complex")], ids=["R2", "R3", "C2"])
    def test_cotangent_lift_solves_its_defining_relation(self, chart, seed):
        # Omega^T . lift = (J^T Omega J)^T, with Omega the matrix of
        # sum dx^i ^ dp_i and J the Jacobian of phi(x, p) = (x, r*(x) p)
        rng = random.Random(seed)
        r = random_oneone(chart, rng, 2)
        if chart.mode == "complex":
            grid = [list(row) for row in r.grid]
            grid[0][1] = grid[0][1] * chart.imag_unit() + chart.imag_unit()
            r = OneOneTensor(chart, grid)
        lift, big = cotangent_lift(r)
        n, m = chart.dim, 2 * chart.dim
        z, one = big.zero(), big.one()
        p = [big.var("p_" + v) for v in chart.variables]
        phi = [big.var(v) for v in chart.variables] + [
            sum((p[i] * r.grid[i][j].extend(big) for i in range(n)), z) for j in range(n)
        ]
        J = [[phi[a].diff(b) for b in range(m)] for a in range(m)]
        omega = [[z] * m for _ in range(m)]
        for i in range(n):
            omega[i][n + i], omega[n + i][i] = one, -one

        def product(A, B):
            return [[sum((A[a][c] * B[c][b] for c in range(m)), z) for b in range(m)] for a in range(m)]

        def transpose(A):
            return [[A[b][a] for b in range(m)] for a in range(m)]

        M = product(transpose(J), product(omega, J))
        assert product(transpose(omega), lift.grid) == transpose(M)

    @pytest.mark.parametrize("name", ["lift_defining_relations", "lift_pairing_duality"])
    def test_lift_identities(self, name):
        assert run_identity(name, seed=3, instances=3) == 0

    def test_pn_intertwine(self):
        assert run_identity("pn_lift_intertwine", seed=4, instances=3) == 0
