"""Subbundle frames and the full battery of compatibility checks, including
hierarchies, traces, gauge transformations, transfers and the comparison
notions."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dngeo.courant import GSection
from dngeo.dirac import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    GFrame,
    check_concur,
    check_contraction_type,
    check_D_stability,
    check_double_type,
    check_form_compat,
    check_invariance,
    check_involutive,
    check_lagrangian,
    check_traces_involution,
    concomitant_R,
    dirac_nijenhuis_report,
    frames_equal_span,
    gauge_transform,
    hierarchy,
    make_graph_poisson,
    make_graph_presymplectic,
    make_split,
    null_distribution,
    quasi_nijenhuis_check,
    section_in_span,
    backward_transfer,
    forward_transfer,
    traces,
    )
from dngeo.errors import AdmissibilityError, HierarchyKernelError, PreconditionError
from dngeo.fixtures import (
    chart2,
    chart3,
    random_pform,
    random_scalar,
    split_43_fixture,
)
from dngeo.identities import run_identity
from dngeo.symbolic import Chart, generic_rank, parse_scalar
from dngeo.tensor import (
    Bivector,
    OneOneTensor,
    PForm,
    VectorField,
    ext_d,
    interior,
    nijenhuis_torsion,
    schouten_bivector,
    schouten_is_zero,
    )


@pytest.fixture
def ch():
    return chart2()


@pytest.fixture
def pi(ch):
    return Bivector(ch, {(0, 1): ch.one()})


@pytest.fixture
def L(pi):
    return make_graph_poisson(pi)


class TestFrameConstructors:
    def test_graph_poisson(self, ch, L):
        dy = VectorField.coordinate(ch, 1)
        dx = VectorField.coordinate(ch, 0)
        assert L.sections[0] == GSection(dy, PForm.coordinate(ch, 0))
        assert L.sections[1] == GSection(-dx, PForm.coordinate(ch, 1))

    def test_graph_presymplectic(self, ch):
        w = PForm(ch, 2, {(0, 1): ch.one()})
        Lw = make_graph_presymplectic(w)
        assert Lw.sections[0] == GSection(
            VectorField.coordinate(ch, 0), PForm.coordinate(ch, 1)
        )
        assert Lw.sections[1] == GSection(
            VectorField.coordinate(ch, 1), -PForm.coordinate(ch, 0)
        )

    def test_split(self, ch):
        Ls = make_split([VectorField.coordinate(ch, 1)])
        assert Ls.sections[0] == GSection.from_vector(VectorField.coordinate(ch, 1))
        assert Ls.sections[1] == GSection.from_form(PForm.coordinate(ch, 0))

    def test_split_rank_defect_flags_inconclusive(self, ch):
        # generically independent field that vanishes at the first three
        # sample points, x = 1, 2, 3: the lagrangian verdict degrades at the
        # default count and passes once a fourth point is sampled
        f = parse_scalar("(x-1)*(x-2)*(x-3)", ch)
        Ls = make_split([VectorField(ch, [f, ch.zero()])])
        lag = check_lagrangian(Ls, 3)
        assert lag.status == INCONCLUSIVE
        assert lag.witnesses == (("rank", "rank drop at sample points"),)
        assert check_lagrangian(Ls, 4).status == PASS

    def test_lagrangian_verdict_is_kept_per_sample_count(self, ch):
        # the same frame object decided at four sample points first, then at
        # three: the second count is decided on its own, not read from the
        # first
        f = parse_scalar("(x-1)*(x-2)*(x-3)", ch)
        Ls = make_split([VectorField(ch, [f, ch.zero()])])
        assert check_lagrangian(Ls, 4).status == PASS
        assert check_lagrangian(Ls, 3).status == INCONCLUSIVE

    def test_high_degree_forms_collapse_to_zero(self, ch):
        w = PForm(ch, 3, {})
        assert w.is_zero()
        from dngeo.tensor import ext_d

        vol = PForm(ch, 2, {(0, 1): ch.var("x")})
        assert ext_d(vol).is_zero() and ext_d(vol).degree == 3

    def test_split_requires_involutive(self):
        ch = chart3()
        # span(d_x, x d_y + d_z? ...) pick fields whose bracket leaves the span
        f1 = VectorField.coordinate(ch, 0)
        f2 = VectorField(ch, [ch.zero(), ch.var("x"), ch.one()])
        # [f1, f2] = d_y which is not in span(f1, f2)
        with pytest.raises(PreconditionError):
            make_split([f1, f2])

    def test_split_decides_involutivity_with_its_annihilator(self, monkeypatch):
        # F = ker Ann(F), so the brackets are tested against the annihilator
        # the frame needs anyway, and no bracket is solved into the span
        import dngeo.dirac as dirac

        calls = []
        solve = dirac.solve_columns
        monkeypatch.setattr(dirac, "solve_columns", lambda *a: calls.append(a) or solve(*a))
        ch = chart3()
        x = ch.var("x")
        f1 = VectorField.coordinate(ch, 0)
        f2 = VectorField(ch, [ch.zero(), x, x])  # [f1, f2] = f2 / x
        Ls = make_split([f1, f2])
        assert Ls.sections[2] == GSection.from_form(PForm(ch, 1, {(1,): ch.one(), (2,): -ch.one()}))
        assert calls == []
        f2 = VectorField(ch, [ch.zero(), x, ch.one()])
        with pytest.raises(PreconditionError, match="^split fields do not span an involutive distribution$"):
            make_split([f1, f2])


class TestLagrangian:
    def test_graph_bivector_passes(self, L):
        assert check_lagrangian(L).status == PASS

    def test_symmetric_graph_fails(self, ch):
        # graph of a symmetric bilinear map: sections (d_i, sum g_ij dx^j), g symmetric nonzero
        secs = [
            GSection(VectorField.coordinate(ch, 0), PForm.coordinate(ch, 0)),
            GSection(VectorField.coordinate(ch, 1), PForm.coordinate(ch, 1)),
        ]
        v = check_lagrangian(GFrame(secs))
        assert v.status == FAIL
        assert v.witnesses

    def test_tangent_frame_passes(self, ch):
        secs = [
            GSection.from_vector(VectorField.coordinate(ch, k)) for k in range(2)
        ]
        assert check_lagrangian(GFrame(secs)).status == PASS


class TestInvolutive:
    def test_constant_graph(self, L):
        assert check_involutive(L).status == PASS

    def test_nonclosed_form_fails(self):
        ch = chart3()
        w = PForm(ch, 2, {(1, 2): ch.var("x"), (0, 1): ch.one()})
        # d w = dx^dy^dz != 0
        assert not ext_d(w).is_zero()
        Lw = make_graph_presymplectic(w)
        assert check_involutive(Lw).status == FAIL

    def test_split_involutive(self, ch):
        Ls = make_split([VectorField.coordinate(ch, 1)])
        assert check_involutive(Ls).status == PASS

    def test_precondition_enforced(self, ch):
        secs = [
            GSection(VectorField.coordinate(ch, 0), PForm.coordinate(ch, 0)),
            GSection(VectorField.coordinate(ch, 1), PForm.coordinate(ch, 1)),
        ]
        with pytest.raises(PreconditionError):
            check_involutive(GFrame(secs))


class TestInvariance:
    def test_identity_tensor(self, L, ch):
        assert check_invariance(L, OneOneTensor.identity(ch)).status == PASS

    def test_worked_split_example(self, ch):
        a = parse_scalar("x^2+1", ch)
        b = parse_scalar("y^3-2*y", ch)
        Ls, r = split_43_fixture(a, b)
        assert check_invariance(Ls, r).status == PASS

    def test_mismatch_fails_with_witness(self, L, ch):
        r = OneOneTensor.diagonal(ch, [ch.one(), ch.var("x")])
        v = check_invariance(L, r)
        assert v.status == FAIL
        # oracle: direct matrix comparison of pi# r* and r pi# says they differ
        assert str(v.witnesses[0][1]) == "x - 1"


class TestDStability:
    def test_pn_pair(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        assert check_D_stability(L, rx).status == PASS

    def test_worked_split_example(self, ch):
        a = parse_scalar("x^2+1", ch)
        b = parse_scalar("y^3-2*y", ch)
        Ls, r = split_43_fixture(a, b)
        assert check_D_stability(Ls, r).status == PASS

    def test_gauge_with_nonclosed_b_fails(self):
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.one()})
        B = PForm(ch, 2, {(0, 1): ch.var("z")})  # dB != 0
        r, L01 = gauge_transform(pi, B)
        L = make_graph_poisson(pi)
        v = check_D_stability(L, r)
        assert v.status == FAIL
        # witness: the Magri-Morosi concomitant equals pi#(i_X i_{pi# a} dB)
        dB = ext_d(B)
        for k in range(3):
            X = VectorField.coordinate(ch, k)
            for j in range(3):
                alpha = PForm.coordinate(ch, j)
                lhs = concomitant_R(pi, r, X, alpha)
                rhs = pi.sharp(interior(pi.sharp(alpha), interior(X, dB)))
                assert (lhs - rhs).is_zero()


class TestConcomitants:
    def test_s_tilde_structure_and_relation(self):
        assert run_identity("form_concomitant_structure", seed=9, instances=4) == 0
        assert run_identity("form_concomitant_relation", seed=9, instances=4) == 0

    def test_mm_alternative(self):
        assert run_identity("mm_concomitant_alternative", seed=9, instances=4) == 0

    def test_pairing_relation(self):
        assert run_identity("concomitant_pairing_relation", seed=9, instances=4) == 0


class TestFormCompat:
    def test_rotation_fails_skewness(self, ch):
        J = OneOneTensor(ch, [[ch.zero(), -ch.one()], [ch.one(), ch.zero()]])
        w = PForm(ch, 2, {(0, 1): ch.one()})
        assert check_form_compat(w, J).status == FAIL

    def test_c2_fixture(self):
        from dngeo.fixtures import c2_presymplectic_fixture
        from dngeo.tensor import form_r

        ch, J, omega, omega_im = c2_presymplectic_fixture()
        assert check_form_compat(omega, J.r).status == PASS
        assert (form_r(omega, J.r).to_form() + omega_im).is_zero()

    def test_constant_scalar_always(self):
        ch = chart3()
        rng = random.Random(0)
        w = random_pform(ch, 2, rng)
        r = OneOneTensor.scalar(ch, ch.const(Fraction(5, 2)))
        assert check_form_compat(w, r).status == PASS


class TestNullDistribution:
    def test_graph_empty(self, L):
        assert null_distribution(L).basis == ()

    def test_split(self, ch):
        Ls = make_split([VectorField.coordinate(ch, 1)])
        nd = null_distribution(Ls)
        assert len(nd.basis) == 1
        assert nd.basis[0] == VectorField.coordinate(ch, 1)
        # invariant: (v, 0) must lie in the span of the frame
        assert section_in_span(GSection.from_vector(nd.basis[0]), Ls)

    def test_degenerate_form_on_r3(self):
        ch = chart3()
        w = PForm(ch, 2, {(0, 1): ch.one()})
        Lw = make_graph_presymplectic(w)
        nd = null_distribution(Lw)
        assert len(nd.basis) == 1
        assert nd.basis[0] == VectorField.coordinate(ch, 2)

    def test_pole_at_every_sample_point(self):
        # every sample point (1+s+7t, 2+s+7t) has y = x + 1
        ch = Chart("R2", ("x", "y"))
        w = PForm(ch, 2, {(0, 1): parse_scalar("1/(y - x - 1)", ch)})
        # the frame has no pole-free retry either, so the lagrangian
        # precondition is what fails
        with pytest.raises(PreconditionError, match="precondition failed: lagrangian"):
            null_distribution(make_graph_presymplectic(w))


class TestHierarchy:
    def test_scalar_fixture(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        L1 = hierarchy(L, rx, 1, "n0")
        target = make_graph_poisson(Bivector(ch, {(0, 1): ch.var("x")}))
        assert frames_equal_span(L1, target)

    def test_identity_both_sides(self, L, ch):
        rid = OneOneTensor.identity(ch)
        assert frames_equal_span(hierarchy(L, rid, 3, "n0"), L)
        assert frames_equal_span(hierarchy(L, rid, 2, "0n"), L)

    def test_zero_side_kernel_condition(self, L, ch):
        # for a nondegenerate bivector graph the (0,n) condition reduces to
        # ker(pi#) meeting ker((r*)^n), which is automatic here
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        L01 = hierarchy(L, rx, 1, "0n")
        assert check_lagrangian(L01).status == PASS
        # degenerate bivector: the whole coframe sits in the frame, so a rank
        # drop of r* violates the condition and the error names the side
        L0 = make_graph_poisson(Bivector.zero(ch))
        r0 = OneOneTensor.diagonal(ch, [ch.zero(), ch.one()])
        with pytest.raises(HierarchyKernelError) as e:
            hierarchy(L0, r0, 1, "0n")
        assert "(0,n)" in str(e.value)
        # and the (n,0) side: a split frame whose null direction r kills
        Ls = make_split([VectorField.coordinate(ch, 1)])
        rk = OneOneTensor.diagonal(ch, [ch.one(), ch.zero()])
        with pytest.raises(HierarchyKernelError) as e2:
            hierarchy(Ls, rk, 1, "n0")
        assert "(n,0)" in str(e2.value)

    def test_members_pass_checks(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        for n in (1, 2, 3):
            member = hierarchy(L, rx, n, "n0")
            assert dirac_nijenhuis_report(member, rx).all_pass()

    @pytest.mark.parametrize(
        "name", ["bivector_hierarchy_recursion", "form_hierarchy_recursion"]
    )
    def test_recursion_identities(self, name):
        assert run_identity(name, seed=10, instances=4) == 0

    @pytest.mark.parametrize(
        "name", ["hierarchy_null_distribution", "hierarchy_leaf_projection"]
    )
    def test_hierarchy_invariants(self, name):
        assert run_identity(name, seed=11, instances=4) == 0

    def test_inverse_compatibility(self):
        assert run_identity("inverse_compatibility", seed=12, instances=3) == 0

    def test_weak_torsion_involutivity(self):
        assert run_identity("weak_torsion_involutivity", seed=13, instances=1) == 0


class TestConcur:
    def test_self_product(self, L):
        assert check_concur(L, L).status == PASS

    def test_poisson_sum_criterion(self):
        assert run_identity("concurrence_of_poisson_sums", seed=14, instances=4) == 0

    def test_hierarchy_members_concur(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        L1 = hierarchy(L, rx, 1, "n0")
        L2 = hierarchy(L, rx, 2, "n0")
        assert check_concur(L1, L2).status == PASS
        # oracle: Schouten bracket of x pi and x^2 pi vanishes on a 2-chart
        p1 = Bivector(ch, {(0, 1): ch.var("x")})
        p2 = Bivector(ch, {(0, 1): ch.var("x") ** 2})
        assert schouten_is_zero(schouten_bivector(p1, p2))

    def test_projection_mismatch(self, ch, L):
        Ls = make_split([VectorField.coordinate(ch, 1)])
        with pytest.raises(PreconditionError):
            check_concur(L, Ls)

    def test_equal_covector_ranks_whose_solve_fails(self, ch):
        # Ann(d_y) = dx and Ann(d_x) = dy: both covector matrices have rank
        # 1, so the ranks agree, and dx is not a combination of dy
        L1, L2 = (make_split([VectorField.coordinate(ch, k)]) for k in (1, 0))
        assert generic_rank(L1.covector_matrix()) == generic_rank(L2.covector_matrix()) == 1
        with pytest.raises(PreconditionError, match="^covector projections differ at the generic point$"):
            check_concur(L1, L2)

    def test_second_covector_matrix_is_built_once(self, monkeypatch):
        calls = []
        build = GFrame.covector_matrix
        monkeypatch.setattr(GFrame, "covector_matrix", lambda self: calls.append(self) or build(self))
        ch = chart3()
        L = make_graph_poisson(Bivector(ch, {(0, 1): ch.one()}))
        M = make_graph_poisson(Bivector(ch, {(0, 1): ch.var("x")}))
        assert check_concur(L, M).status == PASS
        assert len(calls) == 2 and L in calls and M in calls


class TestTraces:
    def test_scalar_fixture_values(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        ts = traces(rx, 3)
        assert [str(t) for t in ts] == ["2*x", "x^2", "2/3*x^3"]
        # ladder identity r*(d phi_i) = d phi_{i+1}
        from dngeo.tensor import scalar_d

        for i in range(2):
            assert (rx.dual(scalar_d(ts[i])) - scalar_d(ts[i + 1])).is_zero()
        assert check_traces_involution(L, rx, 4).status == PASS

    def test_hamiltonian_representative_pairs_nothing(self, L, ch, monkeypatch):
        # (X, df) is a combination of the sections, so it lies in the span
        # without a pairing against the frame
        import dngeo.dirac as dirac

        calls = []
        pair = dirac.pairing
        monkeypatch.setattr(dirac, "pairing", lambda *a: calls.append(a) or pair(*a))
        (X,) = dirac.hamiltonian_representative(L, [ch.var("x") * ch.var("y")])
        assert X == VectorField(ch, [-ch.var("x"), ch.var("y")])
        assert calls == []

    def test_admissibility_flips_with_constancy(self, ch):
        a = parse_scalar("x^2+1", ch)
        Ls, r_bad = split_43_fixture(a, parse_scalar("y^3-2*y", ch))
        with pytest.raises(AdmissibilityError, match="trace not admissible"):
            check_traces_involution(Ls, r_bad, 2)
        _, r_good = split_43_fixture(a, ch.const(5))
        assert check_traces_involution(Ls, r_good, 3).status == PASS


class TestGauge:
    def test_zero_form(self, pi, ch, L):
        r, L01 = gauge_transform(pi, PForm.zero(ch, 2))
        assert r == OneOneTensor.identity(ch)
        assert frames_equal_span(L01, L)

    def test_two_chart_example(self, pi, ch, L):
        B = PForm(ch, 2, {(0, 1): ch.one()})
        r, L01 = gauge_transform(pi, B)
        assert r.is_zero()  # pi# B_flat = -id here
        rep = dirac_nijenhuis_report(L, r)
        assert rep.all_pass()
        assert check_lagrangian(L01).status == PASS
        assert check_involutive(L01).status == PASS

    def test_random_closed_gauge_compatible(self, ch):
        rng = random.Random(15)
        h = ch.one() + random_scalar(ch, rng, 2, 2) ** 2
        g = random_scalar(ch, rng, 2, 2)
        pi = Bivector(ch, {(0, 1): h})
        B = PForm(ch, 2, {(0, 1): g})
        r, L01 = gauge_transform(pi, B)
        L = make_graph_poisson(pi)
        rep = dirac_nijenhuis_report(L, r)
        assert rep.compatible()
        assert check_involutive(L01).status == PASS
        # gauge frame is the (0,1) transform of the graph
        assert frames_equal_span(L01, hierarchy(L, r, 1, "0n"))


class TestQuasiNijenhuis:
    def test_nijenhuis_with_zero_form(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        assert quasi_nijenhuis_check(L, rx, PForm.zero(ch, 3)).status == PASS

    def test_graph_condition_built_by_oracle(self):
        # build phi on a 3-chart solving <a, N(Y,Z)> = -phi(X,Y,Z) for a
        # graph frame: N(X,Y) = pi#(phi(X,Y,.)) is the oracle relation
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.one(), (0, 2): ch.zero()})
        L = make_graph_poisson(pi)
        # r with nonzero torsion whose image pairs into the frame's covectors
        r = OneOneTensor.diagonal(ch, [ch.var("x"), ch.var("x") + ch.one(), ch.one()])
        N = nijenhuis_torsion(r)
        assert not N.is_zero()
        # phi(X,Y,Z) = -<a, N(Y,Z)> forced on coordinates; solve components
        comps = {}
        for i, j, k in [(0, 1, 2)]:
            comps[(i, j, k)] = ch.zero()
        phi = PForm(ch, 3, comps)
        v = quasi_nijenhuis_check(L, r, phi)
        # torsion escapes L cap TM here, so zero phi must fail
        assert v.status == FAIL

    def test_quasi_fixture_with_matching_form(self):
        # a torsionful r on R3 whose quasi defect is matched by the 3-form
        # solving the graph condition N(Y,Z) = pi#(phi(Y,Z,.)).  For
        # r = diag(z, z, 0) the torsion is z(dz ^ .) on the bivector's range.
        ch = chart3()
        z = ch.var("z")
        pi = Bivector(ch, {(0, 1): ch.one()})
        L = make_graph_poisson(pi)
        r = OneOneTensor.diagonal(ch, [z, z, ch.zero()])
        N = nijenhuis_torsion(r)
        assert not N.is_zero()
        # oracle expansion of the torsion on coordinates
        dx, dy, dz = (VectorField.coordinate(ch, k) for k in range(3))
        assert (N.apply(dx, dz) - dx.scale(z)).is_zero()
        assert (N.apply(dy, dz) - dy.scale(z)).is_zero()
        assert N.apply(dx, dy).is_zero()
        # solve the graph condition: phi = z dx^dy^dz matches
        phi = PForm(ch, 3, {(0, 1, 2): z})
        for (j, k) in [(0, 1), (0, 2), (1, 2)]:
            Y = VectorField.coordinate(ch, j)
            Z = VectorField.coordinate(ch, k)
            assert (
                N.apply(Y, Z) - pi.sharp(interior(Z, interior(Y, phi)))
            ).is_zero()
        assert quasi_nijenhuis_check(L, r, phi).status == PASS
        # scaling phi breaks the match (linearity)
        assert quasi_nijenhuis_check(L, r, phi.scale(ch.const(2))).status == FAIL
        # and phi = 0 fails since the torsion image escapes L cap TM
        assert quasi_nijenhuis_check(L, r, PForm.zero(ch, 3)).status == FAIL


class TestQuasiClosednessGate:
    def test_nonclosed_rejected(self):
        ch4 = Chart("R4", ("x", "y", "z", "w"))
        pi = Bivector(ch4, {(0, 1): ch4.one()})
        L = make_graph_poisson(pi)
        phi = PForm(ch4, 3, {(0, 1, 2): ch4.var("w")})
        with pytest.raises(PreconditionError):
            quasi_nijenhuis_check(L, OneOneTensor.identity(ch4), phi)


class TestTransfers:
    def test_backward_slice(self):
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.one()})
        L = make_graph_poisson(pi)
        Lb, _ = backward_transfer(L, {"z": Fraction(0)})
        target = make_graph_poisson(Bivector(Lb.chart, {(0, 1): Lb.chart.one()}))
        assert frames_equal_span(Lb, target)

    def test_backward_respects_r_invariance(self):
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.one()})
        L = make_graph_poisson(pi)
        r = OneOneTensor.diagonal(ch, [ch.var("x"), ch.var("x"), ch.one()])
        Lb, rC = backward_transfer(L, {"z": Fraction(1)}, r)
        assert rC is not None
        rep = dirac_nijenhuis_report(Lb, rC)
        assert rep.all_pass()
        # non-invariant slice is rejected
        rbad = OneOneTensor(
            ch,
            [
                [ch.one(), ch.zero(), ch.zero()],
                [ch.zero(), ch.one(), ch.zero()],
                [ch.var("x"), ch.zero(), ch.one()],
            ],
        )
        with pytest.raises(PreconditionError):
            backward_transfer(L, {"z": Fraction(1)}, rbad)

    def test_backward_slice_with_a_pole_at_every_sample_point(self):
        # on z = 0 the frame has 1/(y - x - 1), and every sample point
        # (1+s+7t, 2+s+7t) of the slice chart lies on y = x + 1
        ch = Chart("M", ("x", "y", "z"))
        L = make_graph_poisson(Bivector(ch, {(0, 1): ch.scalar("1/(y - x - 1 + z)")}))
        assert check_lagrangian(L).status == PASS
        Lb, _ = backward_transfer(L, {"z": Fraction(0)})
        lag = check_lagrangian(Lb)
        assert lag.status == INCONCLUSIVE
        assert lag.witnesses == (("rank", "no valid sample point"),)
        target = make_graph_poisson(Bivector(Lb.chart, {(0, 1): Lb.chart.scalar("1/(y - x - 1)")}))
        assert frames_equal_span(Lb, target)

    def test_backward_slice_ignores_a_transverse_section_with_a_pole(self):
        # L = TM framed by (d_x, 0) and (d_x/y + d_y, 0); only the first
        # section is tangent to y = 0, and the second has a pole there
        ch = chart2()
        s1 = GSection.from_vector(VectorField.coordinate(ch, 0))
        s2 = GSection.from_vector(VectorField(ch, [ch.scalar("1/y"), ch.one()]))
        L = GFrame([s1, s2])
        assert check_lagrangian(L).status == PASS
        Lb, _ = backward_transfer(L, {"y": Fraction(0)})
        assert Lb.chart.variables == ("x",)
        assert Lb.sections == (GSection.from_vector(VectorField.coordinate(Lb.chart, 0)),)

    def test_forward_split_quotient(self, ch):
        Ls = make_split([VectorField.coordinate(ch, 1)])
        Lf, _ = forward_transfer(Ls, ("x",))
        assert Lf.chart.variables == ("x",)
        assert Lf.sections[0] == GSection.from_form(PForm.coordinate(Lf.chart, 0))

    def test_forward_descends_tensor(self, ch):
        Ls = make_split([VectorField.coordinate(ch, 1)])
        rt = OneOneTensor.diagonal(ch, [ch.var("x"), ch.var("x") + ch.one()])
        Lf, rQ = forward_transfer(Ls, ("x",), rt)
        assert str(rQ.grid[0][0]) == "x"
        # trace relation: trace(r~) = a + c upstairs, trace(r_Q) = a downstairs
        assert (rt.trace().substitute({"y": 0}) - (ch.var("x") * 2 + ch.one())).is_zero()

    def test_forward_rejects_bad_projection(self, L):
        with pytest.raises(PreconditionError):
            forward_transfer(L, ("x",))

    def test_quotient_trace_relationship(self, ch):
        # for the single-variable diagonal family the upstairs trace is
        # either twice the quotient trace (equal entries) or the quotient
        # trace shifted by the constant entry
        Ls = make_split([VectorField.coordinate(ch, 1)])
        a = parse_scalar("x^2 + x", ch)
        r_eq = OneOneTensor.diagonal(ch, [a, a])
        _, rq = forward_transfer(Ls, ("x",), r_eq)
        assert (r_eq.trace() - ch.const(2) * rq.trace().extend(ch)).is_zero()
        lam = ch.const(7)
        r_shift = OneOneTensor.diagonal(ch, [a, lam])
        _, rq2 = forward_transfer(Ls, ("x",), r_shift)
        assert (r_shift.trace() - rq2.trace().extend(ch) - lam).is_zero()


class TestComparisonNotions:
    def test_dn_implies_contraction_type(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        assert check_contraction_type(L, rx).status == PASS

    def test_dn_with_injective_transform_is_double_type(self, L, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        assert check_double_type(L, rx).status == PASS

    def test_double_type_samples_each_frame_once(self, monkeypatch):
        # the kernel condition of the (1,0) transform and its lagrangian check
        # share one sampled rank: one call for L, one for (r, id)L
        import dngeo.dirac as dirac
        from dngeo.scene import parse_scene, run_scene

        calls = []
        sample = dirac.rank_at_samples
        monkeypatch.setattr(dirac, "rank_at_samples", lambda m, s: calls.append(m) or sample(m, s))
        path = Path(__file__).resolve().parent.parent / "scenes" / "scalar_hierarchy.scene"
        lines = [line for line in path.read_text().splitlines() if not line.startswith("check ")]
        (record,) = run_scene(parse_scene("\n".join(lines + ["check double_type L r"])))
        assert record.verdict.status == PASS
        assert len(calls) == 2

    def test_contraction_strictly_more_general(self):
        # rank-deficient bivector on a 3-chart with r = z id: the contracted
        # conditions hold along the range of the bivector while the full
        # stability fails in the transverse direction
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.one()})
        L = make_graph_poisson(pi)
        rz = OneOneTensor.scalar(ch, ch.var("z"))
        assert check_contraction_type(L, rz).status == PASS
        assert check_D_stability(L, rz).status == FAIL
        # oracle: the concomitant itself is nonzero but its image under the
        # bivector vanishes
        from dngeo.dirac import concomitant_C

        a, b = PForm.coordinate(ch, 0), PForm.coordinate(ch, 1)
        C = concomitant_C(pi, rz, a, b)
        assert not C.is_zero()
        assert pi.sharp(C).is_zero()


class TestReportEquivalences:
    @pytest.mark.parametrize(
        "name", ["graph_poisson_equivalence", "graph_presymplectic_equivalence"]
    )
    def test_graph_equivalences(self, name):
        assert run_identity(name, seed=16, instances=4) == 0

    def test_degenerate_inputs_pass_with_zero_tensor(self, ch):
        rz = OneOneTensor.zero(ch)
        L0 = make_graph_poisson(Bivector.zero(ch))
        rep = dirac_nijenhuis_report(L0, rz)
        assert rep.all_pass()
