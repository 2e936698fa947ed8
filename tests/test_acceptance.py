"""Acceptance suite: one test per criterion, exact symbolic equality as the
pass condition, one printed pass/fail line each.

Criteria (all primary):
  1 identity suite at >= 20 seeded instances per listed identity
  2 the worked split-distribution example with randomized coefficients
  3 gauge transformations: closed case compatible, non-closed witness exact
  4 hierarchy laws for the scalar fixture, members, concurrence, traces
  5 holomorphic dictionary: forms, graph correspondence, bracket preservation
  6 algebroid layer on every fixture; flat-map verdict tracks closedness
  7 contraction/double-type separations
  8 lift-level relations on doubled charts for seeded compatible pairs
  9 byte-identical selftest reports
"""

import random
from fractions import Fraction


from dngeo.algebroid import (
    IMForm,
    check_algebroid,
    check_IM_compat,
    check_IM_form,
    check_IM_nijenhuis,
    check_IM_oneone,
    dirac_to_algebroid,
    tangent_algebroid,
    transport_oneone,
)
from dngeo.dirac import (
    FAIL,
    PASS,
    check_concur,
    check_contraction_type,
    check_D_stability,
    check_double_type,
    check_traces_involution,
    check_nijenhuis,
    concomitant_R,
    dirac_nijenhuis_report,
    frames_equal_span,
    gauge_transform,
    hierarchy,
    make_graph_poisson,
    make_graph_presymplectic,
    null_distribution,
    traces,
)
from dngeo.errors import AdmissibilityError
from dngeo.fixtures import (
    c2_presymplectic_fixture,
    chart2,
    chart3,
    holomorphic_poisson_real_part,
    holomorphic_section_2chart,
    pn_pair_2chart,
    random_pform,
    random_scalar,
    split_43_fixture,
)
from dngeo.holomorphic import (
    check_holo_form,
    phi_courant_check,
    standard_complex_structure,
)
from dngeo.identities import CRITERION_ONE, run_identity
from dngeo.tensor import (
    Bivector,
    OneOneTensor,
    PForm,
    VectorField,
    ext_d,
    interior,
    nijenhuis_torsion,
)


def report(n, name, ok):
    print(f"ACCEPTANCE {n} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def univariate(ch, var, rng, rational=False):
    """Random polynomial (or rational) function of one chart variable."""
    k = ch.index(var)
    out = ch.zero()
    for d in range(rng.randint(1, 3) + 1):
        out = out + ch.const(Fraction(rng.randint(-3, 3))) * ch.var(var) ** d
    if rational:
        out = out / (ch.one() + ch.var(var) ** 2)
    return out


def dirac_nijenhuis_fixtures():
    """The named (frame, tensor) pairs used by criteria 6 and 7."""
    out = []
    ch = chart2()
    rng = random.Random(430)
    a = univariate(ch, "x", rng, rational=True)
    b = univariate(ch, "y", rng)
    L43, r43 = split_43_fixture(a, b)
    out.append(("worked_split", L43, r43))
    # gauge on a 2-chart
    h = ch.one() + random_scalar(ch, rng, 2, 2) ** 2
    piB = Bivector(ch, {(0, 1): h})
    B = PForm(ch, 2, {(0, 1): random_scalar(ch, rng, 2, 2)})
    r_gauge, _ = gauge_transform(piB, B)
    out.append(("gauge_closed", make_graph_poisson(piB), r_gauge))
    # the scalar hierarchy base and a member
    pi = Bivector(ch, {(0, 1): ch.one()})
    rx = OneOneTensor.scalar(ch, ch.var("x"))
    L = make_graph_poisson(pi)
    out.append(("scalar_pair", L, rx))
    out.append(("scalar_pair_h2", hierarchy(L, rx, 2, "n0"), rx))
    # holomorphic Poisson real part
    ch4, J, pi4, L4 = holomorphic_poisson_real_part(random.Random(5))
    out.append(("holomorphic_poisson", L4, J.r))
    # presymplectic graph on C^2
    chc, Jc, omega, _ = c2_presymplectic_fixture()
    out.append(("holomorphic_presymplectic", make_graph_presymplectic(omega), Jc.r))
    return out


class TestAcceptance:
    def test_1_identity_suite(self):
        failures = {}
        for name in CRITERION_ONE:
            f = run_identity(name, seed=2026, instances=20)
            if f:
                failures[name] = f
        report(1, "identity suite, 20 instances each", not failures)

    def test_2_worked_example(self):
        ok = True
        for seed in range(4):
            rng = random.Random(seed)
            ch = chart2()
            a = univariate(ch, "x", rng, rational=bool(seed % 2))
            b = univariate(ch, "y", rng, rational=bool((seed + 1) % 2))
            L, r = split_43_fixture(a, b)
            rep = dirac_nijenhuis_report(L, r)
            ok = ok and rep.all_pass()
            # admissibility flips with constancy of b
            if not b.diff(1).is_zero():
                try:
                    check_traces_involution(L, r, 2)
                    ok = False
                except AdmissibilityError:
                    pass
            _, r_const = split_43_fixture(a, ch.const(rng.randint(1, 5)))
            ok = ok and check_traces_involution(L, r_const, 3).status == PASS
            # torsion verdict of the single-variable variant tracks (a-c) c'
            c = univariate(ch, "x", rng)
            _, rt = split_43_fixture(a, c)
            criterion = ((a - c) * c.diff(0)).is_zero()
            ok = ok and nijenhuis_torsion(rt).is_zero() == criterion
            ok = ok and (check_nijenhuis(rt).status == PASS) == criterion
        report(2, "worked split example", ok)

    def test_3_gauge(self):
        ok = True
        ch = chart2()
        for seed in range(4):
            rng = random.Random(seed)
            h = ch.one() + random_scalar(ch, rng, 2, 2) ** 2
            pi = Bivector(ch, {(0, 1): h})
            B = PForm(ch, 2, {(0, 1): random_scalar(ch, rng, 2, 2)})
            ok = ok and ext_d(B).is_zero()
            r, L01 = gauge_transform(pi, B)
            L = make_graph_poisson(pi)
            ok = ok and dirac_nijenhuis_report(L, r).compatible()
            rep01 = dirac_nijenhuis_report(L01, r)
            ok = ok and rep01.lagrangian.status == PASS
            ok = ok and rep01.involutive.status == PASS
            ok = ok and frames_equal_span(L01, hierarchy(L, r, 1, "0n"))
        # non-closed case on a 3-chart: the stability defect is exactly
        # pi#(i_X i_{pi# a} dB), asserted canonically on all coordinate slots
        ch3_ = chart3()
        pi = Bivector(ch3_, {(0, 1): ch3_.one()})
        B = PForm(ch3_, 2, {(0, 1): ch3_.var("z"), (1, 2): ch3_.var("x")})
        dB = ext_d(B)
        ok = ok and not dB.is_zero()
        r, _ = gauge_transform(pi, B)
        L = make_graph_poisson(pi)
        ok = ok and check_D_stability(L, r).status == FAIL
        for k in range(3):
            X = VectorField.coordinate(ch3_, k)
            for j in range(3):
                alpha = PForm.coordinate(ch3_, j)
                lhs = concomitant_R(pi, r, X, alpha)
                rhs = pi.sharp(interior(pi.sharp(alpha), interior(X, dB)))
                ok = ok and (lhs - rhs).is_zero()
        report(3, "gauge transformations", ok)

    def test_4_hierarchy_laws(self):
        ch = chart2()
        pi = Bivector(ch, {(0, 1): ch.one()})
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        L = make_graph_poisson(pi)
        ok = True
        members = [L]
        for n in range(1, 5):
            Ln = hierarchy(L, rx, n, "n0")
            members.append(Ln)
            target = make_graph_poisson(Bivector(ch, {(0, 1): ch.var("x") ** n}))
            ok = ok and frames_equal_span(Ln, target)
            ok = ok and dirac_nijenhuis_report(Ln, rx).all_pass()
            ok = ok and len(null_distribution(Ln).basis) == 0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                ok = ok and check_concur(members[i], members[j]).status == PASS
        ok = ok and check_traces_involution(L, rx, 4).status == PASS
        phis = traces(rx, 4)
        ok = ok and [str(p) for p in phis] == ["2*x", "x^2", "2/3*x^3", "1/2*x^4"]
        report(4, "hierarchy laws", ok)

    def test_5_holomorphic_dictionary(self):
        from dngeo.holomorphic import phi_map, phi_pairing

        ok = True
        chc, Jc, omega, omega_im = c2_presymplectic_fixture()
        ok = ok and check_holo_form((omega, omega_im), Jc).status == PASS
        for seed in range(3):
            ch4, J, pi4, L4 = holomorphic_poisson_real_part(random.Random(seed))
            rep = dirac_nijenhuis_report(L4, J.r)
            ok = ok and rep.all_pass()
            # the complex side of the equivalence: the identified frame is
            # lagrangian for the complex-bilinear pairing
            for a in range(4):
                for b in range(4):
                    re, im = phi_pairing(
                        phi_map(L4.sections[a], J), phi_map(L4.sections[b], J)
                    )
                    ok = ok and re.is_zero() and im.is_zero()
        ch = chart2()
        J = standard_complex_structure(ch)
        pairs = 0
        rng = random.Random(55)
        while pairs < 10:
            s1 = holomorphic_section_2chart(rng)
            s2 = holomorphic_section_2chart(rng)
            ok = ok and phi_courant_check(s1, s2, J).status == PASS
            pairs += 1
        report(5, "holomorphic dictionary", ok)

    def test_6_algebroid_layer(self):
        ok = True
        for name, L, r in dirac_nijenhuis_fixtures():
            A, imf = dirac_to_algebroid(L)
            ok = ok and check_algebroid(A).status == PASS
            ok = ok and check_IM_form(imf).status == PASS
            rep = dirac_nijenhuis_report(L, r)
            if rep.all_pass():
                T = transport_oneone(A, L, r)
                ok = ok and check_IM_oneone(T).status == PASS
                ok = ok and check_IM_nijenhuis(T).status == PASS
                ok = ok and check_IM_compat(imf, T).status == PASS
        # flat-map verdict coincides with closedness on >= 20 random 2-forms,
        # half of them exact (hence closed) so both verdict directions occur
        ch = chart3()
        At = tangent_algebroid(ch)
        agreements = 0
        saw = {True: 0, False: 0}
        for seed in range(20):
            rng = random.Random(1000 + seed)
            if seed % 2 == 0:
                w = ext_d(random_pform(ch, 1, rng))
            else:
                w = random_pform(ch, 2, rng)
            mu = tuple(interior(VectorField.coordinate(ch, i), w) for i in range(3))
            nu = tuple(PForm.zero(ch, 2) for _ in range(3))
            verdict = check_IM_form(IMForm(At, 2, mu, nu))
            closed = ext_d(w).is_zero()
            saw[closed] += 1
            if (verdict.status == PASS) == closed:
                agreements += 1
        ok = ok and agreements == 20 and saw[True] >= 5 and saw[False] >= 5
        report(6, "algebroid layer", ok)

    def test_7_comparison_separations(self):
        ok = True
        for name, L, r in dirac_nijenhuis_fixtures():
            rep = dirac_nijenhuis_report(L, r)
            if not rep.all_pass():
                continue
            ok = ok and check_contraction_type(L, r).status == PASS
            dv = check_double_type(L, r)
            ok = ok and dv.status in (PASS, "inconclusive")
        # the derived separation fixture: contraction-type passes while full
        # stability fails (rank-deficient bivector, transverse scalar tensor)
        ch = chart3()
        pi = Bivector(ch, {(0, 1): ch.one()})
        L = make_graph_poisson(pi)
        rz = OneOneTensor.scalar(ch, ch.var("z"))
        ok = ok and check_contraction_type(L, rz).status == PASS
        ok = ok and check_D_stability(L, rz).status == FAIL
        report(7, "contraction/double-type separations", ok)

    def test_8_lift_layer(self):
        from dngeo.fixtures import random_oneform, random_vf
        from dngeo.identities import (
            lift_pairing_holds,
            lift_relations_hold,
            pn_intertwine_holds,
        )

        ok = True
        for seed in range(5):
            rng = random.Random(800 + seed)
            ch, pi, r = pn_pair_2chart(rng)
            ok = ok and dirac_nijenhuis_report(make_graph_poisson(pi), r).all_pass()
            ok = ok and lift_relations_hold(
                r, random_vf(ch, rng, 2), random_oneform(ch, rng, 2)
            )
            ok = ok and lift_pairing_holds(r)
            ok = ok and pn_intertwine_holds(pi, r)
        report(8, "lift layer", ok)

    def test_9_selftest_determinism(self, capsys):
        from dngeo.cli import main

        code1 = main(["selftest", "--instances", "1"])
        out1 = capsys.readouterr().out
        code2 = main(["selftest", "--instances", "1"])
        out2 = capsys.readouterr().out
        ok = code1 == 0 and code2 == 0 and out1 == out2
        report(9, "selftest determinism", ok)
