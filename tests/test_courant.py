"""Generalized-tangent-bundle sections: pairing, Dorfman bracket, the
combined derivation, derived brackets and their comparison identities."""

import random

import pytest

from dngeo.courant import (
    GSection,
    _coordinate_D,
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
from dngeo.fixtures import (
    chart2,
    chart3,
    pn_pair_2chart,
    random_gsection,
    random_oneone,
    random_scalar,
    random_vf,
)
from dngeo.identities import run_identity
from dngeo.dirac import PASS, check_double_type, make_graph_poisson, concomitant_R
from dngeo.scene import parse_scene
from dngeo.tensor import (
    OneOneTensor,
    PForm,
    VectorField,
    interior,
    nijenhuis_torsion,
    )


@pytest.fixture
def ch():
    return chart2()


def product_scene(n):
    """n/2 blocks like scenes/scalar_hierarchy.scene on the chart Rn: pi is
    the sum of d(2b-1)^d(2b), and r is (x(2b-1) + b)*id on block b."""
    rows = [", ".join(f"x{i - i % 2 + 1} + {i // 2 + 1}" if j == i else "0" for j in range(n)) for i in range(n)]
    return (
        f"chart R{n} " + " ".join(f"x{i}" for i in range(1, n + 1)) + "\n"
        + "bivector pi = " + " ; ".join(f"{b} {b + 1} 1" for b in range(1, n, 2)) + "\n"
        + "oneone r = " + " ; ".join(rows) + "\n"
        + "frame L = poisson pi\n"
    )


class TestPairing:
    def test_examples(self, ch):
        dx = GSection.from_vector(VectorField.coordinate(ch, 0))
        Dx = GSection.from_form(PForm.coordinate(ch, 0))
        Dy = GSection.from_form(PForm.coordinate(ch, 1))
        assert pairing(dx, Dx) == ch.one()
        assert pairing(dx, Dy).is_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry(self, ch, seed):
        rng = random.Random(seed)
        s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
        assert (pairing(s1, s2) - pairing(s2, s1)).is_zero()


class TestCourantBracket:
    def test_constant_sections(self, ch):
        s1 = GSection.from_vector(VectorField.coordinate(ch, 0))
        s2 = GSection.from_form(PForm.coordinate(ch, 1))
        assert courant_bracket(s1, s2).is_zero()

    def test_linear_example(self, ch):
        xdy = GSection.from_vector(VectorField(ch, [ch.zero(), ch.var("x")]))
        dx = GSection.from_vector(VectorField.coordinate(ch, 0))
        out = courant_bracket(xdy, dx)
        assert out == GSection.from_vector(-VectorField.coordinate(ch, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_dorfman_symmetrization(self, seed):
        assert run_identity("dorfman_symmetrization", seed=seed, instances=2) == 0


class TestBigD:
    def test_identity_annihilates(self, ch):
        rng = random.Random(1)
        assert big_D(
            random_vf(ch, rng), random_gsection(ch, rng), OneOneTensor.identity(ch)
        ).is_zero()

    def test_scalar_example(self, ch):
        rx = OneOneTensor.scalar(ch, ch.var("x"))
        out = big_D(
            VectorField.coordinate(ch, 0),
            GSection(VectorField.coordinate(ch, 1), PForm.coordinate(ch, 1)),
            rx,
        )
        assert out == GSection.from_form(PForm.coordinate(ch, 1))

    def test_leibniz(self):
        assert run_identity("combined_leibniz", seed=5, instances=4) == 0

    @pytest.mark.parametrize("chart", [chart2(), chart3(), chart2("complex")], ids=lambda c: c.name + c.mode)
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_over_functions_in_the_field(self, chart, seed):
        # check_contraction_type reads D_Y as sum_k Y^k D_{d_k} from this
        rng = random.Random(seed)
        X, Y = random_vf(chart, rng), random_vf(chart, rng)
        s, r = random_gsection(chart, rng), random_oneone(chart, rng)
        f = random_scalar(chart, rng) / (random_scalar(chart, rng, 2) + chart.var("y") ** 3 + 1)
        if chart.mode == "complex":
            f = f + chart.imag_unit() * chart.var("x")
        lhs = big_D(X.scale(f) + Y, s, r)
        assert lhs == big_D(X, s, r).scale(f) + big_D(Y, s, r)
        assert lhs == big_D(Y, s, r) + sum(
            (d.scale(f * c) for c, d in zip(X.comps, _coordinate_D(s, r))), GSection.zero(chart)
        )

    def test_derivations_form_no_bracket_differential_or_contraction(self, monkeypatch):
        # each derivation is read from one closed form, so neither a Lie
        # bracket nor Cartan's formula is formed, through any binding
        import sys

        import dngeo.tensor as tensor

        calls = []
        for name in ("lie_bracket", "ext_d", "interior"):
            original = getattr(tensor, name)

            def counted(*args, _name=name, _fn=original):
                calls.append(_name)
                return _fn(*args)

            for module in [m for key, m in sys.modules.items() if key.startswith("dngeo")]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        rng = random.Random(7)
        ch = chart3()
        X, s, r = random_vf(ch, rng), random_gsection(ch, rng), random_oneone(ch, rng)
        w = PForm(ch, 2, {(0, 1): random_scalar(ch, rng), (1, 2): random_scalar(ch, rng)})
        big_D(X, s, r), tensor.D_r(X, s.vec, r), tensor.D_r_star(X, s.cov, r)
        tensor.lie_deriv_form(X, s.cov), tensor.lie_deriv_form(X, w)
        assert calls == []
        tensor.lie_bracket(X, s.vec)
        assert calls == ["lie_bracket"]

    def test_one_section_along_several_fields_forms_its_rows_once(self, monkeypatch):
        import dngeo.courant as courant
        from dngeo.tensor import lie_bracket

        formed = []
        rows = courant._coordinate_rows

        def counted(s, r):
            formed.append(s)
            return rows(s, r)

        monkeypatch.setattr(courant, "_coordinate_rows", counted)
        rng = random.Random(8)
        ch = chart2()
        X, Y, s, r = random_vf(ch, rng), random_vf(ch, rng), random_gsection(ch, rng), random_oneone(ch, rng)
        for Z in (X, Y, lie_bracket(X, Y)):
            big_D(Z, s, r)
        assert formed == [s]


class TestDerivedBrackets:
    def test_identity_reduces_to_courant(self, ch):
        rng = random.Random(2)
        s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
        rid = OneOneTensor.identity(ch)
        assert (bracket_Dr(s1, s2, rid) - courant_bracket(s1, s2)).is_zero()
        assert (double_bracket(s1, s2, rid) - courant_bracket(s1, s2)).is_zero()
        assert (contracted_bracket(s1, s2, rid) - courant_bracket(s1, s2)).is_zero()

    def test_zero_tensor(self, ch):
        rng = random.Random(3)
        s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
        rz = OneOneTensor.zero(ch)
        assert bracket_Dr(s1, s2, rz).is_zero()
        assert double_bracket(s1, s2, rz).vec.is_zero()

    @pytest.mark.parametrize(
        "name",
        [
            "deformed_bracket_symmetrization",
            "contracted_equals_derived",
            "contracted_torsion_formula",
            "double_bracket_relation",
        ],
    )
    def test_identities(self, name):
        assert run_identity(name, seed=6, instances=4) == 0

    def test_a_wrong_derived_bracket_fails_its_identity(self, monkeypatch):
        # the comparison lives in the identity, so a mismatch is a failing
        # instance rather than an exception out of the bracket
        import dngeo.courant as courant
        import dngeo.identities as identities

        right = courant.bracket_Dr

        def wrong(s1, s2, r):
            return right(s1, s2, r) + GSection.from_vector(VectorField.coordinate(s1.chart, 0))

        for module in (courant, identities):
            monkeypatch.setattr(module, "bracket_Dr", wrong)
        assert run_identity("contracted_equals_derived") == 3

    @pytest.mark.parametrize("n, brackets", [(4, 6), (6, 20)])
    def test_double_type_forms_one_deformed_bracket_per_double_bracket(self, monkeypatch, n, brackets):
        # on the product scene Rn: C(n - 1, 2) double brackets on L and on
        # its (1,0) transform, and no coordinate field pushed through the calculus
        import dngeo.courant as courant

        counts = {"bracket": 0, "coordinate": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(courant, "deformed_bracket", counted("bracket", courant.deformed_bracket))
        monkeypatch.setattr(VectorField, "coordinate", staticmethod(counted("coordinate", VectorField.coordinate)))
        scene = parse_scene(product_scene(n))
        assert check_double_type(scene.frames["L"], scene.oneones["r"]).status == PASS
        assert counts == {"bracket": brackets, "coordinate": 0}

    def test_nijenhuis_kills_contracted_torsion(self, ch):
        rng = random.Random(4)
        r = OneOneTensor.scalar(ch, random_scalar(ch, rng))
        s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
        assert contracted_torsion(s1, s2, r).is_zero()


class TestConcomitantCL:
    def test_identity_tensor(self, ch):
        rng = random.Random(5)
        s1, s2 = random_gsection(ch, rng), random_gsection(ch, rng)
        assert concomitant_CL(s1, s2, OneOneTensor.identity(ch)).is_zero()

    def test_skew_on_invariant_frames(self):
        # skewness holds once the span is invariant; exercised on the worked
        # split-distribution example frame
        ch = chart2()
        from dngeo.dirac import make_split

        L = make_split([VectorField.coordinate(ch, 1)])
        r = OneOneTensor.diagonal(
            ch, [ch.scalar("x^2+1"), ch.scalar("y^3")]
        )
        for s1 in L.sections:
            for s2 in L.sections:
                skew = concomitant_CL(s1, s2, r) + concomitant_CL(s2, s1, r)
                assert skew.is_zero()

    def test_reduces_to_magri_morosi_on_graphs(self, ch):
        # on graph frames the concomitant pairs to the bivector concomitant
        rng = random.Random(6)
        ch, pi, r = pn_pair_2chart(rng)
        L = make_graph_poisson(pi)
        for a in range(2):
            for b in range(2):
                s1, s2 = L.sections[a], L.sections[b]
                form = concomitant_CL(s1, s2, r)
                for k in range(2):
                    X = VectorField.coordinate(ch, k)
                    R = concomitant_R(pi, r, X, s1.cov)
                    got = form.get((k,))
                    expect = interior(R, s2.cov).as_scalar()
                    assert (got - expect).is_zero()


class TestStructuralIdentities:
    @pytest.mark.parametrize(
        "name",
        [
            "courant_compat_anchor",
            "courant_compat_projection",
            "courant_compat_bracket_invariance",
            "courant_compat_bracket_derivation",
            "derivation_square",
            "hierarchy_involutivity_identity",
        ],
    )
    def test_identities(self, name):
        assert run_identity(name, seed=7, instances=4) == 0

    def test_square_vanishes_for_nijenhuis(self):
        ch = chart2()
        rng = random.Random(8)
        r = OneOneTensor.scalar(ch, random_scalar(ch, rng))
        assert nijenhuis_torsion(r).is_zero()
        X, Y = random_vf(ch, rng), random_vf(ch, rng)
        s = random_gsection(ch, rng)
        from dngeo.tensor import deformed_bracket, lie_bracket

        val = (
            apply_rr(big_D(lie_bracket(X, Y), s, r), r)
            - (big_D(X, big_D(Y, s, r), r) - big_D(Y, big_D(X, s, r), r))
            - big_D(deformed_bracket(X, Y, r), s, r)
        )
        assert val.is_zero()
