"""Complex structures, the identification map and the dictionary with
holomorphic data."""

import random

import pytest

from dngeo.courant import GSection
from dngeo.dirac import (
    FAIL,
    PASS,
    GFrame,
    dirac_nijenhuis_report,
    )
from dngeo.errors import PreconditionError
from dngeo.fixtures import (
    c2_presymplectic_fixture,
    chart2,
    chart4,
    holomorphic_poisson_real_part,
    holomorphic_section_2chart,
    )
from dngeo.holomorphic import (
    ComplexStructure,
    check_holo_form,
    holo_form_from_real,
    is_holomorphic_section,
    phi_courant_check,
    phi_map,
    standard_complex_structure,
)
from dngeo.identities import run_identity
from dngeo.symbolic import Chart
from dngeo.tensor import OneOneTensor, PForm, VectorField


@pytest.fixture
def ch():
    return chart2()


@pytest.fixture
def J(ch):
    return standard_complex_structure(ch)


class TestComplexStructure:
    def test_standard_is_valid(self, J):
        pass  # construction validates the invariants

    def test_rejects_non_square_root(self, ch):
        with pytest.raises(PreconditionError):
            ComplexStructure(OneOneTensor.identity(ch))

    def test_rejects_odd_dimension(self):
        ch = Chart("R3", ("x", "y", "z"))
        with pytest.raises(PreconditionError):
            ComplexStructure(OneOneTensor.identity(ch))

    def test_rejects_torsionful_root(self):
        # a twisted square root of -id on a 4-chart with nonzero torsion
        # (every almost complex structure on a 2-chart is integrable)
        ch = chart4()
        g = ch.var("x2")
        z, one = ch.zero(), ch.one()
        grid = [
            [z, z, -one, z],
            [z, z, g, -one],
            [one, z, z, z],
            [g, one, z, z],
        ]
        r = OneOneTensor(ch, grid)
        assert (r.compose(r) + OneOneTensor.identity(ch)).is_zero()
        with pytest.raises(PreconditionError):
            ComplexStructure(r)


class TestPhiMap:
    def test_vector_example(self, ch, J):
        c = phi_map(GSection.from_vector(VectorField.coordinate(ch, 0)), J)
        half = ch.const(1) / ch.const(2)
        assert c.re.vec == VectorField.coordinate(ch, 0).scale(half)
        assert c.im.vec == VectorField.coordinate(ch, 1).scale(-half)
        assert c.re.cov.is_zero() and c.im.cov.is_zero()

    def test_form_example(self, ch, J):
        # J* dx = -dy, so the identified covector part is dx + i dy
        c = phi_map(GSection.from_form(PForm.coordinate(ch, 0)), J)
        assert c.re.cov == PForm.coordinate(ch, 0)
        assert c.im.cov == PForm.coordinate(ch, 1)

    @pytest.mark.parametrize("name", ["phi_complex_linear", "phi_pairing_expansion"])
    def test_identities(self, name):
        assert run_identity(name, seed=20, instances=4) == 0


class TestHolomorphicSections:
    def test_constant_sections(self, ch, J):
        s = GSection(
            VectorField(ch, [ch.const(2), ch.const(-1)]),
            PForm(ch, 1, {(0,): ch.one(), (1,): ch.const(3)}),
        )
        assert is_holomorphic_section(s, J)

    def test_euler_field(self, ch, J):
        s = GSection.from_vector(VectorField(ch, [ch.var("x"), ch.var("y")]))
        assert is_holomorphic_section(s, J)

    def test_non_holomorphic(self, ch, J):
        s = GSection.from_vector(VectorField(ch, [ch.var("x"), ch.zero()]))
        assert not is_holomorphic_section(s, J)

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_fixtures_are_holomorphic(self, ch, J, seed):
        s = holomorphic_section_2chart(random.Random(seed))
        assert is_holomorphic_section(s, J)


class TestPhiCourant:
    def test_constant_pair(self, ch, J):
        s1 = GSection.from_vector(VectorField.coordinate(ch, 0))
        s2 = GSection(
            VectorField.coordinate(ch, 1), PForm.coordinate(ch, 1)
        )
        assert phi_courant_check(s1, s2, J).status == PASS

    def test_euler_pair(self, ch, J):
        s1 = GSection.from_vector(VectorField(ch, [ch.var("x"), ch.var("y")]))
        s2 = holomorphic_section_2chart(random.Random(7))
        assert phi_courant_check(s1, s2, J).status == PASS

    def test_zero_sections(self, ch, J):
        z = GSection.zero(ch)
        assert phi_courant_check(z, z, J).status == PASS

    def test_rejects_non_holomorphic(self, ch, J):
        s = GSection.from_vector(VectorField(ch, [ch.var("x"), ch.zero()]))
        with pytest.raises(PreconditionError):
            phi_courant_check(s, s, J)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_holomorphic_pairs(self, ch, J, seed):
        rng = random.Random(seed)
        s1 = holomorphic_section_2chart(rng)
        s2 = holomorphic_section_2chart(rng)
        assert phi_courant_check(s1, s2, J).status == PASS


class TestHolomorphicDirac:
    """The identified subbundle is holomorphic Dirac iff (L, J) passes the
    full compatibility report with r = J."""

    def test_tangent_frame(self, ch, J):
        L = GFrame(
            [GSection.from_vector(VectorField.coordinate(ch, k)) for k in range(2)]
        )
        assert dirac_nijenhuis_report(L, J.r).all_pass()

    def test_holomorphic_poisson_graph(self):
        for seed in range(3):
            ch, J, pi4, L = holomorphic_poisson_real_part(random.Random(seed))
            assert dirac_nijenhuis_report(L, J.r).all_pass()

    def test_presymplectic_graph_fails_on_2chart(self, ch, J):
        from dngeo.dirac import make_graph_presymplectic

        w = PForm(ch, 2, {(0, 1): ch.one()})
        rep = dirac_nijenhuis_report(make_graph_presymplectic(w), J.r)
        assert not rep.all_pass()
        assert rep.invariance.status == FAIL


class TestHolomorphicForms:
    def test_c2_fixture(self):
        ch, J, omega, omega_im = c2_presymplectic_fixture()
        w, w1 = holo_form_from_real(omega, J)
        assert w1 == omega_im
        assert check_holo_form((omega, omega_im), J).status == PASS

    def test_no_holomorphic_2form_on_c1(self, ch, J):
        w = PForm(ch, 2, {(0, 1): ch.var("x")})
        assert check_holo_form((w, PForm.zero(ch, 2)), J).status == FAIL
        with pytest.raises(PreconditionError):
            holo_form_from_real(w, J)

    def test_wrong_imaginary_part_fails(self):
        ch, J, omega, omega_im = c2_presymplectic_fixture()
        assert check_holo_form((omega, -omega_im), J).status == FAIL

    def test_presymplectic_correspondence(self):
        # closed real part with compatible pair <=> the closed holomorphic form
        ch, J, omega, omega_im = c2_presymplectic_fixture()
        from dngeo.dirac import check_form_compat, make_graph_presymplectic, dirac_nijenhuis_report
        from dngeo.tensor import ext_d

        assert ext_d(omega).is_zero()
        assert check_form_compat(omega, J.r).status == PASS
        rep = dirac_nijenhuis_report(make_graph_presymplectic(omega), J.r)
        assert rep.all_pass()


class TestHolomorphicHierarchy:
    def test_square_identity(self):
        assert run_identity("holomorphic_hierarchy_square", seed=21, instances=3) == 0
