"""Fraction-free elimination over the function field: kernels, solves,
sample-point ranks, and the normalization of returned vectors."""

import random
from fractions import Fraction

import pytest

from dngeo.fixtures import random_scalar
from dngeo.symbolic import (
    Chart,
    FracMatrix,
    generic_rank,
    kernel_basis,
    parse_scalar,
    pivot_columns,
    rank_at_samples,
    sample_point,
    solve_linear,
)


@pytest.fixture
def ch():
    return Chart("R2", ("x", "y"))


def M(ch, rows):
    return FracMatrix(ch, [[parse_scalar(e, ch) for e in row] for row in rows])


class TestKernelBasis:
    def test_rank_one(self, ch):
        basis = kernel_basis(M(ch, [["x", "1"], ["x^2", "x"]]))
        assert len(basis) == 1
        assert [str(v) for v in basis[0]] == ["1", "-x"]

    def test_identity(self, ch):
        assert kernel_basis(M(ch, [["1", "0"], ["0", "1"]])) == []

    def test_zero(self, ch):
        basis = kernel_basis(M(ch, [["0", "0"], ["0", "0"]]))
        assert [[str(v) for v in vec] for vec in basis] == [["1", "0"], ["0", "1"]]

    @pytest.mark.parametrize("seed", range(8))
    def test_annihilation_and_rank(self, seed):
        ch = Chart("R3", ("x", "y", "z"))
        rng = random.Random(seed)
        rows = rng.randrange(1, 4)
        m = FracMatrix(
            ch, [[random_scalar(ch, rng, 2, 2) for _ in range(3)] for _ in range(rows)]
        )
        basis = kernel_basis(m)
        for vec in basis:
            for i in range(rows):
                dot = sum((m.entries[i][j] * vec[j] for j in range(3)), ch.zero())
                assert dot.is_zero()
        assert generic_rank(m) + len(basis) == 3

    def test_normalization_is_polynomial_and_content_one(self, ch):
        (out,) = kernel_basis(M(ch, [["y", "-x"]]))
        assert all(v.den.is_one() for v in out)
        assert [str(v) for v in out] == ["x", "y"]


class TestSolveLinear:
    def test_basic(self, ch):
        m = M(ch, [["1", "0"], ["0", "x"]])
        sol = solve_linear(m, [ch.one(), parse_scalar("x^2", ch)])
        assert [str(v) for v in sol] == ["1", "x"]

    def test_inconsistent(self, ch):
        m = M(ch, [["1"], ["1"]])
        assert solve_linear(m, [ch.zero(), ch.one()]) is None

    def test_free_variables_zeroed(self, ch):
        m = M(ch, [["0", "0"]])
        assert [str(v) for v in solve_linear(m, [ch.zero()])] == ["0", "0"]

    @pytest.mark.parametrize("seed", range(8))
    def test_solution_satisfies_system(self, seed):
        ch = Chart("R2", ("x", "y"))
        rng = random.Random(seed)
        m = FracMatrix(
            ch, [[random_scalar(ch, rng, 2, 2) for _ in range(3)] for _ in range(2)]
        )
        target = [random_scalar(ch, rng, 1, 2) for _ in range(3)]
        rhs = [
            sum((m.entries[i][j] * target[j] for j in range(3)), ch.zero())
            for i in range(2)
        ]
        sol = solve_linear(m, rhs)
        assert sol is not None
        for i in range(2):
            got = sum((m.entries[i][j] * sol[j] for j in range(3)), ch.zero())
            assert (got - rhs[i]).is_zero()

    def test_deterministic(self, ch):
        m = M(ch, [["x", "1", "0"], ["0", "0", "1"]])
        s1 = solve_linear(m, [ch.one(), ch.one()])
        s2 = solve_linear(m, [ch.one(), ch.one()])
        assert [str(a) for a in s1] == [str(a) for a in s2]


class TestComplexMode:
    @pytest.fixture
    def chc(self):
        return Chart("C2", ("z", "w"), "complex")

    def test_kernel_over_gaussian_field(self, chc):
        i_ = chc.imag_unit()
        z, w = chc.var("z"), chc.var("w")
        m = FracMatrix(chc, [[z, i_ * z], [w * z, i_ * w * z]])
        basis = kernel_basis(m)
        assert len(basis) == 1
        assert [str(v) for v in basis[0]] == ["1", "i"]
        assert rank_at_samples(m, 2) == 1

    def test_normalize_gaussian_vector(self, chc):
        (out,) = kernel_basis(M(chc, [["(1-i)*w", "-z"]]))
        assert all(v.den.is_one() for v in out)
        assert [str(v) for v in out] == ["z", "(1-i)*w"]

    def test_solve_with_imag_coefficients(self, chc):
        i_ = chc.imag_unit()
        sol = solve_linear(FracMatrix(chc, [[i_]]), [chc.var("z")])
        assert str(sol[0]) == "-i*z"


class TestSamplePoints:
    def test_default_progression(self, ch):
        assert sample_point(ch, 0, 0) == [Fraction(1), Fraction(2)]
        assert sample_point(ch, 1, 0) == [Fraction(2), Fraction(3)]
        assert sample_point(ch, 0, 1) == [Fraction(8), Fraction(9)]

    def test_rank_with_pole_retries(self, ch):
        # denominator vanishes at the first sample point; retry must kick in
        m = FracMatrix(ch, [[parse_scalar("1/(x-1)", ch)]])
        assert rank_at_samples(m, 1) == 1

    def test_rank_detects_generic_vs_special(self, ch):
        m = M(ch, [["x", "0"], ["0", "x"]])
        assert generic_rank(m) == 2
        assert rank_at_samples(m, 2) == 2


class TestGenericRank:
    def test_full_rank_at_a_sample_point_needs_no_elimination(self, ch, monkeypatch):
        import dngeo.symbolic.linalg as linalg

        def eliminate(m):
            raise AssertionError("elimination ran")

        monkeypatch.setattr(linalg, "pivot_columns", eliminate)
        assert generic_rank(M(ch, [["x", "1"], ["y", "x*y"], ["1", "0"]])) == 2
        assert generic_rank(M(ch, [["x", "1", "y"]])) == 1
        assert generic_rank(FracMatrix(ch, [])) == 0

    def test_rank_drop_at_the_sample_point_falls_back(self, ch):
        # x - 1 vanishes at the first sample point (1, 2)
        m = M(ch, [["x - 1", "0"], ["0", "1"]])
        assert rank_at_samples(m, 1) == 1
        assert generic_rank(m) == 2
        assert generic_rank(M(ch, [["x", "y"], ["x^2", "x*y"]])) == 1

    def test_pole_at_every_sample_point_falls_back(self, ch):
        # every sample point (1+s+7t, 2+s+7t) has y = x + 1
        m = M(ch, [["1/(y - x - 1)", "0"], ["0", "1"]])
        assert rank_at_samples(m, 1) is None
        assert generic_rank(m) == 2

    def test_pivot_columns_skip_dependent_and_zero_columns(self, ch):
        m = M(ch, [["0", "x", "x*y", "1"], ["0", "1", "y", "0"]])
        assert pivot_columns(m) == [1, 3]
        assert pivot_columns(FracMatrix(ch, [])) == []
