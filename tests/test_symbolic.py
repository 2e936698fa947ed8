"""Scalar kernel: Gaussian rationals, polynomials, gcd, canonical forms,
differentiation, evaluation, and the expression parser."""

import random
from fractions import Fraction

import pytest

from dngeo.errors import (
    ExprSyntaxError,
    PointEvaluationError,
    UnknownVariableError,
    )
from dngeo.fixtures import random_scalar
from dngeo.symbolic import (
    Chart,
    GaussianRational,
    divexact,
    parse_scalar,
    poly_gcd,
    to_str,
)


@pytest.fixture
def ch():
    return Chart("R2", ("x1", "x2"))


@pytest.fixture
def chc():
    return Chart("C1", ("x",), "complex")


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 2), 3)
        b = GaussianRational(2, Fraction(-1, 3))
        assert (a + b) - b == a
        assert a * b / b == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_division_exact(self):
        a = GaussianRational(1, 1)
        assert a * a == GaussianRational(0, 2)
        assert GaussianRational(0, 2) / a == a

    def test_mixing_with_fraction(self):
        a = GaussianRational(1, 2)
        assert a + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 2)
        assert 2 * a == GaussianRational(2, 4)
        assert a == a + 0

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)


class TestParserExamples:
    def test_polynomial_terms(self, ch):
        s = parse_scalar("x1^2*x2 - 3/2", ch)
        assert s.den.is_one()
        assert s.num.terms == {(2, 1): Fraction(1), (0, 0): Fraction(-3, 2)}

    def test_gcd_reduction(self, ch):
        assert parse_scalar("(x1+1)/(x1+1)", ch) == ch.one()

    def test_zero_denominator(self, ch):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x1/0", ch)

    def test_unknown_variable(self, ch):
        with pytest.raises(UnknownVariableError):
            parse_scalar("x1 + q", ch)

    def test_error_position(self, ch):
        with pytest.raises(ExprSyntaxError) as e:
            parse_scalar("x1 +* x2", ch)
        assert e.value.col == 5

    def test_precedence(self, ch):
        assert parse_scalar("2*x1^2", ch) == ch.var("x1") ** 2 * 2
        assert parse_scalar("-x1^2", ch) == -(ch.var("x1") ** 2)
        assert parse_scalar("1/2*x1", ch) == ch.var("x1") / 2

    def test_imag_unit(self, chc):
        v = parse_scalar("i*x", chc)
        assert v.eval([3]) == GaussianRational(0, 3)

    def test_imag_reserved_only_complex(self, ch):
        with pytest.raises(UnknownVariableError):
            parse_scalar("i", ch)


class TestScalarArithmetic:
    def test_identity_cancellation(self, ch):
        assert (parse_scalar("(x1+1)^2", ch) - parse_scalar("x1^2+2*x1+1", ch)).is_zero()

    def test_inverse(self, ch):
        x = ch.var("x1")
        assert ((1 / x) * x) == ch.one()

    def test_common_denominator(self, ch):
        x, y = ch.var("x1"), ch.var("x2")
        s = x / y + y / x
        assert to_str(s) == "(x1^2 + x2^2)/(x1*x2)"

    def test_diff(self, ch):
        assert parse_scalar("x1^2*x2", ch).diff("x1") == parse_scalar("2*x1*x2", ch)
        assert parse_scalar("1/x1", ch).diff("x1") == parse_scalar("-1/x1^2", ch)
        assert parse_scalar("x1", ch).diff("x2").is_zero()

    def test_eval(self, ch):
        assert parse_scalar("x1^2 + x2", ch).eval([2, 3]) == 7
        with pytest.raises(PointEvaluationError):
            parse_scalar("1/x1", ch).eval([0, 1])

    def test_is_zero(self, ch):
        assert parse_scalar("(x1-x2)*(x1+x2) - x1^2 + x2^2", ch).is_zero()
        assert not parse_scalar("x1 - x2", ch).is_zero()
        assert ch.zero().is_zero()

    def test_substitute(self, ch):
        s = parse_scalar("x1*x2 + x2^2", ch)
        assert s.substitute({"x2": 2}) == parse_scalar("2*x1 + 4", ch)
        with pytest.raises(PointEvaluationError):
            parse_scalar("1/x2", ch).substitute({"x2": 0})


class TestCanonicality:
    @pytest.mark.parametrize("seed", range(6))
    def test_construction_order_independent(self, ch, seed):
        rng = random.Random(seed)
        a = random_scalar(ch, rng)
        b = random_scalar(ch, rng)
        d = ch.one() + random_scalar(ch, rng, 1) ** 2
        left = a / d + b / d
        right = (b + a) / d
        assert left.num == right.num and left.den == right.den

    def test_monic_denominator(self, ch):
        s = parse_scalar("x1/(2*x2)", ch)
        assert s.den == parse_scalar("x2", ch).num
        assert s.num.terms == {(1, 0): Fraction(1, 2)}

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip(self, ch, seed):
        rng = random.Random(seed)
        s = random_scalar(ch, rng) / (ch.one() + random_scalar(ch, rng, 1) ** 2)
        assert parse_scalar(to_str(s), ch) == s

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_complex(self, seed):
        ch = Chart("C2", ("z", "w"), "complex")
        rng = random.Random(seed)
        s = ch.zero()
        for _ in range(3):
            c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            t = ch.const(c)
            for _ in range(rng.randint(0, 2)):
                t = t * ch.var(rng.choice(ch.variables))
            s = s + t
        assert parse_scalar(to_str(s), ch) == s


class TestFieldAxioms:
    @pytest.mark.parametrize("seed", range(10))
    def test_axioms(self, seed):
        ch = Chart("R3", ("x", "y", "z")) if seed % 2 else Chart("R2", ("x", "y"))
        rng = random.Random(seed)
        a = random_scalar(ch, rng) / (ch.one() + random_scalar(ch, rng, 1) ** 2)
        b = random_scalar(ch, rng)
        c = random_scalar(ch, rng)
        assert ((a + b) + c - (a + (b + c))).is_zero()
        assert ((a * b) * c - (a * (b * c))).is_zero()
        assert (a * (b + c) - a * b - a * c).is_zero()
        assert (a - a).is_zero()
        if not b.is_zero():
            assert ((a / b) * b - a).is_zero()

    @pytest.mark.parametrize("seed", range(10))
    def test_diff_leibniz(self, seed):
        ch = Chart("R2", ("x", "y"))
        rng = random.Random(seed)
        a = random_scalar(ch, rng)
        b = random_scalar(ch, rng) / (ch.one() + random_scalar(ch, rng, 1) ** 2)
        k = seed % 2
        assert ((a * b).diff(k) - a.diff(k) * b - a * b.diff(k)).is_zero()


class TestSchwartzZippel:
    @pytest.mark.parametrize("seed", range(10))
    def test_nonzero_hits_random_points(self, seed):
        ch = Chart("R2", ("x", "y"))
        rng = random.Random(seed)
        s = random_scalar(ch, rng)
        if s.is_zero():
            return
        hits = 0
        for _ in range(8):
            point = [Fraction(rng.randint(1, 10**6)) for _ in range(ch.dim)]
            try:
                if s.eval(point):
                    hits += 1
            except PointEvaluationError:
                continue
        assert hits >= 1


class TestPolyGcd:
    def test_multivariate_cancellation(self):
        ch = Chart("R3", ("x", "y", "z"))
        a = parse_scalar("(x+y)*(x-y)*(z+1)", ch)
        b = parse_scalar("(x+y)^2*(z+1)", ch)
        assert to_str(a / b) == "(x - y)/(x + y)"

    def test_gcd_symmetry(self):
        ch = Chart("R2", ("x", "y"))
        f = parse_scalar("(x+y)^2*(x-1)", ch).num
        g = parse_scalar("(x+y)*(y+2)", ch).num
        got = poly_gcd(f, g)
        assert got == parse_scalar("x+y", ch).num
        assert poly_gcd(g, f) == got

    def test_divexact_raises_on_inexact(self):
        ch = Chart("R1", ("x",))
        f = parse_scalar("x^2+1", ch).num
        g = parse_scalar("x+1", ch).num
        with pytest.raises(ValueError):
            divexact(f, g)

    @pytest.mark.parametrize("seed", range(6))
    def test_gcd_divides_both(self, seed):
        ch = Chart("R2", ("x", "y"))
        rng = random.Random(seed)
        common = random_scalar(ch, rng, 2, 2).num
        f = common * random_scalar(ch, rng, 2, 2).num
        g = common * random_scalar(ch, rng, 2, 2).num
        if f.is_zero() or g.is_zero():
            return
        gcd = poly_gcd(f, g)
        divexact(f, gcd)
        divexact(g, gcd)
        if not common.is_zero():
            divexact(gcd, poly_gcd(gcd, common))


class TestChart:
    def test_rejects_duplicate_vars(self):
        with pytest.raises(ValueError):
            Chart("bad", ("x", "x"))

    def test_rejects_imag_var_in_complex(self):
        with pytest.raises(ValueError):
            Chart("bad", ("i", "x"), "complex")

    def test_complex_coeff_on_real_chart(self):
        ch = Chart("R1", ("x",))
        with pytest.raises(ValueError):
            ch.const(GaussianRational(0, 1))
        with pytest.raises(ValueError, match="complex coefficient on a real chart"):
            ch.coeff(GaussianRational(0, 1))
        # a zero imaginary part is real on either chart
        for c in (ch, Chart("C1", ("x",), "complex")):
            assert type(c.coeff(GaussianRational(3, 0))) is Fraction
            assert c.coeff(GaussianRational(3, 0)) == 3
