"""Charts and canonical rational-function scalars.

A ScalarExpr is a fraction num/den of Polynomials over the chart's
coefficient field, kept in the canonical form

    * gcd(num, den) = 1,
    * den monic under graded-lex (so its leading coefficient is 1, which in
      Q(i) has positive real part),
    * the zero scalar is stored as 0/1.

Two ScalarExpr built in any order from the same rational function therefore
compare equal structurally.

ScalarExpr, Polynomial and Chart are immutable: nothing assigns `num`,
`den`, a polynomial's integer numerators `nums` and denominator `denom` (see
poly.py) or a chart field after construction, so results may share them.
The one exception is the memo rule (see `_kept` and the README): a scalar
keeps each partial derivative, formed on its first `diff`, in its `_memo`,
which both constructors set to None.  Each chart holds one zero scalar,
which `Chart.zero()` and the zero short-circuits of the arithmetic return.
`ScalarExpr.__init__` canonicalises its input; the trusted constructor
`ScalarExpr._make` skips that and may be used only where the result is
canonical by construction: a negation, a power of a nonzero scalar, a
nonzero sum or product of two scalars over denominator 1 (over a field a
product of nonzero polynomials is nonzero), a nonzero `dot` of pairs of
such scalars, the general product once its cross pairs are cancelled (the
numerator of each factor is then coprime to the denominator of the other,
and a monic denominator divided by a monic gcd stays monic), the
derivative of a scalar over denominator 1, and a nonzero polynomial over
denominator 1 (a solution entry y/D of linalg that D divides).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ChartMismatchError, PointEvaluationError, ZeroDenominatorError
from .gaussian import GaussianRational
from .poly import Polynomial, divexact, over_monic, poly_dot, poly_gcd, poly_one


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart: ordered variables plus a scalar mode."""

    name: str
    variables: tuple
    mode: str = "real"

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("chart variables must be distinct")
        if len(self.variables) < 1:
            raise ValueError("chart needs at least one variable")
        if self.mode not in ("real", "complex"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "complex" and "i" in self.variables:
            raise ValueError("'i' is reserved in complex mode")
        # plain attributes, not fields: equality, hash and repr stay those of
        # (name, variables, mode)
        dim = len(self.variables)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_zero", ScalarExpr._make(self, Polynomial.zero(dim), poly_one(dim)))
        object.__setattr__(self, "_one", ScalarExpr._make(self, poly_one(dim), poly_one(dim)))

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} on chart {self.name}") from None

    # -- scalar constructors ----------------------------------------------

    def coeff(self, value):
        """Coerce a number into this chart's coefficient field: a Fraction,
        or a GaussianRational with a nonzero imaginary part."""
        if isinstance(value, GaussianRational):
            if not value.im:
                return value.re
            if self.mode != "complex":
                raise ValueError("complex coefficient on a real chart")
            return value
        return value if type(value) is Fraction else Fraction(value)

    def zero(self) -> "ScalarExpr":
        return self._zero

    def one(self) -> "ScalarExpr":
        return self._one

    def const(self, value) -> "ScalarExpr":
        c = value if type(value) is int else self.coeff(value)  # an int is its own integer form
        return ScalarExpr(self, Polynomial.const(self.dim, c), poly_one(self.dim))

    def imag_unit(self) -> "ScalarExpr":
        if self.mode != "complex":
            raise ValueError("imaginary unit requires a complex-mode chart")
        return self.const(GaussianRational(0, 1))

    def var(self, name: str) -> "ScalarExpr":
        k = self.index(name)
        return ScalarExpr(self, Polynomial.variable(self.dim, k), poly_one(self.dim))

    def scalar(self, text: str) -> "ScalarExpr":
        from .parse import parse_scalar

        return parse_scalar(text, self)

    def compatible(self, other: "Chart") -> bool:
        return self.variables == other.variables and self.mode == other.mode


def same_chart(*objs):
    chart = objs[0].chart
    for o in objs[1:]:
        if o.chart is not chart and not chart.compatible(o.chart):
            raise ChartMismatchError(
                f"chart mismatch: {chart.name}{chart.variables} vs "
                f"{o.chart.name}{o.chart.variables}"
            )
    return chart


def _kept(obj, key, form, *args):
    """The memo rule: obj's derived datum `key` is form(*args), formed on first read
    and kept in obj._memo (None until then); form and args come apart, not as a closure."""
    memo = obj._memo
    if memo is None:
        memo = obj._memo = {}
    elif key in memo:
        return memo[key]
    value = memo[key] = form(*args)
    return value


class ScalarExpr:
    __slots__ = ("chart", "num", "den", "_memo")

    def __init__(self, chart: Chart, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        if not num.nums:
            num, den = chart._zero.num, chart._zero.den
        elif not den.is_one():
            g = poly_gcd(num, den)
            if not g.is_one():
                num = divexact(num, g)
                den = divexact(den, g)
            if not den.is_one():
                num, den = over_monic(num, den)
        self.chart = chart
        self.num = num
        self.den = den
        self._memo = None

    @classmethod
    def _make(cls, chart: Chart, num: Polynomial, den: Polynomial) -> "ScalarExpr":
        """Trusted constructor: num/den must already be canonical."""
        s = object.__new__(cls)
        s.chart, s.num, s.den, s._memo = chart, num, den, None
        return s

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.nums

    def __bool__(self):
        return bool(self.num.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            try:
                other = self.chart.const(other)
            except ValueError:  # a nonzero imaginary part on a real chart
                return False
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return (
            self.chart.compatible(other.chart)
            and self.num == other.num
            and self.den == other.den
        )

    __hash__ = None

    # -- field operations ----------------------------------------------------

    def _coerce(self, other) -> "ScalarExpr":
        if isinstance(other, ScalarExpr):
            if other.chart is not self.chart:
                same_chart(self, other)
            return other
        return self.chart.const(other)

    def __add__(self, other):
        o = other if type(other) is ScalarExpr and other.chart is self.chart else self._coerce(other)
        if not o.num.nums:
            return self
        if not self.num.nums:
            return o
        if self.den.is_one() and o.den.is_one():
            num = self.num + o.num
            return ScalarExpr._make(self.chart, num, self.den) if num.nums else self.chart._zero
        if self.den == o.den:  # only the sum of numerators can share a factor with den
            return ScalarExpr(self.chart, self.num + o.num, self.den)
        # Henrici's sum: with g = gcd(b, d), a/b + c/d = (a (d/g) + c (b/g)) / ((b/g) d),
        # whose numerator can share a factor with g only
        g = poly_gcd(self.den, o.den)
        b, d = (self.den, o.den) if g.is_one() else (divexact(self.den, g), divexact(o.den, g))
        return ScalarExpr(self.chart, self.num * d + o.num * b, b * o.den)

    __radd__ = __add__

    def __neg__(self):
        if not self.num.nums:
            return self
        return ScalarExpr._make(self.chart, -self.num, self.den)

    def __sub__(self, other):
        o = other if type(other) is ScalarExpr and other.chart is self.chart else self._coerce(other)
        if not o.num.nums:
            return self
        return self + (-o)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = other if type(other) is ScalarExpr and other.chart is self.chart else self._coerce(other)
        if not self.num.nums or not o.num.nums:
            return self.chart._zero
        if self.den.is_one() and o.den.is_one():
            return ScalarExpr._make(self.chart, self.num * o.num, self.den)
        # cross-cancel before multiplying to keep intermediate sizes down
        a, b, c, d = self.num, self.den, o.num, o.den
        g1 = poly_gcd(a, d)
        if not g1.is_one():
            a, d = divexact(a, g1), divexact(d, g1)
        g2 = poly_gcd(c, b)
        if not g2.is_one():
            c, b = divexact(c, g2), divexact(b, g2)
        # a*c and b*d are coprime, as each cross pair is; b and d stay monic
        return ScalarExpr._make(self.chart, a * c, b * d)

    __rmul__ = __mul__

    def inverse(self) -> "ScalarExpr":
        if self.num.is_zero():
            raise ZeroDenominatorError("inverse of zero")
        return ScalarExpr(self.chart, self.den, self.num)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return self.chart.one()
        if not self.num.nums:
            return self
        # coprime num and den stay coprime, and a monic den stays monic
        return ScalarExpr._make(self.chart, self.num ** k, self.den if self.den.is_one() else self.den ** k)

    # -- calculus -------------------------------------------------------------

    def diff(self, var) -> "ScalarExpr":
        """The partial derivative, kept per variable."""
        k = var if isinstance(var, int) else self.chart.index(var)
        return _kept(self, k, ScalarExpr._diff, self, k) if self.num.nums else self.chart._zero

    def _diff(self, k: int) -> "ScalarExpr":
        if self.den.is_one():
            num = self.num.diff(k)
            return ScalarExpr._make(self.chart, num, self.den) if num.nums else self.chart._zero
        n, d = self.num, self.den
        return ScalarExpr(self.chart, n.diff(k) * d - n * d.diff(k), d * d)

    def eval(self, point):
        """Exact value at a rational point; raises PointEvaluationError on poles."""
        if len(point) != self.chart.dim:
            raise ValueError("point dimension mismatch")
        return self._eval([self.chart.coeff(v) for v in point])

    def _eval(self, point):
        """eval at a point whose coordinates are already coefficients of the
        chart's field."""
        dv = self.den.eval(point)
        if not dv:
            raise PointEvaluationError(f"denominator vanishes at {tuple(point)}")
        return self.num.eval(point) / dv

    def substitute(self, assign: dict) -> "ScalarExpr":
        """Substitute constants for named variables; result stays on this chart."""
        amap = {self.chart.index(k): self.chart.coeff(v) for k, v in assign.items()}
        den = self.den.substitute(amap)
        if den.is_zero():
            raise PointEvaluationError("denominator vanishes on the slice")
        return ScalarExpr(self.chart, self.num.substitute(amap), den)

    def project(self, subchart: Chart) -> "ScalarExpr":
        """Re-express on a chart whose variables are a subset of this one's."""
        keep = [self.chart.index(v) for v in subchart.variables]
        return ScalarExpr(subchart, self.num.project(keep), self.den.project(keep))

    def extend(self, bigchart: Chart) -> "ScalarExpr":
        """Inject into a chart containing this chart's variables."""
        imap = [bigchart.index(v) for v in self.chart.variables]
        return ScalarExpr(
            bigchart,
            self.num.extend(bigchart.dim, imap),
            self.den.extend(bigchart.dim, imap),
        )

    def __repr__(self):
        return f"<{to_str(self)}>"

    def __str__(self):
        return to_str(self)


def dot(chart: Chart, pairs) -> ScalarExpr:
    """sum a*b over the (a, b) of pairs, on chart.

    Pairs with a zero factor are dropped.  When every factor left is a
    polynomial (denominator 1), the products are summed in one integer dict
    by `poly_dot`; otherwise they are folded from the left, which gives the
    same canonical scalar."""
    live = []
    for a, b in pairs:
        if a.chart is not chart or b.chart is not chart:
            same_chart(chart._zero, a, b)
        if a.num.nums and b.num.nums:
            live.append((a, b))
    if len(live) < 2:
        return live[0][0] * live[0][1] if live else chart._zero
    if all(a.den.is_one() and b.den.is_one() for a, b in live):
        num = poly_dot(chart.dim, [(a.num, b.num) for a, b in live])
        return ScalarExpr._make(chart, num, chart._one.den) if num.nums else chart._zero
    out = chart._zero
    for a, b in live:
        out = out + a * b
    return out


# -- canonical printing -------------------------------------------------------


def coeff_to_str(c) -> str:
    """Canonical text for a coefficient (used inside polynomial printing)."""
    if isinstance(c, GaussianRational):
        if c.im == 0:
            return str(c.re)
        if c.re == 0:
            if c.im == 1:
                return "i"
            if c.im == -1:
                return "-i"
            return f"{c.im}*i"
        sign = "+" if c.im > 0 else "-"
        mag = abs(c.im)
        imtxt = "i" if mag == 1 else f"{mag}*i"
        return f"({c.re}{sign}{imtxt})"
    return str(c)


def _monomial_str(expo, names) -> str:
    pieces = []
    for name, d in zip(names, expo):
        if d == 1:
            pieces.append(name)
        elif d > 1:
            pieces.append(f"{name}^{d}")
    return "*".join(pieces)


def poly_to_str(p: Polynomial, names) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for expo, c in p.sorted_terms():
        mono = _monomial_str(expo, names)
        # a GaussianRational coefficient has im != 0 (the coefficient rule)
        if isinstance(c, GaussianRational) and c.re != 0:
            coef = coeff_to_str(c)  # parenthesized mixed coefficient
            text = f"{coef}*{mono}" if mono else coef
            sign = "+"
        else:
            # real or purely imaginary: factor the sign out for readability
            neg = (c.im if isinstance(c, GaussianRational) else c) < 0
            core = coeff_to_str(-c if neg else c)
            bits = [b for b in ("" if core == "1" else core, mono) if b]
            text = "*".join(bits) if bits else "1"
            sign = "-" if neg else "+"
        pieces.append((sign, text))
    first_sign, first = pieces[0]
    out = first if first_sign == "+" else f"-{first}"
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def to_str(s: ScalarExpr) -> str:
    names = s.chart.variables
    if s.den.is_one():
        return poly_to_str(s.num, names)
    return f"({poly_to_str(s.num, names)})/({poly_to_str(s.den, names)})"
