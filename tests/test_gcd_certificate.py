"""The modular gcd certificate of poly_gcd against the PRS it sits in front of.

The oracle is the subresultant PRS alone: poly_gcd with the certificate
switched off at every level of its recursion.  Results are compared
structurally, coefficient types included, since both must be the unique
monic gcd.  The inputs plant common factors (also in a subset of the
variables), let one argument divide the other, make a trial division fail
with equal degree bounds, give a coefficient a denominator that P divides,
and make an x_k-leading coefficient vanish at every fixed probe point.

The cliff guards at the end are deterministic: exact residuals and counts
of `_subresultant_last` calls, not times.
"""

import inspect
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dngeo.symbolic import Chart, FracMatrix, ScalarExpr, kernel_basis, modp
from dngeo.symbolic import poly as poly_module
from dngeo.symbolic.gaussian import GaussianRational, gaussian
from dngeo.symbolic.poly import Polynomial, poly_gcd, poly_one

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)
P = modp.P


@contextmanager
def patched(**names):
    saved = {k: getattr(poly_module, k) for k in names}
    for k, v in names.items():
        setattr(poly_module, k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            setattr(poly_module, k, v)


def prs_gcd(f, g):
    """The oracle: poly_gcd by the PRS alone, at every level."""
    with patched(_certified_gcd=lambda f, g: None):
        return poly_gcd(f, g)


def structure(p):
    return p.nvars, {e: (type(c), c) for e, c in p.terms.items()}


def exit_taken(f, g):
    """Which exit of the certificate settles the nonconstant pair f, g, and
    whether a trial division failed on the way."""
    calls = {"gcd": 0, "failed": False}
    gcd, divexact = poly_module.poly_gcd, poly_module.divexact

    def counted(*args):
        calls["gcd"] += 1
        return gcd(*args)

    def trial(q, p):
        try:
            return divexact(q, p)
        except ValueError:
            calls["failed"] |= not calls["gcd"]  # a trial of exit 2, not of a recursion
            raise

    with patched(poly_gcd=counted, divexact=trial):
        out = poly_module._certified_gcd(f, g)
    if out is None:
        kind = "prs"
    elif calls["gcd"]:
        kind = "free variables"
    else:
        kind = "coprime" if out.is_one() else "divisor"
    return kind, calls["failed"]


# -- inputs ------------------------------------------------------------------------


def poly(n, terms):
    out = Polynomial.zero(n)
    for e, c in terms:
        out = out + Polynomial(n, {tuple(e): c}) if c else out
    return out


def variable(n, k):
    return Polynomial.variable(n, k)


def const(n, c):
    return Polynomial.const(n, c)


@st.composite
def coefficients(draw, complex_):
    c = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    if complex_ and draw(st.booleans()):
        return gaussian(c, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
    return c


@st.composite
def polys(draw, n, support, complex_, max_terms=3, max_degree=2, nonconstant=False):
    """A nonzero polynomial in the variables of support."""
    while True:
        terms = []
        for _ in range(draw(st.integers(1, max_terms))):
            e = [0] * n
            for k in support:
                e[k] = draw(st.integers(0, max_degree))
            terms.append((e, draw(coefficients(complex_))))
        p = poly(n, terms)
        if not p.is_zero() and not (nonconstant and p.is_constant()):
            return p


KINDS = ["random", "planted", "subset", "divides", "failed trial", "no image", "vanishing lead"]


@st.composite
def gcd_pairs(draw):
    n = draw(st.integers(1, 4))
    complex_ = draw(st.booleans())
    kind = draw(st.sampled_from(KINDS))
    every = range(n)
    some = sorted(draw(st.sets(st.sampled_from(every), min_size=1, max_size=n)))
    a = draw(polys(n, every, complex_))
    b = draw(polys(n, some, complex_))
    if kind == "random":
        f, g = a, b
    elif kind == "vanishing lead" and n > 1:
        # h = L x_k + r with L vanishing at every probe point
        k, j = draw(st.permutations(every))[:2]
        lead = poly_one(n)
        for t in range(modp.PROBES):
            lead = lead * (variable(n, j) - const(n, Fraction(modp.probe(t, n)[j])))
        h = lead * variable(n, k) + draw(polys(n, [i for i in every if i != k], complex_, 2, 1))
        f, g = h * a, h * b
    else:
        support = some if kind == "subset" else every
        h = draw(polys(n, support, complex_, nonconstant=True))
        if kind == "no image":
            h = h + const(n, Fraction(draw(st.integers(1, 3)), P))
        if kind == "failed trial":
            f, g = h * (b + const(n, Fraction(P))), h * b
        elif kind == "divides":
            f, g = h * a, h
        else:
            f, g = h * a, h * b
    scale = draw(st.sampled_from([Fraction(1), Fraction(6, 35), Fraction(-4, 9)]))
    if draw(st.booleans()):
        f, g = g, f
    return kind, f.scale(scale), g


def x(n=1):
    return variable(n, 0)


# (x + 1/P)(x + P) and (x + 1/P)(x + 2P): with the coefficients that have no
# image left out, the images x^2 + 1 and x^2 + 2 are coprime mod P
NO_IMAGE = (
    "no image",
    (x() + const(1, Fraction(1, P))) * (x() + const(1, Fraction(P))),
    (x() + const(1, Fraction(1, P))) * (x() + const(1, Fraction(2 * P))),
)
# h = (y - v) x + 1 with v the y of the first probe point, where h has the
# image 1
_h = (variable(2, 1) - const(2, Fraction(modp.probe(0, 2)[1]))) * x(2) + poly_one(2)
FIRST_PROBE = (
    "vanishing lead",
    _h * (x(2) + const(2, Fraction(2))),
    _h * (x(2) + const(2, Fraction(3))),
)
# x + P + 1 and x + 1 have one image, of the degrees of both
FAILED_TRIAL = ("failed trial", x() + const(1, Fraction(P + 1)), x() + const(1, Fraction(1)))


def keeps_leads(images, pair, k, t):
    """Whether both x_k-leading coefficients keep their degree at probe point t."""
    point = modp.probe(t, pair[0].nvars)
    return all(modp.univariate(im, k, point, p.degree_in(k)) for im, p in zip(images, pair))


def test_the_certificate_matches_the_prs():
    seen = set()

    @SETTINGS
    @given(gcd_pairs())
    @example(NO_IMAGE)
    @example(FAILED_TRIAL)
    @example(FIRST_PROBE)
    def check(case):
        kind, f, g = case
        want = prs_gcd(f, g)
        assert structure(poly_gcd(f, g)) == structure(want)
        seen.add(kind)
        if f.is_constant() or g.is_constant():
            return
        exit_, failed = exit_taken(f, g)
        seen.add(exit_)
        if failed:
            seen.add("trial division failed")
        images = modp.poly_image(f), modp.poly_image(g)
        if None in images:
            seen.add("coefficient without image")
        else:
            for k in range(f.nvars):
                if f.degree_in(k) and g.degree_in(k):
                    kept = [keeps_leads(images, (f, g), k, t) for t in range(modp.PROBES)]
                    if not kept[0]:
                        where = "the first" if any(kept) else "every"
                        seen.add(f"vanishing lead at {where} probe point")
        if any(isinstance(c, GaussianRational) for p in (f, g) for c in p.terms.values()):
            seen.add("gaussian")
        if not want.is_one():
            seen.add(f"gcd in {sum(d > 0 for d in poly_module._degrees(want))} of {f.nvars}")

    check()
    assert set(KINDS) <= seen
    assert {
        "coprime",
        "divisor",
        "free variables",
        "prs",
        "trial division failed",
        "coefficient without image",
        "vanishing lead at the first probe point",
        "vanishing lead at every probe point",
        "gaussian",
        "gcd in 1 of 2",
    } <= seen


def test_gcd_degree_mod_p():
    # (x + 1)(x + 2) and (x + 1)(x + 3), lowest coefficient first
    assert modp.gcd_degree([2, 3, 1], [3, 4, 1]) == 1
    assert modp.gcd_degree([2, 3, 1], [2, 3, 1]) == 2
    assert modp.gcd_degree([2, 3, 1], [5]) == 0
    assert modp.gcd_degree([1, 0, 1], [2, 0, 1]) == 0


# -- cliff guards ------------------------------------------------------------------


@contextmanager
def prs_calls():
    """The running count of _subresultant_last calls."""
    count = [0]
    last = poly_module._subresultant_last

    def counted(*args):
        count[0] += 1
        return last(*args)

    with patched(_subresultant_last=counted):
        yield count


def deficient_ladder(n):
    """The n x n ladder matrix of the frames benchmark (bench/wl_frames.py)
    with its last row replaced by the sum of rows 0 and 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import wl_frames
    finally:
        sys.path.pop(0)
    _, job, _ = wl_frames._ladder_job(n)
    m = inspect.getclosurevars(job).nonlocals["m"]
    rows = [list(r) for r in m.entries]
    rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return FracMatrix(m.chart, rows)


def test_deficient_ladder_kernels_need_no_multivariate_prs():
    # 1.6-2.5 s at n = 3 and over 90 s at n = 4 on the PRS alone; the one PRS
    # left at n = 4 runs on two univariate quadratics with a common linear
    # factor, which no exit of the certificate settles
    for n, prs in ((3, 0), (4, 1)):
        m = deficient_ladder(n)
        with prs_calls() as count:
            basis = kernel_basis(m)
        assert count[0] == prs
        assert len(basis) == 1
        for row in m.entries:
            assert sum((a * b for a, b in zip(row, basis[0])), m.chart.zero()).is_zero()


def test_a_gaussian_pairing_sum_needs_no_prs():
    # X0 A0 + X1 A1 over Q(i) with degree-4 bivariate denominators, and its
    # sum with itself as in a pairing <s, s>: each takes seconds to tens of
    # seconds on the PRS alone
    rng = random.Random("pairing")
    chart = Chart("M", ("x", "y"), "complex")

    def part(degree, count):
        terms = []
        for _ in range(count):
            a = rng.randint(0, degree)
            c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            e = (a, rng.randint(0, degree - a))
            terms.append((e, gaussian(c, Fraction(rng.randint(-4, 4)))))
        return poly(2, terms)

    X0, A0, X1, A1 = (ScalarExpr(chart, part(3, 5), part(4, 6)) for _ in range(4))
    with prs_calls() as count:
        s = X0 * A0 + X1 * A1
        # over one denominator only the numerators are summed
        double = s + s
    assert count[0] == 0
    assert double == s * 2
    assert max(sum(e) for e in s.den.terms) >= 8
    # the sum is exact: clearing its denominator leaves a polynomial identity
    lhs = s.num * X0.den * A0.den * X1.den * A1.den
    rhs = (X0.num * A0.num * X1.den * A1.den + X1.num * A1.num * X0.den * A0.den) * s.den
    assert lhs == rhs
