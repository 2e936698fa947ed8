"""Sampled decisions mod P against the exact path they replaced.

The oracles below are that exact path, and they live only here: every sample
point is evaluated to Fractions (or Gaussian rationals) by
eval_matrix_at_sample and ranked by numeric_rank, a Gaussian elimination on
field elements, and span equality reads its sampled ranks and pairings from
those values.  The package ranks the points that its images cannot decide by
its own fraction-free elimination instead, so the oracle is a second,
independent algorithm.  Each property runs at the package's prime and with
the prime forced to 5, where most images are rank deficient, have a
vanishing denominator or a coefficient without image, and so fall back.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dngeo.courant import GSection, pairing
from dngeo.dirac import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    GFrame,
    Verdict,
    check_lagrangian,
    frames_equal_span,
    make_graph_poisson,
    make_graph_presymplectic,
)
from dngeo.errors import PointEvaluationError
from dngeo.symbolic import (
    Chart,
    FracMatrix,
    GaussianRational,
    Polynomial,
    ScalarExpr,
    generic_rank,
    image_at_sample,
    pivot_columns,
    rank_at_samples,
    sample_point,
)
from dngeo.symbolic import linalg, modp
from dngeo.symbolic.poly import poly_one
from dngeo.tensor import Bivector, PForm, VectorField

from test_golden import CASES, GOLDEN, run

SETTINGS = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CHARTS = [Chart("R2", ("x", "y")), Chart("C2", ("x", "y"), "complex"), Chart("R3", ("x", "y", "z"))]
PRIMES = {"default": (modp.P, modp.I), "five": (5, 2)}


@contextmanager
def prime(name):
    saved = modp.P, modp.I
    modp.P, modp.I = PRIMES[name]
    try:
        yield
    finally:
        modp.P, modp.I = saved


# -- the prime -----------------------------------------------------------------------


def is_prime(n):
    """Deterministic Miller-Rabin: these bases decide every n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_the_prime_has_a_square_root_of_minus_one():
    assert modp.P == 2**61 - 31 and is_prime(modp.P)
    assert modp.P % 4 == 1 and modp.I * modp.I % modp.P == modp.P - 1
    assert is_prime(5) and 2 * 2 % 5 == 4
    assert [n for n in range(2, 40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(3215031751)  # a strong pseudoprime to the bases 2, 3, 5 and 7


def test_coefficient_images():
    P, I = modp.P, modp.I
    assert modp.coeff_image(Fraction(3)) == 3 and modp.coeff_image(Fraction(-1)) == P - 1
    assert modp.coeff_image(Fraction(1, 2)) * 2 % P == 1
    assert modp.coeff_image(GaussianRational(Fraction(1, 3), 2)) == (modp.coeff_image(Fraction(1, 3)) + 2 * I) % P
    assert modp.coeff_image(Fraction(1, P)) is None
    assert modp.coeff_image(GaussianRational(1, Fraction(2, 3 * P))) is None


# -- the oracles: the exact path by Gaussian elimination on field elements ---------------


def eval_matrix_at_sample(m, s=0):
    """The entries' values at sample point s, retrying past denominator zeros;
    None when every retry is a pole."""
    for retry in range(linalg.MAX_POINT_RETRIES + 1):
        point = sample_point(m.chart, s, retry)
        try:
            return [[e.eval(point) for e in row] for row in m.entries]
        except PointEvaluationError:
            continue
    return None


def numeric_rank(values):
    """Rank of a matrix of exact field elements by Gaussian elimination."""
    rows = [list(r) for r in values]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for pc in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if rows[i][pc]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        piv = rows[rank][pc]
        for i in range(rank + 1, nrows):
            if rows[i][pc]:
                factor = rows[i][pc] / piv
                for j in range(pc, ncols):
                    rows[i][j] = rows[i][j] - factor * rows[rank][j]
        rank += 1
        if rank == nrows:
            break
    return rank


def exact_rank_at_samples(m, samples):
    """Max rank over the sample points up to the first of full rank, or None
    at a point read with no pole-free retry."""
    best = 0
    for s in range(samples):
        values = eval_matrix_at_sample(m, s)
        if values is None:
            return None
        best = max(best, numeric_rank(values))
        if best == min(m.rows, m.cols):
            break
    return best


def exact_generic_rank(m):
    full = min(m.rows, m.cols)
    if exact_rank_at_samples(m, 1) == full:
        return full
    return len(pivot_columns(m))


def exact_lagrangian(L, samples):
    n = L.chart.dim
    for a in range(n):
        for b in range(a, n):
            val = pairing(L.sections[a], L.sections[b])
            if not val.is_zero():
                return Verdict.fail((f"pairing[{a},{b}]", val))
    m = L.matrix()
    sampled = exact_rank_at_samples(m, samples)
    if sampled != n and len(pivot_columns(m)) != n:
        return Verdict.fail(("rank", f"generic rank below {n}"))
    if sampled is None:
        return Verdict.inconclusive(("rank", "no valid sample point"))
    if sampled != n:
        return Verdict.inconclusive(("rank", "rank drop at sample points"))
    return Verdict.ok()


def exact_pairings_vanish(L1, L2, v1, v2):
    n = L1.chart.dim
    if v1 is not None and any(
        sum(v1[i][a] * v2[n + i][b] + v1[n + i][a] * v2[i][b] for i in range(n))
        for a in range(n)
        for b in range(n)
    ):
        return False
    return all(pairing(s, t).is_zero() for s in L1.sections for t in L2.sections)


def exact_equal_span(L1, L2):
    n = L1.chart.dim
    m1, m2 = L1.matrix(), L2.matrix()
    both = FracMatrix(m1.chart, [r1 + r2 for r1, r2 in zip(m1.entries, m2.entries)])
    v = eval_matrix_at_sample(both)
    v1 = v2 = None
    if v is not None:
        v1, v2 = [row[:n] for row in v], [row[n:] for row in v]

    def rank(m, values):
        if values is not None and numeric_rank(values) == n:
            return n
        return len(pivot_columns(m))

    r = rank(m1, v1)
    if rank(m2, v2) != r:
        return False
    if r == n and exact_pairings_vanish(L2, L2, v2, v2):
        return exact_pairings_vanish(L1, L2, v1, v2)
    if v is not None and numeric_rank(v) > r:
        return False
    return len(pivot_columns(both)) == r


# -- generated matrices and frames -------------------------------------------------------

# coefficient denominators include 5, which has no image mod 5
COEFFS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 5)))


@st.composite
def polys(draw, chart, max_terms=3, max_exp=2):
    coeffs = COEFFS
    if chart.mode == "complex":
        coeffs = st.one_of(COEFFS, st.builds(GaussianRational, COEFFS, COEFFS))
    expos = draw(st.lists(st.tuples(*[st.integers(0, max_exp)] * chart.dim), max_size=max_terms, unique=True))
    terms = {e: chart.coeff(draw(coeffs)) for e in expos}
    return Polynomial(chart.dim, {e: c for e, c in terms.items() if c})


def pole(chart, kind):
    """1/(x - 1), a pole at the first retry of sample point 0 only; or
    1/(y - x - 1), a pole at every retry of every sample point."""
    x, y = chart.var("x"), chart.var("y")
    return chart.one() / (x - chart.one() if kind == "first" else y - x - chart.one())


@st.composite
def entries(draw, chart):
    num = draw(polys(chart))
    den = draw(polys(chart, 2, 1)) if draw(st.booleans()) else Polynomial.zero(chart.dim)
    return ScalarExpr(chart, num, den if den.terms else poly_one(chart.dim))


@st.composite
def matrices(draw):
    """Random matrices, some rank deficient by construction, with poles at
    the first retry or at every retry of some entries."""
    chart = draw(st.sampled_from(CHARTS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    grid = [[draw(entries(chart)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # the last row a combination of the others
        f = draw(entries(chart))
        grid[-1] = [a + f * b for a, b in zip(grid[0], grid[1 % (rows - 1)])]
    for _ in range(draw(st.integers(0, 2))):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        grid[r][c] = grid[r][c] * pole(chart, draw(st.sampled_from(("first", "every"))))
    if draw(st.booleans()):
        p = pole(chart, draw(st.sampled_from(("first", "every"))))
        grid = [[e * p for e in row] for row in grid]
    return FracMatrix(chart, grid)


def factor(chart, rng):
    """A nonzero scalar, with a pole at the first or at every retry now and
    then."""
    kind = rng.choice(("const", "const", "poly", "first", "every"))
    if kind == "const":
        return chart.const(Fraction(rng.choice((1, 2, -3, 5)), rng.choice((1, 5))))
    if kind == "poly":
        return chart.var("x") + chart.const(rng.randint(-3, 3))
    return pole(chart, kind)


def small_scalar(chart, rng):
    x, y = chart.var("x"), chart.var("y")
    c = rng.choice((0, 1, -2, Fraction(1, 5), Fraction(3, 2)))
    s = rng.choice((chart.zero(), x, y, x * y, chart.one())) * chart.const(c) + chart.const(rng.randint(-2, 2))
    return s * chart.imag_unit() if chart.mode == "complex" and rng.random() < 0.3 else s


def lagrangian(chart, rng):
    f = small_scalar(chart, rng)
    if rng.random() < 0.5:
        return make_graph_poisson(Bivector(chart, {(0, 1): f}))
    return make_graph_presymplectic(PForm(chart, 2, {(0, 1): f}))


def random_frame(chart, rng):
    def section():
        vec = VectorField(chart, [small_scalar(chart, rng) for _ in range(chart.dim)])
        return GSection(vec, PForm(chart, 1, {(i,): small_scalar(chart, rng) for i in range(chart.dim)}))

    return GFrame([section() for _ in range(chart.dim)])


def frame_pair(seed, mode):
    """Two frames on a 2-chart: lagrangian or random, reframed by factors
    with poles, or with a repeated section."""
    rng = random.Random(seed)
    chart = CHARTS[0] if mode == "real" else CHARTS[1]
    L = lagrangian(chart, rng) if rng.random() < 0.6 else random_frame(chart, rng)
    kind = rng.choice(("reframed", "other", "repeated", "random"))
    if kind == "reframed":
        other = GFrame([s.scale(factor(chart, rng)) for s in L.sections])
    elif kind == "other":
        other = lagrangian(chart, rng)
    elif kind == "repeated":
        other = GFrame([L.sections[0], L.sections[0].scale(factor(chart, rng))])
    else:
        other = random_frame(chart, rng)
    if rng.random() < 0.3:
        L = GFrame([s.scale(factor(chart, rng)) for s in L.sections])
    return (L, other) if rng.random() < 0.5 else (other, L)


frame_pairs = st.builds(frame_pair, st.integers(0, 10**6), st.sampled_from(("real", "complex")))


# -- the properties ----------------------------------------------------------------------


def image_outcome(m, s):
    """How the image of m decides sample point s: proved, or why it falls
    back."""
    image = modp.matrix_image(m)
    if image is None:
        return "no coefficient image"
    values = image.at(sample_point(m.chart, s))
    if None in (v for row in values for v in row):
        return "vanishing denominator image"
    return "proved" if modp.rank(values) == min(m.rows, m.cols) else "deficient image"


def record_exact_ranks(monkeypatch, seen):
    """Record each point that the package evaluates exactly to rank it: the
    field of its values, Q or Q(i) (only a complex chart has the latter), and
    whether the oracle finds them of full rank or short of it."""
    exact_values = linalg._exact_values

    def recorded(m, point):
        values = exact_values(m, point)
        field = "Q(i)" if any(isinstance(v, GaussianRational) for row in values for v in row) else "Q"
        full = numeric_rank(values) == min(m.rows, m.cols)
        seen.add(("exact", field, "full" if full else "short"))
        return values

    monkeypatch.setattr(linalg, "_exact_values", recorded)


# every way a sample point is decided, at each prime, and the exact fallback
# on rational and on Gaussian values, of full rank and short of it
OUTCOMES = {"proved", "deficient image", "vanishing denominator image", "no pole-free retry"}
EXACT = {("exact", field, rank) for field in ("Q", "Q(i)") for rank in ("full", "short")}
# and both routes of a generic rank: a full image, or the elimination
ROUTES = {"generic rank by image", "generic rank by elimination"}
EXPECTED = {"default": OUTCOMES | EXACT | ROUTES, "five": OUTCOMES | EXACT | ROUTES | {"no coefficient image"}}


def exact_examples():
    """Exact fallbacks that the generator need not reach at the package's
    prime: [[P x]] and [[i P x]], of rank 1 with an image of rank 0, whose
    generic rank the elimination decides; [[i x, i y], [x, y]], of rank 1 on
    Gaussian values; and [[1/(y - x - 1)]], a pole at every retry."""
    ch, cc = CHARTS[0], CHARTS[1]
    i, x, y = cc.imag_unit(), cc.var("x"), cc.var("y")
    return [
        FracMatrix(ch, [[ch.const(modp.P) * ch.var("x")]]),
        FracMatrix(cc, [[i * cc.const(modp.P) * x]]),
        FracMatrix(cc, [[i * x, i * y], [x, y]]),
        FracMatrix(ch, [[pole(ch, "every")]]),
    ]


@pytest.mark.parametrize("name", sorted(PRIMES))
def test_sampled_ranks_match_the_exact_path(name, monkeypatch):
    seen = set()
    record_exact_ranks(monkeypatch, seen)
    eliminations = []
    eliminate = linalg.pivot_columns
    monkeypatch.setattr(linalg, "pivot_columns", lambda m: eliminations.append(m) or eliminate(m))

    @SETTINGS
    @given(matrices())
    def check(m):
        with prime(name):
            for samples in (1, 3):
                assert rank_at_samples(m, samples) == exact_rank_at_samples(m, samples)
            eliminations.clear()
            assert generic_rank(m) == exact_generic_rank(m)
            seen.add("generic rank by elimination" if m in eliminations else "generic rank by image")
            seen.update(image_outcome(m, s) for s in range(3))
            if eval_matrix_at_sample(m) is None:
                seen.add("no pole-free retry")

    for m in exact_examples():
        check = example(m)(check)
    check()
    assert seen == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(PRIMES))
def test_frame_decisions_match_the_exact_path(name):
    seen = set()

    @SETTINGS
    @given(frame_pairs, st.integers(1, 3))
    def check(pair, samples):
        L1, L2 = pair
        with prime(name):
            equal = frames_equal_span(L1, L2)
            assert equal is exact_equal_span(L1, L2)
            assert frames_equal_span(L1, L1) is True
            for L in pair:
                verdict = check_lagrangian(L, samples)
                assert verdict == exact_lagrangian(L, samples)
                seen.add(verdict.status)
            both = FracMatrix(L1.chart, [a + b for a, b in zip(L1.matrix().entries, L2.matrix().entries)])
            seen.update({("equal", equal), ("image", image_at_sample(both) is not None)})

    check()
    assert seen == {("equal", True), ("equal", False), ("image", True), ("image", False), PASS, FAIL, INCONCLUSIVE}


# -- what an image cannot prove goes to the exact path ------------------------------------


def test_a_coefficient_without_image_falls_back(evaluations):
    ch = CHARTS[0]
    # the second row is 2, not the unit row 1, which would prove the rank
    # without reading a point
    m = FracMatrix(ch, [[ch.var("x") * ch.const(Fraction(1, modp.P))], [ch.const(2)]])
    assert modp.matrix_image(m) is None
    assert rank_at_samples(m, 2) == 1
    # the first sample point has full rank, so the second is not read
    assert evaluations == {"image": 0, "matrix": 1, "scalar": 2, "denominator": 0}
    assert image_at_sample(m) is None


def test_a_rank_deficient_first_sample_reads_the_second(evaluations):
    ch = CHARTS[0]
    # x - 1 vanishes at the first sample point (1, 2) only
    m = FracMatrix(ch, [[ch.var("x") - ch.one(), ch.zero()]])
    assert rank_at_samples(m, 3) == 1
    assert evaluations == {"image": 2, "matrix": 1, "scalar": 2, "denominator": 0}


def test_a_full_rank_is_not_lost_to_a_later_sample_without_valid_retry():
    ch = CHARTS[0]
    x = ch.var("x")
    # every retry of sample point 1 has x = 2 + 7t, t = 0..20, a root of den
    den = ch.one()
    for t in range(linalg.MAX_POINT_RETRIES + 1):
        den = den * (x - ch.const(2 + 7 * t))
    m = FracMatrix(ch, [[ch.one() / den]])
    assert eval_matrix_at_sample(m, 1) is None
    # sample point 0 proves the full rank, so point 1 is never read
    assert rank_at_samples(m, 2) == 1 == exact_rank_at_samples(m, 2)
    # a point short of full rank is followed, and the pole still shows
    short = FracMatrix(ch, [[x - ch.one(), ch.zero()], [ch.zero(), ch.one() / den]])
    assert rank_at_samples(short, 2) is None


def test_a_rank_deficient_image_falls_back(evaluations):
    ch = CHARTS[0]
    # P is 0 mod P but not 0, so only the exact path sees the full rank; the
    # generic rank is decided by the elimination, with no point evaluated
    m = FracMatrix(ch, [[ch.const(modp.P) * ch.var("x")]])
    assert rank_at_samples(m, 1) == 1 and generic_rank(m) == 1
    assert evaluations == {"image": 2, "matrix": 1, "scalar": 1, "denominator": 0}


def test_a_deficient_generic_rank_is_the_elimination_alone(evaluations, monkeypatch):
    ch = CHARTS[2]
    x, y, z = (ch.var(v) for v in ("x", "y", "z"))
    # the graph of the degenerate 2-form x dx^dy + z dy^dz on R3, its third
    # section replaced by y times the first plus the second: a 6 x 3 frame
    # matrix of rank 2
    s1, s2, _ = make_graph_presymplectic(PForm(ch, 2, {(0, 1): x, (1, 2): z})).sections
    m = GFrame([s1, s2, s1.scale(y) + s2]).matrix()
    eliminations = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: eliminations.append(a) or eliminate(*a))
    assert (m.rows, m.cols) == (6, 3) and generic_rank(m) == 2
    assert evaluations == {"image": 1, "matrix": 0, "scalar": 0, "denominator": 0}
    assert len(eliminations) == 1


def test_a_vanishing_denominator_image_is_not_a_pole(evaluations):
    ch = CHARTS[0]
    x = ch.var("x")
    # at the first sample point x + P - 1 is P: its image vanishes, the value does not
    m = FracMatrix(ch, [[ch.one() / (x + ch.const(modp.P - 1))]])
    assert rank_at_samples(m, 1) == 1
    assert evaluations == {"image": 1, "matrix": 1, "scalar": 1, "denominator": 1}
    # span equality takes the image at the next retry instead
    assert image_at_sample(m) == [[pow(8 + modp.P - 1, -1, modp.P)]]


def test_goldens_are_byte_identical_with_the_prime_forced_to_5():
    with prime("five"):
        for name, (argv, expected_code) in sorted(CASES.items()):
            text, code = run(argv)
            assert code == expected_code, name
            assert text == (GOLDEN / f"{name}.out").read_text(), name
