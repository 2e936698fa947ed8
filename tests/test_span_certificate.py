"""Span equality, span bases, generic ranks and the rank checks of frames
against the algorithms they replaced, kept here as oracles: span equality by
solving every section of each frame into the other, span bases by one solve
per candidate section, the generic rank by elimination on every matrix,
the lagrangian and hierarchy rank checks in their old order (Bareiss first,
then the sample points), and the lagrangian verdict on split frames when
make_split flagged them from their fields' sampled rank."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dngeo.courant import GSection, pairing
from dngeo.dirac import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    GFrame,
    Verdict,
    _span_basis,
    check_lagrangian,
    frames_equal_span,
    hierarchy,
    make_graph_poisson,
    make_graph_presymplectic,
    make_split,
    transform_frame,
)
from dngeo.errors import HierarchyKernelError, PointEvaluationError
from dngeo.fixtures import chart2, chart3, random_scalar
from dngeo.symbolic import FracMatrix, generic_rank, pivot_columns, rank_at_samples, solve_linear
from dngeo.tensor import Bivector, OneOneTensor, PForm, VectorField

SETTINGS = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# how the second frame of a pair is made from the first
RELATIONS = (
    "reframed",
    "other_lagrangian",
    "one_lagrangian",
    "non_isotropic",
    "non_isotropic_reframed",
    "repeated_section",
    "non_isotropic_repeated_section",
    "repeated_section_reframed",
    "differs_off_the_sample_point",
)


# -- the oracles ---------------------------------------------------------------


def span_by_solves(L1, L2):
    m1, m2 = L1.matrix(), L2.matrix()
    return all(solve_linear(m2, s.components()) is not None for s in L1.sections) and all(
        solve_linear(m1, s.components()) is not None for s in L2.sections
    )


def rank_by_elimination(m):
    """The generic rank as Bareiss alone finds it, on every matrix."""
    return len(pivot_columns(m))


def sampled_rank(m, samples):
    """rank_at_samples, raising where it returns None, as the sampler of the
    old rank checks did."""
    rank = rank_at_samples(m, samples)
    if rank is None:
        raise PointEvaluationError("no valid sample point")
    return rank


def span_basis_by_solves(sections, chart, expected):
    """The old greedy loop: keep each section that does not solve into the
    sections kept so far.  It tested `expected` only after a second section,
    so it is an oracle for expected >= 2 only."""
    chosen = []
    for s in sections:
        if s.is_zero():
            continue
        if not chosen:
            chosen.append(s)
            continue
        rows = [[t.components()[i] for t in chosen] for i in range(2 * chart.dim)]
        if solve_linear(FracMatrix(chart, rows), s.components()) is None:
            chosen.append(s)
        if len(chosen) == expected:
            break
    return chosen


def lagrangian_in_old_order(L, samples=3):
    n = L.chart.dim
    for a in range(n):
        for b in range(a, n):
            val = pairing(L.sections[a], L.sections[b])
            if not val.is_zero():
                return Verdict.fail((f"pairing[{a},{b}]", val))
    m = L.matrix()
    if rank_by_elimination(m) != n:
        return Verdict.fail(("rank", f"generic rank below {n}"))
    if sampled_rank(m, samples) != n:
        return Verdict.inconclusive(("rank", "rank drop at sample points"))
    return Verdict.ok()


def split_flag(fields):
    """The flag a split frame carried when make_split sampled its fields at
    the default 3 points, or None."""
    chart, k = fields[0].chart, len(fields)
    sampled = rank_at_samples(FracMatrix(chart, [[f.comps[i] for i in range(chart.dim)] for f in fields]), 3)
    if sampled == k:
        return None
    return "split fields have no valid sample point" if sampled is None else "split rank defect at sample points"


def split_lagrangian_with_flags(fields, samples):
    """The lagrangian verdict on make_split(fields) when split frames carried
    that flag and the check reported it after its own verdicts, a pole at
    every sample point among them."""
    got = outcome(lagrangian_in_old_order, make_split(fields), samples)
    verdict = got[1] if got[0] == "value" else Verdict.inconclusive(("rank", "no valid sample point"))
    flag = split_flag(fields)
    if verdict.status == PASS and flag is not None:
        return Verdict.inconclusive(("flag[0]", flag))
    return verdict


def transformed(L, r, n, side):
    rn = r.power(n)
    if side == "n0":
        return transform_frame(L, rn.apply, lambda a: a)
    return transform_frame(L, lambda v: v, rn.dual)


def hierarchy_in_old_order(L, r, n, side, samples=3):
    out = transformed(L, r, n, side)
    m = out.matrix()
    if rank_by_elimination(m) != L.chart.dim or sampled_rank(m, samples) != L.chart.dim:
        raise HierarchyKernelError("(n,0)" if side == "n0" else "(0,n)")
    return out


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except (HierarchyKernelError, PointEvaluationError) as e:
        return "raises", type(e), str(e)


def frame_outcome(fn, *args):
    got = outcome(fn, *args)
    if got[0] == "raises":
        return got
    return "value", [s.components() for s in got[1].sections]


# -- generated frames -------------------------------------------------------------


def scalar(chart, rng, max_deg=2):
    """A random polynomial, with a Gaussian part in complex mode."""
    f = random_scalar(chart, rng, max_deg, 2)
    if chart.mode == "complex" and rng.random() < 0.5:
        f = f + chart.imag_unit() * random_scalar(chart, rng, max_deg, 2)
    return f


def pole_at_every_sample_point(chart):
    """1/(y - x - 1): every sample point (1+s+7t, 2+s+7t, ...) has y = x + 1."""
    x, y = (chart.var(v) for v in chart.variables[:2])
    return chart.one() / (y - x - chart.one())


def nonzero_factor(chart, rng, poles=True):
    """A nonzero rational function with rational coefficients (Gaussian ones
    make the gcds of the symbolic core, and so both sides here, very slow).
    With `poles`, it is sometimes one with a pole at every sample point, so
    that sampling fails and the exact rank decides."""
    if poles and rng.random() < 0.15:
        return pole_at_every_sample_point(chart)
    num = random_scalar(chart, rng, 1, 2)
    while num.is_zero():
        num = random_scalar(chart, rng, 1, 2)
    den = random_scalar(chart, rng, 1, 2)
    # den^2 + 7 has no root in Q(i), so it is never the zero function
    return num / (den * den + chart.const(7))


def lagrangian_frame(chart, rng):
    kind = rng.choice(("poisson", "presymplectic", "split"))
    pairs = [(i, j) for i in range(chart.dim) for j in range(i + 1, chart.dim)]
    if kind == "poisson":
        return make_graph_poisson(Bivector(chart, {p: scalar(chart, rng) for p in pairs}))
    if kind == "presymplectic":
        return make_graph_presymplectic(PForm(chart, 2, {p: scalar(chart, rng) for p in pairs}))
    k = rng.randint(1, chart.dim - 1)
    fields = [VectorField.coordinate(chart, i).scale(nonzero_factor(chart, rng, poles=False)) for i in range(k)]
    return make_split(fields)


def random_section(chart, rng):
    """A section whose components are single monomials of degree at most 1,
    times i half the time in complex mode."""

    def entry():
        f = random_scalar(chart, rng, 1, 1)
        return f * chart.imag_unit() if chart.mode == "complex" and rng.random() < 0.5 else f

    vec = VectorField(chart, [entry() for _ in range(chart.dim)])
    return GSection(vec, PForm(chart, 1, {(i,): entry() for i in range(chart.dim)}))


def random_frame(chart, rng):
    """A frame of random sections: not isotropic, as a rule."""
    return GFrame([random_section(chart, rng) for _ in range(chart.dim)])


def reframe(L, rng):
    """The same span on other generators: every section scaled by a nonzero
    rational function, or one section added to another with a factor."""
    secs = list(L.sections)
    if rng.random() < 0.5:
        secs = [s.scale(nonzero_factor(L.chart, rng)) for s in secs]
    else:
        a, b = rng.sample(range(len(secs)), 2)
        secs[a] = secs[a] + secs[b].scale(random_scalar(L.chart, rng, 1, 2))
    return GFrame(secs)


def with_section(L, index, s):
    secs = list(L.sections)
    secs[index] = s
    return GFrame(secs)


def frame_pair(seed, dim, mode, relation):
    rng = random.Random(seed)
    chart = (chart2 if dim == 2 else chart3)(mode)
    L = lagrangian_frame(chart, rng)
    if relation == "reframed":
        other = reframe(L, rng)
    elif relation == "other_lagrangian":
        other = lagrangian_frame(chart, rng)
    elif relation == "one_lagrangian":
        other = with_section(L, dim - 1, random_section(chart, rng))
    elif relation == "non_isotropic":
        L = random_frame(chart, rng)
        other = random_frame(chart, rng)
    elif relation == "non_isotropic_reframed":
        L = random_frame(chart, rng)
        other = reframe(L, rng)
    elif relation == "repeated_section":
        other = with_section(L, 1, L.sections[0])
    elif relation == "non_isotropic_repeated_section":
        L = random_frame(chart, rng)
        other = with_section(L, 1, L.sections[0])
    elif relation == "differs_off_the_sample_point":
        # unequal spans whose matrices agree at the first sample point, where
        # x = 1: only the exact rank tells them apart
        L = random_frame(chart, rng)
        x = chart.var(chart.variables[0])
        other = with_section(L, 0, L.sections[0] + random_section(chart, rng).scale(x - chart.one()))
    else:  # repeated_section_reframed
        L = with_section(L, 1, L.sections[0].scale(nonzero_factor(chart, rng)))
        other = reframe(L, rng)
    return (L, other) if rng.random() < 0.5 else (other, L)


pairs = st.builds(
    frame_pair,
    st.integers(0, 10**6),
    st.sampled_from((2, 3)),
    st.sampled_from(("real", "complex")),
    st.sampled_from(RELATIONS),
)


def vanishing_factor(chart, rng):
    """A polynomial that vanishes at none, some or all of the first three
    sample points (x = 1, 2, 3), or at every retry of every sample point; or
    a pole at every retry of every sample point."""
    x, y = (chart.var(v) for v in chart.variables[:2])
    kind = rng.choice(("none", "some", "all", "every_retry", "pole"))
    if kind == "every_retry":
        return y - x - chart.one()
    if kind == "pole":
        return pole_at_every_sample_point(chart)
    roots = {"none": (), "some": rng.sample((1, 2, 3), rng.randint(1, 2)), "all": (1, 2, 3)}[kind]
    f = chart.one()
    for c in roots:
        f = f * (x - chart.const(c))
    return f


def split_fields(seed, dim, mode):
    """Independent, involutive fields that vanish at some sample points or
    have poles: one random field, or scaled coordinate fields, each times a
    vanishing factor."""
    rng = random.Random(seed)
    chart = (chart2 if dim == 2 else chart3)(mode)
    k = rng.randint(1, dim - 1)
    if k == 1:
        field = VectorField(chart, [random_scalar(chart, rng, 1, 2) for _ in range(dim)])
        while field.is_zero():
            field = VectorField(chart, [random_scalar(chart, rng, 1, 2) for _ in range(dim)])
        return [field.scale(vanishing_factor(chart, rng))]
    return [
        VectorField.coordinate(chart, i).scale(vanishing_factor(chart, rng) * nonzero_factor(chart, rng, poles=False))
        for i in range(k)
    ]


def hierarchy_tensor(chart, rng):
    """A random (1,1)-tensor; or one that kills every direction but the
    first, so that some hierarchy members lose rank; or the identity with
    first entry 1/(y - x - 1), so that no sample point is valid."""
    n = chart.dim
    kind = rng.choice(("random", "singular", "pole"))
    if kind == "random":
        return OneOneTensor(chart, [[scalar(chart, rng, 1) for _ in range(n)] for _ in range(n)])
    if kind == "singular":
        diagonal = [nonzero_factor(chart, rng, poles=False)] + [chart.zero()] * (n - 1)
    else:
        diagonal = [pole_at_every_sample_point(chart)] + [chart.one()] * (n - 1)
    return OneOneTensor(chart, [[diagonal[i] if i == j else chart.zero() for j in range(n)] for i in range(n)])


def rank_case(seed, dim, mode, kind, wide):
    """(matrix, generic rank known by construction): the 2n x n matrix of a
    lagrangian frame, with one column replaced by a combination of the others
    for a deficient kind, every entry times a pole at every sample point for
    a pole kind, and transposed when wide."""
    rng = random.Random(seed)
    chart = (chart2 if dim == 2 else chart3)(mode)
    cols = [list(c) for c in zip(*lagrangian_frame(chart, rng).matrix().entries)]
    rank = dim
    if kind.startswith("deficient"):
        k = rng.randrange(dim)
        combo = [chart.zero()] * (2 * dim)
        for j in range(dim):
            if j != k and rng.random() < 0.7:
                f = nonzero_factor(chart, rng, poles=False)
                combo = [e + f * c for e, c in zip(combo, cols[j])]
        cols[k] = combo
        rank = dim - 1
    if kind.endswith("pole"):
        pole = pole_at_every_sample_point(chart)
        cols = [[e * pole for e in c] for c in cols]
    rows = cols if wide else [list(r) for r in zip(*cols)]
    return FracMatrix(chart, rows), rank


def candidate_sections(seed, dim, mode, count):
    """Sections to pick a span basis from: random ones, zero ones, repeats,
    and combinations of earlier ones with rational-function factors."""
    rng = random.Random(seed)
    chart = (chart2 if dim == 2 else chart3)(mode)
    out = []
    for _ in range(count):
        kind = rng.choice(("random", "random", "zero", "repeat", "combination"))
        if kind == "zero" or (kind != "random" and not out):
            out.append(GSection.zero(chart))
        elif kind == "random":
            out.append(random_section(chart, rng))
        elif kind == "repeat":
            out.append(rng.choice(out))
        else:
            s = GSection.zero(chart)
            for t in rng.sample(out, rng.randint(1, min(2, len(out)))):
                s = s + t.scale(nonzero_factor(chart, rng, poles=False))
            out.append(s)
    return chart, out


# -- the properties ------------------------------------------------------------------


def test_generic_rank_matches_elimination():
    seen = set()

    @SETTINGS
    @given(
        st.integers(0, 10**6),
        st.sampled_from((2, 3)),
        st.sampled_from(("real", "complex")),
        st.sampled_from(("full", "deficient", "full_pole", "deficient_pole")),
        st.booleans(),
    )
    def check(seed, dim, mode, kind, wide):
        m, rank = rank_case(seed, dim, mode, kind, wide)
        assert generic_rank(m) == rank_by_elimination(m) == rank
        try:
            seen.add(("certified", sampled_rank(m, 1) == min(m.rows, m.cols)))
        except PointEvaluationError:
            seen.add(("certified", None))

    check()
    assert seen == {("certified", True), ("certified", False), ("certified", None)}


def test_span_basis_matches_the_solve_oracle():
    sizes = set()

    @SETTINGS
    @given(
        st.integers(0, 10**6),
        st.sampled_from((2, 3)),
        st.sampled_from(("real", "complex")),
        st.integers(1, 7),
        st.integers(2, 6),
    )
    def check(seed, dim, mode, count, expected):
        chart, sections = candidate_sections(seed, dim, mode, count)
        expected = min(expected, 2 * dim)
        got = _span_basis(sections, chart, expected)
        want = span_basis_by_solves(sections, chart, expected)
        assert [id(s) for s in got] == [id(s) for s in want]
        sizes.add(len(got))

    check()
    assert {0, 1, 2, 3} <= sizes


def test_span_basis_stops_at_one_section():
    chart = chart2("real")
    x, y = (GSection.from_vector(VectorField.coordinate(chart, i)) for i in range(2))
    zero = GSection.zero(chart)
    assert _span_basis([zero, x, x.scale(chart.var("y")), y], chart, 1) == [x]
    assert _span_basis([zero, x, x.scale(chart.var("y")), y], chart, 4) == [x, y]




def test_span_equality_matches_the_solve_oracle():
    seen = set()

    @SETTINGS
    @given(pairs)
    def check(pair):
        L1, L2 = pair
        got = frames_equal_span(L1, L2)
        assert got == span_by_solves(L1, L2)
        seen.add(got)

    check()
    assert seen == {True, False}


def test_lagrangian_verdicts_match_the_old_order():
    seen = set()

    @SETTINGS
    @given(pairs)
    def check(pair):
        pole = pole_at_every_sample_point(pair[0].chart)
        for L in (*pair, GFrame([s.scale(pole) for s in pair[0].sections])):
            got = check_lagrangian(L)
            want = outcome(lagrangian_in_old_order, L)
            if want[0] == "raises":
                # the one deliberate change: no valid sample point and full
                # generic rank is inconclusive, not an error
                assert want[1] is PointEvaluationError
                want = ("value", Verdict.inconclusive(("rank", "no valid sample point")))
            assert got == want[1]
            seen.add(got.status)

    check()
    assert seen == {PASS, FAIL, INCONCLUSIVE}


def test_hierarchy_outcomes_match_the_old_order():
    seen = set()

    @SETTINGS
    @given(
        st.integers(0, 10**6),
        st.sampled_from((2, 3)),
        st.sampled_from(("real", "complex")),
        st.sampled_from(("n0", "0n")),
        st.integers(1, 2),
    )
    def check(seed, dim, mode, side, n):
        rng = random.Random(seed)
        chart = (chart2 if dim == 2 else chart3)(mode)
        L = lagrangian_frame(chart, rng)
        r = hierarchy_tensor(chart, rng)
        got = frame_outcome(hierarchy, L, r, n, side)
        want = frame_outcome(hierarchy_in_old_order, L, r, n, side)
        if want[:2] == ("raises", PointEvaluationError):
            # the one deliberate change: a member of full generic rank with a
            # pole at every sample point is returned, not raised
            want = "value", [s.components() for s in transformed(L, r, n, side).sections]
            seen.add("no valid sample point")
        assert got == want
        seen.add(got[0] if got[0] == "value" else got[1])

    check()
    assert seen == {"value", "no valid sample point", HierarchyKernelError}


def test_split_verdicts_match_the_flagged_frames():
    # the sampled rank of the frame already decides every case the flag of
    # its fields covered, at each count up to the default
    seen = set()

    @SETTINGS
    @given(st.integers(0, 10**6), st.sampled_from((2, 3)), st.sampled_from(("real", "complex")))
    def check(seed, dim, mode):
        fields = split_fields(seed, dim, mode)
        L = make_split(fields)
        flagged = split_flag(fields) is not None
        for samples in (1, 2, 3):
            got = check_lagrangian(L, samples)
            assert got == split_lagrangian_with_flags(fields, samples)
            seen.add((got.witnesses, flagged))

    check()
    assert seen == {
        ((), False),
        ((("rank", "rank drop at sample points"),), False),
        ((("rank", "rank drop at sample points"),), True),
        ((("rank", "no valid sample point"),), True),
    }
