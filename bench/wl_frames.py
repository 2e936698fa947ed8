"""`frames` workload: one job is one call into `dngeo.symbolic.linalg`.

Inputs are the 2n x n matrices of frames on 3- and 4-charts (graphs of
bivectors and 2-forms, and hierarchy frames (r^k pi# dx, dx)), some with
columns scaled by rational functions, over Q and Q(i), plus the square
`generic_rank` ladder of the ROADMAP.  Every frame has an identity block, so
its generic rank is n by construction; the expected answers below follow
from that, not from the code under test.
"""

from __future__ import annotations

import random

import polys as P
from dngeo.dirac import GFrame, make_graph_poisson, make_graph_presymplectic, transform_frame
from dngeo.symbolic import (
    Chart,
    FracMatrix,
    generic_rank,
    kernel_basis,
    parse_scalar,
    rank_at_samples,
    solve_linear,
    to_str,
)
from dngeo.tensor import Bivector, OneOneTensor, PForm

# (chart dimension, complex mode, kind, column scaling) for each pool frame;
# sizes are chosen so that every job finishes well inside the per-job limit.
FRAME_SPECS = [
    (3, False, "poisson", False),
    (3, True, "poisson", True),
    (3, False, "presymplectic", True),
    (3, True, "presymplectic", False),
    (3, False, "hierarchy", False),
    (3, True, "hierarchy", True),
    (4, False, "poisson", False),
    (4, True, "poisson", False),
    (4, False, "presymplectic", True),
    (4, True, "presymplectic", False),
    (4, False, "hierarchy", False),
]
LADDER = (2, 3, 4)


def _scalar(chart, num, den=None):
    names = chart.variables
    text = f"({P.to_text(num, names)})"
    if den is not None:
        text += f"/({P.to_text(den, names)})"
    return parse_scalar(text, chart)


def _value(coeff):
    """A dngeo coefficient as a Fraction or polys.Gauss."""
    return P.Gauss(coeff.re, coeff.im) if hasattr(coeff, "im") else coeff


def evaluate(s, point):
    """Value of a ScalarExpr at a point, by the benchmark's own evaluator."""
    num = {e: _value(c) for e, c in s.num.terms.items()}
    den = {e: _value(c) for e, c in s.den.terms.items()}
    return P.evaluate(num, point) / P.evaluate(den, point)


def _point(rng, chart, matrices):
    """A rational point where no entry of the matrices has a pole."""
    while True:
        point = [P.Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in chart.variables]
        try:
            for m in matrices:
                for row in m:
                    for e in row:
                        evaluate(e, point)
            return point
        except ZeroDivisionError:
            continue


def _numeric(m, point):
    return [[evaluate(e, point) for e in row] for row in m]


def _frame(rng, n, gaussian, kind, scaled):
    chart = Chart("M", tuple(f"x{k + 1}" for k in range(n)), "complex" if gaussian else "real")
    every = list(range(n))

    def poly(max_deg=2, nterms=2):
        return _scalar(chart, P.random_poly(rng, n, every, max_deg, nterms, gaussian))

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "presymplectic":
        L = make_graph_presymplectic(PForm(chart, 2, {ij: poly() for ij in pairs}))
    else:
        L = make_graph_poisson(Bivector(chart, {ij: poly() for ij in pairs}))
    if kind == "hierarchy":
        # constant r on 4-charts and over Q(i): with linear entries these
        # frames' solves run past the per-job limit
        deg = 0 if n == 4 or gaussian else 1
        r = OneOneTensor(chart, [[poly(deg, 1) for _ in range(n)] for _ in range(n)])
        L = transform_frame(L, r.apply, lambda a: a)
    if scaled:
        secs = []
        for s in L.sections:
            den = P.add(P.var(n, rng.randrange(n)), P.const(n, P.Fraction(rng.randint(1, 5))))
            secs.append(s.scale(_scalar(chart, P.const(n, P.Fraction(1)), den)))
        L = GFrame(secs)
    return chart, L


def _frame_jobs(index, spec):
    n, gaussian, kind, scaled = spec
    rng = random.Random(f"frames:{index}")
    chart, L = _frame(rng, n, gaussian, kind, scaled)
    m = L.matrix()
    rows = [list(r) for r in m.entries]
    cols = list(zip(*rows))
    tag = f"frames/{index}.{kind}.n{n}.{'complex' if gaussian else 'real'}{'.scaled' if scaled else ''}"
    jobs = []

    # members: sum_a c_a col_a with known c; the solution is unique (rank n)
    c = [_scalar(chart, P.random_poly(rng, n, list(range(n)), 1, 2, gaussian)) for _ in range(n)]
    member = [sum((c[a] * rows[i][a] for a in range(n)), chart.zero()) for i in range(2 * n)]
    point = _point(rng, chart, [rows])
    jobs.append((f"{tag}/solve.member", lambda: solve_linear(m, member), _member_check(m, member, c, point)))

    # non-members: a rank rise at a rational point certifies v is outside the span
    while True:
        v = [_scalar(chart, P.random_poly(rng, n, list(range(n)), 1, 2, gaussian)) for _ in range(2 * n)]
        aug = [row + [v[i]] for i, row in enumerate(rows)]
        if P.numeric_rank(_numeric(aug, _point(rng, chart, [aug]))) == n + 1:
            break
    jobs.append((f"{tag}/solve.nonmember", lambda: solve_linear(m, v), _none_check))

    jobs.append((f"{tag}/generic_rank", lambda: generic_rank(m), _equals(n)))
    sampled = _sample_rank(chart, rows, 3)
    jobs.append((f"{tag}/rank_at_samples", lambda: rank_at_samples(m, 3), _equals(sampled)))

    # the transpose (n x 2n) has an n-dimensional kernel; on 4-charts and
    # for complex hierarchy frames its back-substitution runs past the limit
    if n == 3 and not (gaussian and kind == "hierarchy"):
        mt = FracMatrix(chart, cols)
        check = _kernel_check(mt, n, _point(rng, chart, [cols]))
        jobs.append((f"{tag}/kernel.transpose", lambda: kernel_basis(mt), check))

    # replacing the last column by a combination of the others drops the rank to n - 1
    dep = [sum((c[a] * rows[i][a] for a in range(n - 1)), chart.zero()) for i in range(2 * n)]
    md = FracMatrix(chart, [row[:-1] + [dep[i]] for i, row in enumerate(rows)])
    jobs.append((f"{tag}/generic_rank.deficient", lambda: generic_rank(md), _equals(n - 1)))
    jobs.append((f"{tag}/kernel.deficient", lambda: kernel_basis(md), _kernel_check(md, 1, point)))
    return jobs


def _ladder_job(n):
    """ROADMAP ladder point: random n x n matrix over a 3-variable chart with
    degree-2 numerators over degree-1 denominators; full rank at a rational
    point proves generic rank n."""
    rng = random.Random(f"ladder:{n}")
    chart = Chart("M", ("x1", "x2", "x3"))
    while True:
        rows = [
            [
                _scalar(
                    chart,
                    P.random_poly(rng, 3, [0, 1, 2], 2, 3),
                    P.add(P.var(3, rng.randrange(3)), P.const(3, P.Fraction(rng.randint(1, 4)))),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if P.numeric_rank(_numeric(rows, _point(rng, chart, [rows]))) == n:
            break
    m = FracMatrix(chart, rows)
    return (f"frames/ladder.n{n}/generic_rank", lambda: generic_rank(m), _equals(n))


def _sample_rank(chart, rows, samples):
    """Max rank at the documented sample points (k + 1 + s + 7 * retry)."""
    best = 0
    for s in range(samples):
        for retry in range(21):
            point = [P.Fraction(k + 1 + s + 7 * retry) for k in range(chart.dim)]
            try:
                values = _numeric(rows, point)
            except ZeroDivisionError:
                continue
            best = max(best, P.numeric_rank(values))
            break
    return best


# -- verifiers: each returns an error message or None ---------------------------------


def _equals(expected):
    def verify(result):
        return None if result == expected else f"got {result}, expected {expected}"

    return verify


def _none_check(result):
    return None if result is None else "a certified non-member was solved"


def _member_check(m, rhs, c, point):
    def verify(x):
        if x is None:
            return "member reported inconsistent"
        if any(a != b for a, b in zip(x, c)):
            return "solution differs from the known coefficients"
        for row, b in zip(m.entries, rhs):
            lhs = sum(evaluate(e, point) * evaluate(xi, point) for e, xi in zip(row, x))
            if lhs != evaluate(b, point):
                return "nonzero residual at a rational point"
        return None

    return verify


def _kernel_check(m, dim, point):
    def verify(basis):
        if len(basis) != dim:
            return f"kernel dimension {len(basis)}, expected {dim}"
        for v in basis:
            for row in m.entries:
                if not sum((e * x for e, x in zip(row, v)), m.chart.zero()).is_zero():
                    return "kernel vector with nonzero exact residual"
        if P.numeric_rank([[evaluate(x, point) for x in v] for v in basis]) != dim:
            return "kernel vectors dependent at a rational point"
        return None

    return verify


def canonical(result):
    """Text of a linalg answer: ranks, solutions and kernel bases."""
    if result is None or isinstance(result, int):
        return str(result)
    if result and isinstance(result[0], list):
        return "\n".join(" ; ".join(to_str(x) for x in v) for v in result)
    return " ; ".join(to_str(x) for x in result)


def build_jobs():
    jobs = []
    for index, spec in enumerate(FRAME_SPECS):
        jobs.extend(_frame_jobs(index, spec))
    jobs.extend(_ladder_job(n) for n in LADDER)
    return jobs
