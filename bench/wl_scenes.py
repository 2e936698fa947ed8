"""`scenes` workload: one job parses one scene-v1 text, runs every check in
it and renders the witnesses, as `dngeo check` does.

Scenes come from families whose verdicts are known by construction, on 2-,
3- and 4-charts in real and complex mode, plus the bundled `scenes/*.scene`
files with the outcomes documented in their comments.  The reasoning behind
each expected verdict is given next to the family that produces it.
"""

from __future__ import annotations

import random
from pathlib import Path

import polys as P
from dngeo.scene import parse_scene, run_scene
from dngeo.symbolic import to_str

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
SCENE_DIR = Path(__file__).resolve().parent.parent / "scenes"

# Documented outcomes of the bundled scenes, check by check: the comments in
# each file name the failing check, and `dngeo check` exits 0 on
# scalar_hierarchy.scene.
BUNDLED = {
    "gauge_nonclosed.scene": [PASS, PASS, PASS, PASS, FAIL],
    "scalar_hierarchy.scene": [PASS, PASS, PASS],
    "worked_split.scene": [PASS, PASS, FAIL],
}


class SceneText:
    """Lines of one scene on the chart x1..xn, and the expected status of
    each check in the order the checks appear."""

    def __init__(self, n, mode, gaussian):
        self.n = n
        self.names = [f"x{k + 1}" for k in range(n)]
        self.gaussian = gaussian
        self.lines = [f"chart M {' '.join(self.names)} {mode}"]
        self.expected = []

    def t(self, p):
        return P.to_text(p, self.names)

    def grid(self, name, grid):
        self.lines.append(
            f"oneone {name} = " + " ; ".join(", ".join(self.t(e) for e in row) for row in grid)
        )

    def diagonal(self, name, entries):
        n = self.n
        self.grid(name, [[entries[i] if i == j else {} for j in range(n)] for i in range(n)])

    def bivector(self, name, comps):
        body = " ; ".join(f"{i + 1} {j + 1} {self.t(p)}" for (i, j), p in comps.items())
        self.lines.append(f"bivector {name} = {body}")

    def form(self, name, degree, comps):
        body = " ; ".join(
            " ".join(str(i + 1) for i in idx) + " " + self.t(p) for idx, p in comps.items()
        )
        self.lines.append(f"form {name} {degree} = {body}".rstrip())

    def coordinate_vectors(self):
        for k in range(self.n):
            comps = " ; ".join("1" if i == k else "0" for i in range(self.n))
            self.lines.append(f"vector e{k + 1} = {comps}")

    def check(self, text, status):
        self.lines.append(f"check {text}")
        self.expected.append(status)

    def text(self):
        return "\n".join(self.lines) + "\n"


def _poly(rng, s, allowed, max_deg=2, nterms=3):
    return P.random_poly(rng, s.n, allowed, max_deg, nterms, s.gaussian)


def _nonconst(rng, s, allowed, max_deg=2, nterms=2):
    return P.random_nonconst(rng, s.n, allowed, max_deg, nterms, s.gaussian)


def _non_nijenhuis(rng, s):
    """diag(a(x1), c(x1), 1, ...) with c non-constant and a - c != 0: the
    torsion on (d1, d2) is (a - c) c' d2, which is nonzero."""
    c = _nonconst(rng, s, [0])
    a = P.add(c, P.const(s.n, P.Fraction(1)))
    return [a, c] + [P.const(s.n, P.Fraction(1))] * (s.n - 2)


def poisson_family(rng, s):
    """Graph of pi = f d1^d2, which is Poisson for every f.

    With r = h*id the graph is invariant and r is Nijenhuis; the traces
    tr(r^j)/j are functions of h, so they Poisson-commute.  The concomitant
    C(a, b) = pi(a,b) dh + (pi#b)(h) a - (pi#a)(h) b vanishes identically on
    a 2-chart and, for n >= 3, exactly when h is constant, so stability (and
    with it dirac_nijenhuis) passes for n = 2 or constant h and fails for a
    non-constant h.  diag(a(x1), b(x2), 1, ...) gives traces whose bracket is
    (b - a) a' b' f != 0.  The sum f d1^d2 + g d1^d2 is Poisson, so the
    cotangential product of both graphs is Dirac.
    """
    n = s.n
    f = _poly(rng, s, list(range(n)))
    g = _poly(rng, s, list(range(n)))
    if n == 2 or rng.random() < 0.6:
        h = _nonconst(rng, s, list(range(n)))
    else:
        h = P.const(n, P.Fraction(rng.randint(2, 5)))
    stable = PASS if n == 2 or P.is_const(h) else FAIL
    s.bivector("pi", {(0, 1): f})
    s.bivector("pi2", {(0, 1): g})
    s.diagonal("r", [h] * s.n)
    one = P.const(n, P.Fraction(1))
    s.diagonal("rd", [_nonconst(rng, s, [0]), _nonconst(rng, s, [1])] + [one] * (n - 2))
    s.lines += ["frame L = poisson pi", "frame L2 = poisson pi2"]
    s.check("dirac L", PASS)
    s.check("nijenhuis r", PASS)
    s.check("invariance L r", PASS)
    s.check("d_stability L r", stable)
    s.check("dirac_nijenhuis L r", stable)
    s.check("traces L r 3", PASS)
    s.check("traces L rd 2", FAIL)
    s.check("concur L L2", PASS)


def poisson_pair_family(rng, s):
    """Two graphs on a 2-chart, or a non-Poisson sum for n >= 3.

    On a 2-chart every bivector is Poisson and (pi, h*id) is compatible, so
    the algebroid data, the contraction-type and the double-type conditions
    all hold; a non-Nijenhuis r fails double_type and quasi.  For n >= 3,
    f(x1,x3) d1^d2 + x2 k(x1,x3) d2^d3 has Jacobiator f*k != 0: the graph is
    lagrangian but not involutive, and the product of the two graphs of the
    summands is not Dirac.
    """
    n = s.n
    if n == 2:
        f = _poly(rng, s, [0, 1])
        h = _nonconst(rng, s, [0, 1])
        s.bivector("pi", {(0, 1): f})
        s.diagonal("r", [h] * s.n)
        s.diagonal("rt", _non_nijenhuis(rng, s))
        s.lines += ["frame L = poisson pi", "form phi 3 ="]
        s.check("contraction_type L r", PASS)
        s.check("double_type L r", PASS)
        s.check("double_type L rt", FAIL)
        s.check("quasi L r phi", PASS)
        s.check("quasi L rt phi", FAIL)
        s.check("algebroid L r", PASS)
        return
    f = _poly(rng, s, [0, 2])
    k = _poly(rng, s, [0, 2])
    g = P.mul(P.var(n, 1), k)
    s.bivector("pa", {(0, 1): f})
    s.bivector("pb", {(1, 2): g})
    s.bivector("pab", {(0, 1): f, (1, 2): g})
    s.lines += ["frame La = poisson pa", "frame Lb = poisson pb", "frame Lab = poisson pab"]
    s.check("lagrangian Lab", PASS)
    s.check("involutive Lab", FAIL)
    s.check("dirac Lab", FAIL)
    s.check("concur La Lb", FAIL)
    s.check("algebroid Lab", INCONCLUSIVE)


def quasi_family(rng, s):
    """Graph of pi = f d1^d2 with a closed 3-form phi (n >= 3).

    With phi = 0 the condition reads <a, N_r> = 0: it holds for r = h*id and
    fails for a tensor with nonzero torsion.  With phi = c dx1^dx2^dx3 and
    N_r = 0, the left side is 0 but phi(pi# dx1, d1, d3) = -c f != 0.
    """
    n = s.n
    f = _poly(rng, s, list(range(n)))
    s.bivector("pi", {(0, 1): f})
    s.diagonal("r", [_nonconst(rng, s, list(range(n)))] * n)
    s.diagonal("rt", _non_nijenhuis(rng, s))
    s.form("phi0", 3, {})
    s.form("phic", 3, {(0, 1, 2): P.const(n, P.Fraction(rng.randint(1, 4)))})
    s.lines.append("frame L = poisson pi")
    s.check("quasi L r phi0", PASS)
    s.check("quasi L rt phi0", FAIL)
    s.check("quasi L r phic", FAIL)
    s.check("nijenhuis rt", FAIL)


def presymplectic_family(rng, s):
    """Graph of a closed 2-form omega with a tensor r.

    A coefficient of dxi^dxj that depends only on xi, xj is closed.  The pair
    (omega, r) is compatible when omega(r., .) is skew and d(omega_r) = 0.
    n = 2: omega = k dx1^dx2 with r = h*id is compatible; diag(a, a+1) makes
    omega_r non-skew, so form_compat and invariance fail.  n = 3, 4: with
    omega = k1(x1,x2) dx1^dx2 [+ k2(x3,x4) dx3^dx4] and r = diag(l, l, m, m),
    l = l(x1,x2), m depending on the other block, omega_r is closed and r is
    Nijenhuis; adding c*x3 to l makes d(omega_r) = c k1 dx3^dx1^dx2 != 0 and
    the torsion (l - m) c d1 nonzero.  A dx1^dx2 coefficient with x3 in it
    is not closed, so that graph is not involutive.
    """
    n = s.n
    one = P.const(n, P.Fraction(1))
    if n == 2:
        k = _poly(rng, s, [0, 1])
        h = _nonconst(rng, s, [0, 1])
        a = _poly(rng, s, [0, 1])
        s.form("w", 2, {(0, 1): k})
        s.diagonal("r", [h] * s.n)
        s.diagonal("r2", [a, P.add(a, one)])
        s.lines.append("frame L = presymplectic w")
        s.check("form_compat w r", PASS)
        s.check("dirac_nijenhuis L r", PASS)
        s.check("contraction_type L r", PASS)
        s.check("form_compat w r2", FAIL)
        s.check("invariance L r2", FAIL)
        s.check("contraction_type L r2", FAIL)
        s.check("algebroid L r", PASS)
        return
    k1 = _poly(rng, s, [0, 1])
    lam = _nonconst(rng, s, [0, 1])
    rest = list(range(2, n))
    mu = _poly(rng, s, rest)
    comps = {(0, 1): k1}
    if n == 4:
        comps[(2, 3)] = _poly(rng, s, [2, 3])
    lam_bad = P.add(lam, P.scale(P.var(n, 2), P.Fraction(rng.randint(1, 3))))
    s.form("w", 2, comps)
    s.form("wbad", 2, {(0, 1): P.add(k1, P.var(n, 2))})
    s.diagonal("r", [lam, lam] + [mu] * (n - 2))
    s.diagonal("rbad", [lam_bad, lam_bad] + [mu] * (n - 2))
    s.lines += ["frame L = presymplectic w", "frame Lbad = presymplectic wbad"]
    s.check("form_compat w r", PASS)
    s.check("nijenhuis r", PASS)
    s.check("invariance L r", PASS)
    s.check("form_compat w rbad", FAIL)
    s.check("nijenhuis rbad", FAIL)
    s.check("lagrangian Lbad", PASS)
    s.check("dirac Lbad", FAIL)
    if n == 4:
        s.check("dirac_nijenhuis L r", PASS)
        s.check("d_stability L rbad", FAIL)


def split_family(rng, s):
    """F + Ann(F) for F spanned by coordinate fields d_i, i in S.

    r = diag(a_1(x1), ..., a_n(xn)) is Nijenhuis and preserves both F and
    Ann(F), and its derivatives along d_j stay in coordinate directions, so
    the pair is Dirac-Nijenhuis and of contraction type (the worked example
    is the case n = 2).  Adding x_j to r[j][i] (i in S, j not in S) moves
    d_i out of F, so invariance fails.
    """
    n = s.n
    S = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
    s.coordinate_vectors()
    diag = [_poly(rng, s, [k], 2, 2) for k in range(n)]
    i = rng.choice(S)
    j = rng.choice([k for k in range(n) if k not in S])
    bad = [[diag[a] if a == b else {} for b in range(n)] for a in range(n)]
    bad[j][i] = P.var(n, j)
    s.diagonal("r", diag)
    s.grid("rbad", bad)
    s.lines.append("frame L = split " + " ".join(f"e{k + 1}" for k in S))
    s.check("dirac L", PASS)
    s.check("dirac_nijenhuis L r", PASS)
    s.check("contraction_type L r", PASS)
    s.check("invariance L rbad", FAIL)
    s.check("dirac_nijenhuis L rbad", FAIL)


def lagrangian_fail_family(rng, s):
    """Frames that are not lagrangian.

    Sections (d_a, sum_b g_ab dx_b) with g symmetric and g_11 != 0 pair to
    <s_1, s_1> = 2 g_11.  Sections (d1, 0) and (x2 d1, 0) pair to zero but
    have rank 1.  Involutivity and the algebroid need a lagrangian frame, so
    they are inconclusive.
    """
    n = s.n
    s.coordinate_vectors()
    g = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            g[a][b] = g[b][a] = _poly(rng, s, list(range(n)), 1, 2)
    for a in range(n):
        s.form(f"g{a + 1}", 1, {(b,): g[a][b] for b in range(n)})
    s.lines.append("frame B = sections " + " ; ".join(f"e{a + 1} g{a + 1}" for a in range(n)))
    s.lines.append(f"vector w = {s.t(P.var(n, 1))}" + " ; 0" * (n - 1))
    s.lines.append("frame R = sections e1 0 ; w 0" + " ; 0 0" * (n - 2))
    s.check("lagrangian B", FAIL)
    s.check("dirac B", FAIL)
    s.check("involutive B", INCONCLUSIVE)
    s.check("lagrangian R", FAIL)
    s.check("algebroid B", INCONCLUSIVE)


def holomorphic_family(rng, s):
    """The standard complex structure J (J d_k = d_{k+m} on x1..x2m).

    TM is a holomorphic Dirac structure.  The graph of a 2-form omega is
    J-invariant only when omega(J., .) is skew: on a 2-chart that forces
    omega = 0, and on a 4-chart omega = k1 dx1^dx2 + k2 dx3^dx4 needs
    k1 + k2 = 0, which fails for non-constant k1 in x1, x2.  On a 2-chart,
    u dx - v dy and v dx + u dy with u + i v = f(x + i y) holomorphic form a
    holomorphic 1-form; adding x to u breaks the Cauchy-Riemann equations,
    so d(omega_J) = -dx^dy and form compatibility fails.
    """
    n = s.n
    m = n // 2
    grid = [[{} for _ in range(n)] for _ in range(n)]
    for k in range(m):
        grid[m + k][k] = P.const(n, P.Fraction(1))
        grid[k][m + k] = P.const(n, P.Fraction(-1))
    s.grid("J", grid)
    s.coordinate_vectors()
    s.lines.append("frame T = split " + " ".join(f"e{k + 1}" for k in range(n)))
    s.check("holomorphic_dirac T J", PASS)
    if n == 2:
        s.form("w", 2, {(0, 1): _poly(rng, s, [0, 1])})
        u, v = P.holomorphic_parts(rng, s.gaussian)
        ub = P.add(u, P.var(2, 0))
        mv = P.scale(v, -1)
        s.form("h0", 1, {(0,): u, (1,): mv})
        s.form("h1", 1, {(0,): v, (1,): u})
        s.form("b0", 1, {(0,): ub, (1,): mv})
        s.form("b1", 1, {(0,): v, (1,): ub})
        s.check("holo_form h0 h1 J", PASS)
        s.check("holo_form b0 b1 J", FAIL)
        s.check("algebroid T J", PASS)
    else:
        k1 = _nonconst(rng, s, [0, 1])
        s.form("w", 2, {(0, 1): k1, (2, 3): _poly(rng, s, [2, 3])})
    s.lines.append("frame Lw = presymplectic w")
    s.check("holomorphic_dirac Lw J", FAIL)


FAMILIES = [
    (poisson_family, (2, 3, 4)),
    (poisson_pair_family, (2, 3, 4)),
    (quasi_family, (3, 4)),
    (presymplectic_family, (2, 3, 4)),
    (split_family, (2, 3, 4)),
    (lagrangian_fail_family, (2, 3)),
    (holomorphic_family, (2, 4)),
]
VARIANTS = [(fam, n, mode) for fam, dims in FAMILIES for n in dims for mode in ("real", "complex")]


def generated_scene(index):
    """The index-th pool scene: (text, expected statuses)."""
    fam, n, mode = VARIANTS[index]
    rng = random.Random(f"scenes:{index}")
    s = SceneText(n, mode, gaussian=(mode == "complex"))
    fam(rng, s)
    return s.text(), s.expected, f"{fam.__name__}.n{n}.{mode}.{index}"


def run_text(text):
    """The job: parse, run every check, render each verdict as report lines."""
    scene = parse_scene(text)
    lines = []
    for rec in run_scene(scene):
        lines.append(f"{rec.name}: {rec.verdict.status}")
        for wname, wval in rec.verdict.witnesses:
            lines.append(f"  {wname}: {wval if isinstance(wval, str) else to_str(wval)}")
    return lines


def build_jobs():
    jobs = []
    for name, expected in BUNDLED.items():
        text = (SCENE_DIR / name).read_text()
        jobs.append((f"scenes/bundled/{name}", text, expected))
    for index in range(len(VARIANTS)):
        text, expected, name = generated_scene(index)
        jobs.append((f"scenes/{name}", text, expected))
    return [(job_id, (lambda t=text: run_text(t)), _verifier(exp)) for job_id, text, exp in jobs]


def canonical(lines):
    return "\n".join(lines)


def _verifier(expected):
    def verify(lines):
        statuses = [line.rsplit(": ", 1)[1] for line in lines if not line.startswith(" ")]
        if statuses != expected:
            return f"verdicts {statuses} != expected {expected}"
        return None

    return verify
