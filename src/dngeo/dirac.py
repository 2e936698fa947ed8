"""Lagrangian subbundles presented by frames, and every compatibility check
attached to them: invariance and stability under the derivation operators,
concomitants, hierarchies, traces in involution, gauge transformations,
coordinate transfers, and the contraction/double-type comparisons.

Verdict semantics: identities proved over the rational-function field count
as `pass`/`fail`; facts that only sampling can support (pointwise rank,
smooth intersections) degrade to `inconclusive` instead of `pass` when the
samples disagree with the generic count.

A failing check names the first nonzero quantity of its family in the
order documented here (`Verdict.first`).  Where the paper's symmetries make
a quantity zero or minus another one, the family is read only over the
index set they leave, behind the precondition that makes the symmetry hold,
so the first failure is the one the full family would report:
    * T(a, b, c) = <[[s_a, s_b]], s_c> over a < b < c, for the Dorfman and
      the double bracket: T is totally skew on an isotropic frame;
    * the concomitant C_L(a, b) over b > a, and the contraction-type
      stability <D_{Y_b} s_a, s_c> over c > a: on a lagrangian L with
      R(L) in L, R = (r, r*), the identity
      <D_X s1, s2> + <s1, D_X s2> = X<s1, R s2> - (rX)<s1, s2>
      makes both skew;
    * the torsion N(X_a, X_b) on pr_T(L) over a < b: N is skew;
    * the trace brackets {phi_i, phi_j} over i < j: they are skew, and
      {phi_i, phi_i} = d phi_i(X_i) = 0 on an isotropic L;
    * the pairings of the lagrangian and invariance checks over b >= a:
      both pairings are symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    AdmissibilityError,
    HierarchyKernelError,
    PreconditionError,
)
from .symbolic import (
    Chart,
    FracMatrix,
    ScalarExpr,
    generic_rank,
    image_at_sample,
    kernel_basis,
    pivot_columns,
    rank_at_samples,
    same_chart,
    solve_columns,
)
from .symbolic import modp
from .symbolic.scalar import _kept, to_str
from .courant import (
    GSection,
    _coordinate_D,
    apply_rr,
    courant_bracket,
    double_bracket,
    pairing,
)
from .tensor import (
    Bivector,
    OneOneTensor,
    PForm,
    VectorField,
    D_r,
    D_r_star,
    combination,
    ext_d,
    form_as_covform,
    form_r,
    interior,
    lie_bracket,
    lie_deriv_form,
    nijenhuis_torsion,
    scalar_d,
)

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    witnesses: tuple = ()

    def __bool__(self):
        return self.status == PASS

    @staticmethod
    def ok() -> "Verdict":
        return Verdict(PASS)

    @staticmethod
    def fail(*witnesses) -> "Verdict":
        return Verdict(FAIL, tuple(witnesses))

    @staticmethod
    def inconclusive(*witnesses) -> "Verdict":
        return Verdict(INCONCLUSIVE, tuple(witnesses))

    @staticmethod
    def first(named) -> "Verdict":
        """Fail on the first (label, value) of `named` whose value is nonzero,
        and pass when there is none.  `named` is read one item at a time, so
        a generator forms nothing past the first nonzero value."""
        for label, value in named:
            if not value.is_zero():
                return Verdict.fail((label, value))
        return Verdict.ok()

    @staticmethod
    def merge(named) -> "Verdict":
        """One verdict for (name, verdict) parts: fail if any part fails, else
        inconclusive if any part is, else pass; witnesses are prefixed by the
        name of their part."""
        named = tuple(named)
        statuses = {v.status for _, v in named}
        worst = FAIL if FAIL in statuses else INCONCLUSIVE if INCONCLUSIVE in statuses else PASS
        return Verdict(worst, tuple((f"{name}.{w}", val) for name, v in named for w, val in v.witnesses))


class GFrame:
    """A rank-n subbundle of TM + T*M presented by n generating sections.

    The frame is its sections.  Its sampled rank and lagrangian verdict at each
    sample count, its involutivity verdict, the Courant brackets of its
    sections and its invariance verdict under each tensor are kept by the
    memo rule (see `_kept`)."""

    __slots__ = ("chart", "sections", "_memo")

    def __init__(self, sections):
        chart = same_chart(*sections)
        if len(sections) != chart.dim:
            raise ValueError("a frame needs exactly n sections")
        self.chart = chart
        self.sections = tuple(sections)
        self._memo = None

    def matrix(self) -> FracMatrix:
        """2n x n matrix whose columns are the stacked section components."""
        cols = [s.components() for s in self.sections]
        rows = [[cols[a][i] for a in range(len(cols))] for i in range(2 * self.chart.dim)]
        return FracMatrix(self.chart, rows)

    def covector_matrix(self) -> FracMatrix:
        n = self.chart.dim
        rows = [
            [self.sections[a].cov.get((i,)) for a in range(n)] for i in range(n)
        ]
        return FracMatrix(self.chart, rows)


@dataclass(frozen=True)
class NullDistribution:
    chart: Chart
    basis: tuple


@dataclass(frozen=True)
class DNReport:
    lagrangian: Verdict
    involutive: Verdict
    invariance: Verdict
    d_stability: Verdict
    nijenhuis: Verdict

    def named(self):
        return (
            ("lagrangian", self.lagrangian),
            ("involutive", self.involutive),
            ("invariance", self.invariance),
            ("d_stability", self.d_stability),
            ("nijenhuis", self.nijenhuis),
        )

    def all_pass(self) -> bool:
        return all(v.status == PASS for _, v in self.named())

    def compatible(self) -> bool:
        """Conditions on the pair only (lagrangian + invariance + stability)."""
        return all(
            v.status == PASS
            for v in (self.lagrangian, self.invariance, self.d_stability)
        )


def _components(label: str, form):
    """(label + key, value) for each nonzero component of a form, or of a
    form-valued tensor, in key order."""
    return ((f"{label}{key}", form.comps[key]) for key in sorted(form.comps))


# -- frame constructors ---------------------------------------------------------


def make_graph_poisson(pi: Bivector) -> GFrame:
    """Frame {(pi# dx^i, dx^i)} of the graph of a bivector."""
    chart = pi.chart
    secs = [
        GSection(pi.sharp(PForm.coordinate(chart, i)), PForm.coordinate(chart, i))
        for i in range(chart.dim)
    ]
    return GFrame(secs)


def make_graph_presymplectic(omega: PForm) -> GFrame:
    """Frame {(d_i, i_{d_i} omega)} of the graph of a 2-form."""
    if omega.degree != 2:
        raise ValueError("need a 2-form")
    chart = omega.chart
    secs = [
        GSection(VectorField.coordinate(chart, i), interior(VectorField.coordinate(chart, i), omega))
        for i in range(chart.dim)
    ]
    return GFrame(secs)


def make_split(fields) -> GFrame:
    """Frame of F + Ann(F) for a distribution spanned by `fields`.

    The annihilator basis comes from the kernel of the field-component matrix
    over the function field.  Independence and involutivity of F are
    verified over the function field; a rank drop of the frame at sample
    points is left to `check_lagrangian`.
    """
    chart = same_chart(*fields)
    n = chart.dim
    k = len(fields)
    fmat = FracMatrix(chart, [[f.comps[i] for i in range(n)] for f in fields])
    if generic_rank(fmat) != k:
        raise PreconditionError("split fields are dependent over the function field")
    ann = [PForm(chart, 1, {(i,): vec[i] for i in range(n)}) for vec in kernel_basis(fmat)]
    # F = ker Ann(F), so F is involutive iff Ann(F) kills every [X_a, X_b]
    for a in range(k):
        for b in range(a + 1, k):
            br = lie_bracket(fields[a], fields[b])
            if not all(interior(br, alpha).is_zero() for alpha in ann):
                raise PreconditionError("split fields do not span an involutive distribution")
    return GFrame([GSection.from_vector(f) for f in fields] + [GSection.from_form(alpha) for alpha in ann])


# -- elementary checks -----------------------------------------------------------


def _pairings(L1: GFrame, L2: GFrame):
    """((a, b), <s_a, t_b>) for the sections s of L1 and t of L2 in row
    order; for one frame (L1 is L2) only the pairs a <= b."""
    n = L1.chart.dim
    for a in range(n):
        for b in range(a if L1 is L2 else 0, n):
            yield (a, b), pairing(L1.sections[a], L2.sections[b])


def _beside(m1: FracMatrix, m2: FracMatrix) -> FracMatrix:
    """The block matrix [m1 | m2]."""
    return FracMatrix(m1.chart, [r1 + r2 for r1, r2 in zip(m1.entries, m2.entries)])


def _pairings_vanish(L1: GFrame, L2: GFrame, v1, v2) -> bool:
    """Whether every section of L1 pairs to zero with every section of L2.

    v1 and v2 are the frames' matrices mod P at one common sample point, or
    None.  A pairing whose image is nonzero there is nonzero, so a frame pair
    that fails is mostly rejected before any pairing of rational functions
    is formed.
    """
    n = L1.chart.dim
    if v1 is not None and any(
        sum(v1[i][a] * v2[n + i][b] + v1[n + i][a] * v2[i][b] for i in range(n)) % modp.P
        for a in range(n)
        for b in range(n)
    ):
        return False
    return all(val.is_zero() for _, val in _pairings(L1, L2))


def check_lagrangian(L: GFrame, samples: int = 3) -> Verdict:
    """Pass iff the frame pairs to zero with itself and has rank n pointwise.

    The rank is sampled at `samples` points: a generic rank below n fails; a
    rank below n at every sample point, or a pole at every one, is
    inconclusive.  Frame constructors leave this sampled rank to the check.
    A count below 1 is refused, whatever the frame.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    return _kept(L, ("lagrangian", samples), _decide_lagrangian, L, samples)


def _decide_lagrangian(L: GFrame, samples: int) -> Verdict:
    n = L.chart.dim
    isotropic = Verdict.first((f"pairing[{a},{b}]", val) for (a, b), val in _pairings(L, L))
    if isotropic.status != PASS:
        return isotropic
    sampled = _sampled_rank(L, samples)
    if sampled != n and len(pivot_columns(L.matrix())) != n:
        return Verdict.fail(("rank", f"generic rank below {n}"))
    if sampled is None:
        return Verdict.inconclusive(("rank", "no valid sample point"))
    if sampled != n:
        return Verdict.inconclusive(("rank", "rank drop at sample points"))
    return Verdict.ok()


def _sampled_rank(L: GFrame, samples: int):
    """rank_at_samples of the frame's matrix, kept on L under ("rank", samples)."""
    return _kept(L, ("rank", samples), _frame_rank, L, samples)


def _frame_rank(L: GFrame, samples: int):
    return rank_at_samples(L.matrix(), samples)


def _require(verdict: Verdict, what: str):
    if verdict.status != PASS:
        raise PreconditionError(f"precondition failed: {what}")


def check_involutive(L: GFrame, samples: int = 3) -> Verdict:
    """Vanishing of T(s_a, s_b, s_c) = <[[s_a, s_b]], s_c> on frame triples of
    a lagrangian L.  The verdict is kept on L under "involutive": the sample
    count gates only the lagrangian verdict, which is kept per count."""
    _require(check_lagrangian(L, samples), "lagrangian")
    return _kept(L, "involutive", _involutive_under, L, _frame_bracket)


def _frame_bracket(L: GFrame, a: int, b: int):
    """The Courant bracket [[s_a, s_b]] of two sections of L, formed once and
    kept on L under ("bracket", a, b)."""
    return _kept(L, ("bracket", a, b), courant_bracket, L.sections[a], L.sections[b])


def check_invariance(L: GFrame, r: OneOneTensor, samples: int = 3) -> Verdict:
    """(r, r*)(L) inside L, tested by pairing against the frame (valid since
    L = L-perp).  The lagrangian precondition is read on every call; the
    verdict is formed once per (L, r) and kept on L under ("invariance",
    id(r)), beside r, so while it is kept no other tensor can have that id."""
    same_chart(L.sections[0], r)
    _require(check_lagrangian(L, samples), "lagrangian")
    return _kept(L, ("invariance", id(r)), _held_invariance, L, r)[1]


def _held_invariance(L: GFrame, r: OneOneTensor):
    n = L.chart.dim
    return r, Verdict.first(
        (f"invariance[{a},{b}]", pairing(ra, L.sections[b]))
        for a in range(n)
        for ra in [apply_rr(L.sections[a], r)]
        for b in range(a, n)
    )


def check_D_stability(L: GFrame, r: OneOneTensor, samples: int = 3) -> Verdict:
    """Stability of the span under the combined derivation, via its concomitant."""
    _require(check_invariance(L, r, samples), "invariance")
    return _D_stable(L, r)


def _D_stable(L: GFrame, r: OneOneTensor) -> Verdict:
    """C_L(a, b)(d_k) = <row_a[k], s_b> over b > a: skew once R(L) is in L."""
    n = L.chart.dim
    return Verdict.first(
        (f"concomitant[{a},{b}]({L.chart.variables[k]})", pairing(row[k], L.sections[b]))
        for a in range(n - 1)
        for row in [_coordinate_D(L.sections[a], r)]
        for b in range(a + 1, n)
        for k in range(n)
    )


def check_nijenhuis(r: OneOneTensor) -> Verdict:
    N = nijenhuis_torsion(r)
    return Verdict.first((f"torsion[{i};{j},{k}]", val) for (i, j, k), val in sorted(N.comps.items()))


def _dn_steps(L: GFrame, r: OneOneTensor, samples: int = 3):
    """The Dirac-Nijenhuis test as (name, verdict) steps in DNReport order.

    Each step runs only when the consumer asks for it, so a consumer can
    time the steps one by one.
    """
    lag = check_lagrangian(L, samples)
    yield "lagrangian", lag
    if lag.status != PASS:
        blocked = Verdict.inconclusive(("precondition", "lagrangian did not pass"))
        for name in ("involutive", "invariance", "d_stability"):
            yield name, blocked
    else:
        yield "involutive", check_involutive(L, samples)
        rr = check_invariance(L, r, samples)
        yield "invariance", rr
        if rr.status == PASS:
            yield "d_stability", _D_stable(L, r)
        else:
            yield "d_stability", Verdict.inconclusive(("precondition", "invariance did not pass"))
    yield "nijenhuis", check_nijenhuis(r)


def dirac_nijenhuis_report(L: GFrame, r: OneOneTensor, samples: int = 3) -> DNReport:
    return DNReport(*(v for _, v in _dn_steps(L, r, samples)))


# -- membership and span utilities ----------------------------------------------


def section_in_span(s: GSection, L: GFrame, samples: int = 3) -> bool:
    """Membership via pairing with the frame; requires the lagrangian check."""
    _require(check_lagrangian(L, samples), "lagrangian")
    return all(pairing(s, t).is_zero() for t in L.sections)


def frames_equal_span(L1: GFrame, L2: GFrame) -> bool:
    """Equality of the spans over the function field.

    Equal spans have equal generic rank, and then they are equal exactly when
    rank [m1 | m2] is that rank too; a rank of [m1 | m2] above it at a sample
    point already proves them unequal, since the generic rank is at least the
    rank at any point.  The pairing b(X) + a(Y) is nondegenerate over Q(x) and
    Q(i)(x), so a lagrangian span L is its own orthogonal.  Hence when both
    ranks are n and L2 is isotropic, so lagrangian, the spans are equal
    exactly when <L1, L2> = 0, and [m1 | m2] is never eliminated.

    [m1 | m2] is taken mod P once, at the first retry of sample point 0
    where no denominator image vanishes.  Every sampled rank and pairing is
    read from that image, and each read is one-sided: an image rank of n
    proves a generic rank of n, an image rank of [m1 | m2] above r proves
    the spans unequal, and a nonzero image pairing proves a nonzero pairing.
    Whatever the image does not prove is decided exactly.
    """
    same_chart(L1.sections[0], L2.sections[0])
    n = L1.chart.dim
    m1, m2 = L1.matrix(), L2.matrix()
    both = _beside(m1, m2)
    v = image_at_sample(both)
    v1 = v2 = None
    if v is not None:
        v1, v2 = [row[:n] for row in v], [row[n:] for row in v]

    def rank(m, values):
        if values is not None and modp.rank(values) == n:
            return n
        return len(pivot_columns(m))

    r = rank(m1, v1)
    if rank(m2, v2) != r:
        return False
    if r == n and _pairings_vanish(L2, L2, v2, v2):
        return _pairings_vanish(L1, L2, v1, v2)
    if v is not None and modp.rank(v) > r:
        return False
    return len(pivot_columns(both)) == r


# -- concomitants ------------------------------------------------------------------


def concomitant_R(pi: Bivector, r: OneOneTensor, X: VectorField, a: PForm) -> VectorField:
    """pi#(L_X r*(a) - L_{rX} a) - (L_{pi# a} r)(X)."""
    same_chart(pi, r, X, a)
    return pi.sharp(D_r_star(X, a, r)) - D_r(X, pi.sharp(a), r)


def koszul_bracket(lam_sharp, a: PForm, b: PForm) -> PForm:
    """[a, b]_Lambda = L_{Lambda# a} b - i_{Lambda# b} da, for a sharp map."""
    return lie_deriv_form(lam_sharp(a), b) - interior(lam_sharp(b), ext_d(a))


def concomitant_C(pi: Bivector, r: OneOneTensor, a: PForm, b: PForm) -> PForm:
    """[a,b]_{pi_r} - ([r*a, b]_pi + [a, r*b]_pi - r*([a,b]_pi))."""
    same_chart(pi, r, a, b)

    def pir_sharp(x):
        return r.apply(pi.sharp(x))

    return koszul_bracket(pir_sharp, a, b) - (
        koszul_bracket(pi.sharp, r.dual(a), b)
        + koszul_bracket(pi.sharp, a, r.dual(b))
        - r.dual(koszul_bracket(pi.sharp, a, b))
    )


def concomitant_S_tilde(omega: PForm, r: OneOneTensor, X: VectorField, Y: VectorField) -> PForm:
    """D^{r,*}_X(omega_b(Y)) - omega_b(D^r_X(Y))."""
    same_chart(omega, r, X, Y)
    if omega.degree != 2:
        raise ValueError("need a 2-form")
    return D_r_star(X, interior(Y, omega), r) - interior(D_r(X, Y, r), omega)


def concomitant_S(omega: PForm, r: OneOneTensor, X: VectorField, Y: VectorField) -> PForm:
    """i_X L_{rY} omega - i_Y L_{rX} omega - i_{r[X,Y]} omega + d(omega(rY, X))."""
    same_chart(omega, r, X, Y)
    if omega.degree != 2:
        raise ValueError("need a 2-form")
    return (
        interior(X, lie_deriv_form(r.apply(Y), omega))
        - interior(Y, lie_deriv_form(r.apply(X), omega))
        - interior(r.apply(lie_bracket(X, Y)), omega)
        + scalar_d(interior(X, interior(r.apply(Y), omega)).as_scalar())
    )


def check_form_compat(omega: PForm, r: OneOneTensor) -> Verdict:
    """Pass iff omega_r is skew and d(omega_r) = (d omega)_r."""
    same_chart(omega, r)
    wr = form_r(omega, r)
    if not wr.is_skew():
        return Verdict.fail(("omega_r", "not antisymmetric"))
    lhs = form_as_covform(ext_d(wr.to_form()))
    rhs = form_r(ext_d(omega), r)
    return Verdict.first(_components("d(omega_r)-(d omega)_r", lhs - rhs))


# -- null distribution -------------------------------------------------------------


def null_distribution(L: GFrame, samples: int = 3) -> NullDistribution:
    """Basis of L intersect TM over the function field.  The covector rows
    have a sampled rank: the lagrangian pass found each sample point a
    pole-free retry of the whole frame matrix."""
    _require(check_lagrangian(L, samples), "lagrangian")
    chart = L.chart
    cov = L.covector_matrix()
    combos = kernel_basis(cov)
    if rank_at_samples(cov, samples) != chart.dim - len(combos):
        raise PreconditionError("null distribution rank drops at sample points")
    vecs = [s.vec for s in L.sections]
    return NullDistribution(chart, tuple(combination(vecs, c, VectorField.zero(chart)) for c in combos))


# -- hierarchy ----------------------------------------------------------------------


def transform_frame(L: GFrame, vec_op, cov_op) -> GFrame:
    secs = [GSection(vec_op(s.vec), cov_op(s.cov)) for s in L.sections]
    return GFrame(secs)


def hierarchy(L: GFrame, r: OneOneTensor, n: int, side: str, samples: int = 3) -> GFrame:
    """(r^n, id)(L) for side 'n0', or (id, (r*)^n)(L) for side '0n'.

    The kernel condition of the chosen side is enforced as sample-point
    rank fullness of the transformed frame, or generic rank fullness when
    every sample point is a pole; such a member is returned as it is, and
    `check_lagrangian` reports it inconclusive.
    """
    if side not in ("n0", "0n"):
        raise ValueError("side must be 'n0' or '0n'")
    if n < 0:
        raise ValueError("n must be nonnegative")
    same_chart(L.sections[0], r)
    rn = r.power(n)
    if side == "n0":
        out = transform_frame(L, rn.apply, lambda a: a)
    else:
        out = transform_frame(L, lambda v: v, rn.dual)
    dim = out.chart.dim
    sampled = _sampled_rank(out, samples)
    if sampled == dim or (sampled is None and len(pivot_columns(out.matrix())) == dim):
        return out
    raise HierarchyKernelError("(n,0)" if side == "n0" else "(0,n)")


def check_concur(L1: GFrame, L2: GFrame, samples: int = 3) -> Verdict:
    """Cotangential product of two Dirac structures, then Dirac checks on it.

    Builds {(X1 + X2, a)} by solving the covector parts of the first frame in
    the second, all by one elimination; equal covector projections at the
    generic point are a precondition.
    """
    same_chart(L1.sections[0], L2.sections[0])
    _require(check_lagrangian(L1, samples), "first frame lagrangian")
    _require(check_lagrangian(L2, samples), "second frame lagrangian")
    cov2 = L2.covector_matrix()
    if generic_rank(L1.covector_matrix()) != generic_rank(cov2):
        raise PreconditionError("covector projections differ at the generic point")
    chart = L1.chart
    vecs2 = [s.vec for s in L2.sections]
    solved = solve_columns(cov2, [[s.cov.get((i,)) for i in range(chart.dim)] for s in L1.sections])
    if None in solved:
        raise PreconditionError("covector projections differ at the generic point")
    zero = VectorField.zero(chart)
    product = GFrame([GSection(s.vec + combination(vecs2, c, zero), s.cov) for s, c in zip(L1.sections, solved)])
    lag = check_lagrangian(product, samples)
    if lag.status == FAIL:
        return lag
    if lag.status == INCONCLUSIVE:
        return Verdict.inconclusive(("product", "sample-point rank drop"))
    return check_involutive(product, samples)


# -- traces ---------------------------------------------------------------------------


def traces(r: OneOneTensor, jmax: int):
    """phi_j = trace(r^j)/j for j = 1..jmax."""
    out = []
    power = r
    for j in range(1, jmax + 1):
        out.append(power.trace() / r.chart.const(j))
        power = power.compose(r)
    return out


def hamiltonian_representative(L: GFrame, fs) -> list:
    """Per f of fs, X with (X, df) in the span of the frame, or None; every
    df is solved by one elimination of the covector matrix.

    (X, df) is the combination of the frame's sections whose covector part
    is df, so it lies in the span by construction."""
    chart = L.chart
    solved = solve_columns(L.covector_matrix(), [[scalar_d(f).get((i,)) for i in range(chart.dim)] for f in fs])
    vecs = [s.vec for s in L.sections]
    return [None if c is None else combination(vecs, c, VectorField.zero(chart)) for c in solved]


def check_traces_involution(L: GFrame, r: OneOneTensor, jmax: int, samples: int = 3) -> Verdict:
    """Admissibility of trace(r) and involution of all trace functions.

    Raises AdmissibilityError('trace not admissible') when the first trace
    fails the null-distribution test, and ValueError when jmax < 1.
    """
    if jmax < 1:
        raise ValueError("traces jmax must be at least 1")
    null = null_distribution(L, samples)
    phis = traces(r, jmax)
    dphi1 = scalar_d(phis[0])
    if not all(interior(k, dphi1).as_scalar().is_zero() for k in null.basis):
        raise AdmissibilityError("trace not admissible")
    reps = hamiltonian_representative(L, phis)
    if None in reps:
        raise AdmissibilityError("trace not admissible")
    # {phi_i, phi_j} = d phi_j (X_i), skew, and zero for i = j on an isotropic L
    return Verdict.first(
        (f"bracket[{i + 1},{j + 1}]", reps[i].deriv(phis[j])) for i, j in combinations(range(jmax), 2)
    )


# -- gauge transformation ----------------------------------------------------------


def gauge_transform(pi: Bivector, B: PForm):
    """r = id + pi# B_flat and the transformed frame {(pi# a, a + i_{pi# a} B)}.

    dB = 0 guarantees the frame is Dirac; for dB != 0 the frame is still
    returned and involutivity is the caller's question.
    """
    chart = same_chart(pi, B)
    if B.degree != 2:
        raise ValueError("gauge needs a 2-form")
    n = chart.dim
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            # (pi# B_flat)(d_j) = pi#(i_{d_j} B)
            val = pi.sharp(interior(VectorField.coordinate(chart, j), B)).comps[i]
            row.append(val + (chart.one() if i == j else chart.zero()))
        grid.append(row)
    r = OneOneTensor(chart, grid)
    secs = []
    for i in range(n):
        a = PForm.coordinate(chart, i)
        v = pi.sharp(a)
        secs.append(GSection(v, a + interior(v, B)))
    return r, GFrame(secs)


# -- quasi variant ------------------------------------------------------------------


def quasi_nijenhuis_check(L: GFrame, r: OneOneTensor, phi: PForm) -> Verdict:
    """<a, torsion(Y, Z)> = -phi(X, Y, Z) for frame (X, a) and coordinate Y, Z."""
    same_chart(L.sections[0], r, phi)
    if phi.degree != 3:
        raise ValueError("need a 3-form")
    if not ext_d(phi).is_zero():
        raise PreconditionError("phi is not closed")
    chart = L.chart
    N = nijenhuis_torsion(r)
    return Verdict.first(
        (f"quasi[{a};{j},{k}]", two.get((j, k)) + iphi.get((j, k)))
        for a, s in enumerate(L.sections)
        for two, iphi in [(N.pair_form(s.cov), interior(s.vec, phi))]  # <a, N(., .)> and i_X phi
        for j, k in combinations(range(chart.dim), 2)
    )


# -- coordinate transfers -------------------------------------------------------------


def _span_basis(sections, chart, expected: int):
    """Greedy basis of the span of a section list over the function field:
    the sections at the first `expected` pivot columns."""
    cols = [s.components() for s in sections]
    m = FracMatrix(chart, [[c[i] for c in cols] for i in range(2 * chart.dim)])
    return [sections[c] for c in pivot_columns(m)[:expected]]


def _transfer_sections(L: GFrame, combos, kept, sub: Chart, restrict):
    """sum_a c_a s_a for each coefficient vector c in `combos`, over the
    sections s_a of L restricted to `sub` (the components at `kept`, each
    mapped by `restrict`); combos None stands for each section alone.  A
    section is restricted once, and only when some combination uses it: a
    section no combination uses may have a pole on a slice."""

    def restricted(s):
        return GSection(
            VectorField(sub, [restrict(s.vec.comps[i]) for i in kept]),
            PForm(sub, 1, {(pos,): restrict(s.cov.get((i,))) for pos, i in enumerate(kept)}),
        )

    if combos is None:
        return [restricted(s) for s in L.sections]
    used = {a for c in combos for a, e in enumerate(c) if not e.is_zero()}
    parts = [restricted(s) if a in used else None for a, s in enumerate(L.sections)]
    return [combination(parts, c, GSection.zero(sub)) for c in combos]


def backward_transfer(L: GFrame, slice_values: dict, r: OneOneTensor | None = None, samples: int = 3):
    """Pull back along the inclusion of a coordinate slice {x_j = c_j}.

    Returns (frame on the sliced chart, restricted tensor or None).  When r
    is supplied the slice must be r-invariant, asserted componentwise after
    substitution.  The sliced frame has full generic rank; its rank at
    sample points is left to `check_lagrangian`.
    """
    chart = L.chart
    _require(check_lagrangian(L, samples), "lagrangian")
    sliced_idx = sorted(chart.index(v) for v in slice_values)
    kept = [i for i in range(chart.dim) if i not in sliced_idx]
    if not kept:
        raise ValueError("slice keeps no variables")
    sub = Chart(chart.name + "_slice", tuple(chart.variables[i] for i in kept), chart.mode)
    assign = {v: c for v, c in slice_values.items()}

    def restrict(e: ScalarExpr) -> ScalarExpr:
        return e.substitute(assign).project(sub)

    r_C = None
    if r is not None:
        for i in sliced_idx:
            for j in kept:
                val = r.grid[i][j].substitute(assign)
                if not val.is_zero():
                    raise PreconditionError("slice is not r-invariant")
        r_C = OneOneTensor(sub, [[restrict(r.grid[i][j]) for j in kept] for i in kept])
    # sections of L tangent to the slice: kernel of sliced vector components
    rows = [[restrict(s.vec.comps[i]) for s in L.sections] for i in sliced_idx]
    combos = kernel_basis(FracMatrix(sub, rows)) if rows else None
    candidates = _transfer_sections(L, combos, kept, sub, restrict)
    basis = _span_basis(candidates, sub, len(kept))
    if len(basis) != len(kept):
        raise PreconditionError("backward transfer rank defect (non-clean slice)")
    return GFrame(basis), r_C


def forward_transfer(L: GFrame, retained, r: OneOneTensor | None = None, samples: int = 3):
    """Push forward along the projection onto the retained variables.

    Preconditions: frame components do not involve the dropped variables,
    and the dropped coordinate directions span the null distribution.
    """
    chart = L.chart
    _require(check_lagrangian(L, samples), "lagrangian")
    kept = [chart.index(v) for v in retained]
    dropped = [i for i in range(chart.dim) if i not in kept]
    sub = Chart(chart.name + "_quot", tuple(chart.variables[i] for i in kept), chart.mode)
    for s in L.sections:
        for e in s.components():
            if any(e.num.degree_in(i) > 0 or e.den.degree_in(i) > 0 for i in dropped):
                raise PreconditionError("frame depends on a projected-out variable")
    null = null_distribution(L, samples)
    if len(null.basis) != len(dropped):
        raise PreconditionError("projected-out directions do not span the null distribution")
    for i in dropped:
        if not section_in_span(GSection.from_vector(VectorField.coordinate(chart, i)), L, samples):
            raise PreconditionError("projected-out directions do not span the null distribution")
    r_Q = None
    if r is not None:
        for i in kept:
            for j in dropped:
                if not r.grid[i][j].is_zero():
                    raise PreconditionError("tensor does not descend along the projection")
            for j in kept:
                e = r.grid[i][j]
                if any(e.num.degree_in(d) > 0 or e.den.degree_in(d) > 0 for d in dropped):
                    raise PreconditionError("tensor does not descend along the projection")
        r_Q = OneOneTensor(sub, [[r.grid[i][j].project(sub) for j in kept] for i in kept])
    # sections with covector part annihilating the dropped directions push forward
    rows = [[s.cov.get((i,)) for s in L.sections] for i in dropped]
    combos = None
    if rows:
        combos = [[e.project(sub) for e in c] for c in kernel_basis(FracMatrix(chart, rows))]
    candidates = _transfer_sections(L, combos, kept, sub, lambda e: e.project(sub))
    basis = _span_basis(candidates, sub, len(kept))
    if len(basis) != len(kept):
        raise PreconditionError("forward transfer rank defect")
    return GFrame(basis), r_Q


# -- contraction- and double-type comparisons -------------------------------------------


def check_contraction_type(L: GFrame, r: OneOneTensor, samples: int = 3) -> Verdict:
    """(i) invariance, (ii) derivation-stability along pr_T(L) only,
    (iii) torsion vanishing on pr_T(L)."""
    inv = check_invariance(L, r, samples)
    if inv.status != PASS:
        return Verdict.fail(("invariance", "condition (i) fails"), *inv.witnesses)
    n = L.chart.dim
    # bigD is C^infinity-linear in X, so D_Y(s_a) = sum_k Y^k D_{d_k}(s_a);
    # <D_Y s_a, s_c> is skew in (a, c) once R(L) is in L
    rows, zero = [_coordinate_D(s, r) for s in L.sections[:-1]], GSection.zero(L.chart)
    stable = Verdict.first(
        (f"stability[{a};{b};{c}]", pairing(da, L.sections[c]))
        for b in range(n)
        for a in range(n - 1)
        for da in [combination(rows[a], L.sections[b].vec.comps, zero)]
        for c in range(a + 1, n)
    )
    if stable.status != PASS:
        return stable
    N = nijenhuis_torsion(r)  # skew, so read on a < b
    return Verdict.first(
        (f"torsion_on_range[{a},{b}]_{i}", val)
        for a, b in combinations(range(n), 2)
        for i, val in enumerate(N.apply(L.sections[a].vec, L.sections[b].vec).comps)
    )


def _involutive_under(L: GFrame, bracket) -> Verdict:
    """T(a, b, c) = <bracket(L, a, b), s_c> over a < b < c, for the bracket
    bracket(L, a, b) of s_a and s_b: totally skew on an isotropic frame, so
    the brackets with b = n - 1 are never formed."""
    n = L.chart.dim
    return Verdict.first(
        (f"T[{a},{b},{c}]", pairing(br, L.sections[c]))
        for a, b in combinations(range(n - 1), 2)
        for br in [bracket(L, a, b)]
        for c in range(b + 1, n)
    )


def check_double_type(L: GFrame, r: OneOneTensor, samples: int = 3) -> Verdict:
    """Torsion-free r, and L as well as its (1,0) transform involutive for both
    the standard and the double bracket."""
    _require(check_lagrangian(L, samples), "lagrangian")
    nij = check_nijenhuis(r)
    if nij.status != PASS:
        return Verdict.fail(("nijenhuis", "torsion does not vanish"), *nij.witnesses)
    try:
        L10 = hierarchy(L, r, 1, "n0", samples)
    except HierarchyKernelError:
        return Verdict.inconclusive(("transform", "(r, id) restricted to L is not injective"))
    def double(F, a, b):
        return double_bracket(F.sections[a], F.sections[b], r)

    for name, frame in (("L", L), ("L10", L10)):
        flag = check_lagrangian(frame, samples)
        if flag.status == FAIL:
            return Verdict.fail((name, "not lagrangian"))
        if flag.status != PASS:
            return Verdict.merge([(name, flag)])
        for bname, involutive in (
            ("courant", check_involutive),
            ("double", lambda F, _: _involutive_under(F, double)),
        ):
            v = involutive(frame, samples)
            if v.status != PASS:
                return Verdict.fail((f"{name}.{bname}", "involutivity fails"), *v.witnesses)
    return Verdict.ok()
