"""Tensor fields on a chart and the calculus used by every compatibility check.

Conventions (fixed once, used everywhere):

    * OneOneTensor r has grid r[i][j] = r^i_j with r(d_j) = r^i_j d_i, and the
      dual acts on covectors by (r* a)_j = a_i r^i_j.
    * Bivector components pi^{ij} are stored for i < j; the induced map is
      (pi# a)^j = a_i pi^{ij}, so pi = dx ^ dy sends dx to d_y and dy to -d_x.
    * PForm components are stored on strictly increasing index tuples; the
      flat map omega_b(X) = i_X omega.
    * lie_deriv_tensor follows (L_X r)^i_j = X^k dk r^i_j - r^k_j dk X^i
      + r^i_k dj X^k.

The two connection-like operators are defined by

    D_r(X, Y)      = (L_Y r)(X) = [Y, rX] - r([Y, X]),
    D_r_star(X, a) = L_X(r* a) - L_{rX} a = i_X d(r* a) - i_{rX} da.

Both are C-infinity-linear in X, so each is read from one closed form:
D_r(X, Y) applies the closed form of L_Y r above to X, and D_r_star(X, a)
is sum_k X^k D^{r,*}_{d_k} a with

    (D^{r,*}_{d_k} a)_j = sum_i (a_i (dk r^i_j - dj r^i_k) + r^i_j dk a_i - r^i_k di a_j).

The Lie derivative of a p-form (p >= 1) is read from

    (L_X w)_I = sum_k (X^k dk w_I + sum_s (d_{i_s} X^k) w_{I with k in slot s}),

and never from Cartan's formula L_X = i_X d + d i_X.  The bracket and Cartan
definitions live only in identities.py and the test suite, which compare
them with these closed forms, the degree-1 Leibniz rules, the duality
pairing and the torsion expressions the operators induce.  The Nijenhuis
torsion is read in closed form on coordinate fields,

    N^i_jk = sum_l (r^l_j dl r^i_k - r^l_k dl r^i_j + r^i_l (dk r^l_j - dj r^l_k)),

with each derivative of r taken once.
"""

from __future__ import annotations

from itertools import combinations

from .symbolic import Chart, ScalarExpr, dot, same_chart
from .symbolic.scalar import _kept, to_str


def _perm_sign_and_sorted(idx):
    """(sign, sorted tuple) for an index tuple; sign 0 when repeated."""
    if len(set(idx)) != len(idx):
        return 0, None
    idx = list(idx)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1, i, -1):
            if idx[j - 1] > idx[j]:
                idx[j - 1], idx[j] = idx[j], idx[j - 1]
                sign = -sign
    return sign, tuple(idx)


class VectorField:
    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        comps = tuple(comps)
        if len(comps) != chart.dim:
            raise ValueError("component count must equal chart dimension")
        self.chart = chart
        self.comps = comps

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField(chart, [chart.zero()] * chart.dim)

    @staticmethod
    def coordinate(chart: Chart, k: int) -> "VectorField":
        return VectorField(
            chart, [chart.one() if i == k else chart.zero() for i in range(chart.dim)]
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        same_chart(self, other)
        return VectorField(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, [-c for c in self.comps])

    def scale(self, f: ScalarExpr) -> "VectorField":
        return VectorField(self.chart, [f * c for c in self.comps])

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.chart.compatible(other.chart)
            and self.comps == other.comps
        )

    __hash__ = None

    def deriv(self, f: ScalarExpr) -> ScalarExpr:
        """X(f) = sum X^i d_i f."""
        return dot(self.chart, ((c, f.diff(i)) for i, c in enumerate(self.comps) if c))

    def __repr__(self):
        names = self.chart.variables
        return "VF(" + ", ".join(f"{to_str(c)}*d_{n}" for c, n in zip(self.comps, names)) + ")"


class PForm:
    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: dict):
        if degree < 0:
            raise ValueError("negative form degree")
        clean = {}
        if degree <= chart.dim:  # degree above dim forces the zero form
            for idx, val in comps.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != degree:
                    raise ValueError(f"component index {idx} not strictly increasing")
                if not val.is_zero():
                    clean[idx] = val
        self.chart = chart
        self.degree = degree
        self.comps = clean

    @staticmethod
    def zero(chart: Chart, degree: int) -> "PForm":
        return PForm(chart, degree, {})

    @staticmethod
    def from_scalar(f: ScalarExpr) -> "PForm":
        return PForm(f.chart, 0, {(): f})

    @staticmethod
    def coordinate(chart: Chart, k: int) -> "PForm":
        """The coordinate 1-form dx^k."""
        return PForm(chart, 1, {(k,): chart.one()})

    def get(self, idx) -> ScalarExpr:
        """Component for any index tuple, with the antisymmetry sign applied."""
        sign, key = _perm_sign_and_sorted(tuple(idx))
        if sign == 0:
            return self.chart.zero()
        val = self.comps.get(key)
        if val is None:
            return self.chart.zero()
        return val if sign == 1 else -val

    def is_zero(self) -> bool:
        return not self.comps

    def as_scalar(self) -> ScalarExpr:
        if self.degree != 0:
            raise ValueError("not a 0-form")
        return self.comps.get((), self.chart.zero())

    def __add__(self, other: "PForm") -> "PForm":
        same_chart(self, other)
        if self.degree != other.degree:
            raise ValueError("form degrees differ")
        out = dict(self.comps)
        for idx, val in other.comps.items():
            cur = out.get(idx)
            out[idx] = val if cur is None else cur + val
        return PForm(self.chart, self.degree, out)

    def __sub__(self, other: "PForm") -> "PForm":
        return self + (-other)

    def __neg__(self) -> "PForm":
        return PForm(self.chart, self.degree, {k: -v for k, v in self.comps.items()})

    def scale(self, f: ScalarExpr) -> "PForm":
        return PForm(self.chart, self.degree, {k: f * v for k, v in self.comps.items()})

    def __eq__(self, other):
        return (
            isinstance(other, PForm)
            and self.chart.compatible(other.chart)
            and self.degree == other.degree
            and self.comps == other.comps
        )

    __hash__ = None

    def __repr__(self):
        names = self.chart.variables
        bits = [
            f"{to_str(v)}*d{'^d'.join(names[i] for i in k)}" if k else to_str(v)
            for k, v in sorted(self.comps.items())
        ]
        return f"PForm{self.degree}(" + (" + ".join(bits) if bits else "0") + ")"


def combination(items, coeffs, zero):
    """sum_a c_a x_a for fields, forms or sections x_a, summed onto `zero`;
    terms with a zero coefficient are skipped."""
    return sum((x.scale(c) for x, c in zip(items, coeffs) if not c.is_zero()), zero)


class OneOneTensor:
    """An immutable (1,1)-tensor.  Its partial derivatives and its Nijenhuis
    torsion are kept by the memo rule (see `_kept`), so every check on the
    same tensor reads them; callers must not change what they hold."""

    __slots__ = ("chart", "grid", "_memo")

    def __init__(self, chart: Chart, grid):
        grid = tuple(tuple(row) for row in grid)
        if len(grid) != chart.dim or any(len(r) != chart.dim for r in grid):
            raise ValueError("grid must be n x n")
        self.chart = chart
        self.grid = grid
        self._memo = None

    @staticmethod
    def identity(chart: Chart) -> "OneOneTensor":
        return OneOneTensor(
            chart,
            [
                [chart.one() if i == j else chart.zero() for j in range(chart.dim)]
                for i in range(chart.dim)
            ],
        )

    @staticmethod
    def zero(chart: Chart) -> "OneOneTensor":
        z = chart.zero()
        return OneOneTensor(chart, [[z] * chart.dim for _ in range(chart.dim)])

    @staticmethod
    def scalar(chart: Chart, f: ScalarExpr) -> "OneOneTensor":
        return OneOneTensor(
            chart,
            [
                [f if i == j else chart.zero() for j in range(chart.dim)]
                for i in range(chart.dim)
            ],
        )

    @staticmethod
    def diagonal(chart: Chart, entries) -> "OneOneTensor":
        entries = list(entries)
        return OneOneTensor(
            chart,
            [
                [entries[i] if i == j else chart.zero() for j in range(chart.dim)]
                for i in range(chart.dim)
            ],
        )

    def apply(self, X: VectorField) -> VectorField:
        same_chart(self, X)
        return VectorField(self.chart, [dot(self.chart, zip(row, X.comps)) for row in self.grid])

    def dual(self, a: PForm) -> PForm:
        """r* a, i.e. (r* a)_j = a_i r^i_j (degree-1 forms only)."""
        same_chart(self, a)
        if a.degree != 1:
            raise ValueError("dual acts on 1-forms")
        n = self.chart.dim
        ai = [a.get((i,)) for i in range(n)]
        return PForm(self.chart, 1, {(j,): dot(self.chart, zip(ai, col)) for j, col in enumerate(zip(*self.grid))})

    def compose(self, other: "OneOneTensor") -> "OneOneTensor":
        same_chart(self, other)
        cols = list(zip(*other.grid))
        return OneOneTensor(self.chart, [[dot(self.chart, zip(row, col)) for col in cols] for row in self.grid])

    def power(self, k: int) -> "OneOneTensor":
        out = OneOneTensor.identity(self.chart)
        for _ in range(k):
            out = self.compose(out)
        return out

    def __add__(self, other: "OneOneTensor") -> "OneOneTensor":
        same_chart(self, other)
        return OneOneTensor(
            self.chart,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.grid, other.grid)
            ],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return OneOneTensor(self.chart, [[-c for c in row] for row in self.grid])

    def scale(self, f: ScalarExpr) -> "OneOneTensor":
        return OneOneTensor(self.chart, [[f * c for c in row] for row in self.grid])

    def trace(self) -> ScalarExpr:
        return sum(
            (self.grid[i][i] for i in range(self.chart.dim)), self.chart.zero()
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.grid for c in row)

    def __eq__(self, other):
        return (
            isinstance(other, OneOneTensor)
            and self.chart.compatible(other.chart)
            and self.grid == other.grid
        )

    __hash__ = None


class Bivector:
    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps: dict):
        clean = {}
        for idx, val in comps.items():
            i, j = idx
            if i >= j:
                raise ValueError("store bivector components with i < j")
            if not val.is_zero():
                clean[(i, j)] = val
        self.chart = chart
        self.comps = clean

    @staticmethod
    def zero(chart: Chart) -> "Bivector":
        return Bivector(chart, {})

    def get(self, i: int, j: int) -> ScalarExpr:
        if i == j:
            return self.chart.zero()
        if i < j:
            return self.comps.get((i, j), self.chart.zero())
        val = self.comps.get((j, i))
        return self.chart.zero() if val is None else -val

    def sharp(self, a: PForm) -> VectorField:
        """pi#(a)^j = a_i pi^{ij}."""
        same_chart(self, a)
        if a.degree != 1:
            raise ValueError("sharp acts on 1-forms")
        n = self.chart.dim
        ai = [a.get((i,)) for i in range(n)]
        return VectorField(self.chart, [dot(self.chart, ((ai[i], self.get(i, j)) for i in range(n))) for j in range(n)])

    def sharp_matrix(self) -> OneOneTensor:
        """Matrix P with (pi# a)^i = P^i_j a_j, as an endomorphism grid."""
        n = self.chart.dim
        return OneOneTensor(
            self.chart, [[self.get(j, i) for j in range(n)] for i in range(n)]
        )

    def __add__(self, other: "Bivector") -> "Bivector":
        same_chart(self, other)
        out = dict(self.comps)
        for k, v in other.comps.items():
            cur = out.get(k)
            out[k] = v if cur is None else cur + v
        return Bivector(self.chart, out)

    def __neg__(self):
        return Bivector(self.chart, {k: -v for k, v in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f: ScalarExpr) -> "Bivector":
        return Bivector(self.chart, {k: f * v for k, v in self.comps.items()})

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        return (
            isinstance(other, Bivector)
            and self.chart.compatible(other.chart)
            and self.comps == other.comps
        )

    __hash__ = None


class CovFormValued:
    """A section of T*M tensor wedge^{p-1} T*M: first slot free, rest skew."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: dict):
        clean = {}
        for key, val in comps.items():
            first, rest = key
            rest = tuple(rest)
            if list(rest) != sorted(rest) or len(set(rest)) != len(rest):
                raise ValueError("trailing indices must be strictly increasing")
            if len(rest) != degree - 1:
                raise ValueError("wrong trailing arity")
            if not val.is_zero():
                clean[(first, rest)] = val
        self.chart = chart
        self.degree = degree
        self.comps = clean

    def get(self, first: int, rest) -> ScalarExpr:
        sign, key = _perm_sign_and_sorted(tuple(rest))
        if sign == 0:
            return self.chart.zero()
        val = self.comps.get((first, key))
        if val is None:
            return self.chart.zero()
        return val if sign == 1 else -val

    def is_zero(self) -> bool:
        return not self.comps

    def __sub__(self, other: "CovFormValued") -> "CovFormValued":
        same_chart(self, other)
        out = dict(self.comps)
        for k, v in other.comps.items():
            cur = out.get(k)
            out[k] = -v if cur is None else cur - v
        return CovFormValued(self.chart, self.degree, out)

    def __eq__(self, other):
        return (
            isinstance(other, CovFormValued)
            and self.chart.compatible(other.chart)
            and self.degree == other.degree
            and self.comps == other.comps
        )

    __hash__ = None

    def is_skew(self) -> bool:
        """True when the first slot is antisymmetric against the rest."""
        n = self.chart.dim
        for idx in combinations(range(n), self.degree):
            # all splits of a strictly increasing tuple must agree up to sign
            base = self.get(idx[0], idx[1:])
            for pos in range(1, self.degree):
                rest = idx[:pos] + idx[pos + 1 :]
                if (self.get(idx[pos], rest) - ((-1) ** pos) * base).is_zero():
                    continue
                return False
        # mixed components with a repeated index must vanish
        for (first, rest), val in self.comps.items():
            if first in rest and not val.is_zero():
                return False
        return True

    def to_form(self) -> PForm:
        if not self.is_skew():
            raise ValueError("tensor is not antisymmetric")
        n = self.chart.dim
        out = {}
        for idx in combinations(range(n), self.degree):
            out[idx] = self.get(idx[0], idx[1:])
        return PForm(self.chart, self.degree, out)


def form_as_covform(w: PForm) -> CovFormValued:
    """Split the first slot of a p-form (p >= 1)."""
    if w.degree < 1:
        raise ValueError("need degree >= 1")
    n = w.chart.dim
    out = {}
    for first in range(n):
        for rest in combinations(range(n), w.degree - 1):
            val = w.get((first,) + rest)
            if not val.is_zero():
                out[(first, rest)] = val
    return CovFormValued(w.chart, w.degree, out)


class VectorValuedTwoForm:
    """N^i_{jk}, antisymmetric in (j, k); e.g. the torsion of a (1,1)-tensor."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps: dict):
        clean = {}
        for (i, j, k), val in comps.items():
            if j >= k:
                raise ValueError("store components with j < k")
            if not val.is_zero():
                clean[(i, j, k)] = val
        self.chart = chart
        self.comps = clean

    def get(self, i: int, j: int, k: int) -> ScalarExpr:
        if j == k:
            return self.chart.zero()
        if j < k:
            return self.comps.get((i, j, k), self.chart.zero())
        val = self.comps.get((i, k, j))
        return self.chart.zero() if val is None else -val

    def is_zero(self) -> bool:
        return not self.comps

    def apply(self, X: VectorField, Y: VectorField) -> VectorField:
        same_chart(self, X, Y)
        x, y = X.comps, Y.comps
        # N^i_jk (X^j Y^k - X^k Y^j) over the stored j < k
        return VectorField(self.chart, [
            dot(self.chart, [(val, x[j] * y[k] - x[k] * y[j]) for (h, j, k), val in self.comps.items() if h == i])
            for i in range(self.chart.dim)
        ])

    def pair_form(self, a: PForm) -> PForm:
        """The 2-form <a, N(., .)> for a 1-form a (the dual torsion on a)."""
        same_chart(self, a)
        n = self.chart.dim
        ai = [a.get((i,)) for i in range(n)]
        out = {}
        for j, k in combinations(range(n), 2):
            out[(j, k)] = dot(self.chart, ((ai[i], self.get(i, j, k)) for i in range(n)))
        return PForm(self.chart, 2, out)


# -- Cartan calculus ----------------------------------------------------------


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i)."""
    chart = same_chart(X, Y)
    return VectorField(chart, [X.deriv(b) - Y.deriv(a) for a, b in zip(X.comps, Y.comps)])


def ext_d(w: PForm) -> PForm:
    chart = w.chart
    n = chart.dim
    out: dict = {}
    for idx, val in w.comps.items():
        for v in range(n):
            if v in idx:
                continue
            dval = val.diff(v)
            if dval.is_zero():
                continue
            sign, key = _perm_sign_and_sorted((v,) + idx)
            contrib = dval if sign == 1 else -dval
            cur = out.get(key)
            out[key] = contrib if cur is None else cur + contrib
    return PForm(chart, w.degree + 1, out)


def interior(X: VectorField, w: PForm) -> PForm:
    chart = same_chart(X, w)
    if w.degree == 0:
        raise ValueError("interior product needs degree >= 1")
    out = {
        rest: dot(chart, ((xv, w.get((v,) + rest)) for v, xv in enumerate(X.comps) if xv))
        for rest in combinations(range(chart.dim), w.degree - 1)
    }
    return PForm(chart, w.degree - 1, out)


def wedge(a: PForm, b: PForm) -> PForm:
    chart = same_chart(a, b)
    out: dict = {}
    for ia, va in a.comps.items():
        for ib, vb in b.comps.items():
            sign, key = _perm_sign_and_sorted(ia + ib)
            if sign == 0:
                continue
            term = va * vb
            if sign < 0:
                term = -term
            cur = out.get(key)
            out[key] = term if cur is None else cur + term
    return PForm(chart, a.degree + b.degree, out)


def lie_deriv_form(X: VectorField, w: PForm) -> PForm:
    """L_X w in the closed form of the module docstring, one `dot` per
    component; no partial is taken for a k with X^k = 0, and L_X 0 = 0."""
    chart = same_chart(X, w)
    if w.degree == 0:
        return PForm.from_scalar(X.deriv(w.as_scalar()))
    if not w.comps:
        return w
    x = X.comps
    live = [k for k in range(chart.dim) if x[k]]
    out = {}
    for idx in combinations(range(chart.dim), w.degree):
        val = w.comps.get(idx)
        pairs = [(x[k], val.diff(k)) for k in live] if val is not None else []
        for s, l in enumerate(idx):
            for k in live:
                other = w.get(idx[:s] + (k,) + idx[s + 1 :])
                if other:
                    pairs.append((x[k].diff(l), other))
        out[idx] = dot(chart, pairs)
    return PForm(chart, w.degree, out)


def lie_deriv_tensor(X: VectorField, r: OneOneTensor) -> OneOneTensor:
    chart = same_chart(X, r)
    ix, g, x = range(chart.dim), r.grid, X.comps
    live = [k for k in ix if x[k]]
    ng = [[-c for c in row] for row in g]

    def entry(i, j):
        pairs = [p for k in live for p in ((x[k], g[i][j].diff(k)), (g[i][k], x[k].diff(j)))]
        if x[i]:
            pairs += [(ng[k][j], x[i].diff(k)) for k in ix]
        return dot(chart, pairs)

    return OneOneTensor(chart, [[entry(i, j) for j in ix] for i in ix])


def scalar_d(f: ScalarExpr) -> PForm:
    chart = f.chart
    return PForm(chart, 1, {(k,): f.diff(k) for k in range(chart.dim)})


# -- the degree-1 derivation operators ----------------------------------------


def D_r(X: VectorField, Y: VectorField, r: OneOneTensor) -> VectorField:
    """D^r_X(Y) = (L_Y r)(X)."""
    same_chart(X, Y, r)
    return lie_deriv_tensor(Y, r).apply(X)


def D_r_star(X: VectorField, a: PForm, r: OneOneTensor) -> PForm:
    """D^{r,*}_X(a) = sum_k X^k D^{r,*}_{d_k}(a) for a 1-form a."""
    chart = same_chart(X, a, r)
    if a.degree != 1:
        raise ValueError("D_r_star acts on 1-forms")
    cols = zip(*_D_r_star_rows(a, r))
    return PForm(chart, 1, {(j,): dot(chart, zip(X.comps, col)) for j, col in enumerate(cols)})


def _D_r_star_rows(a: PForm, r: OneOneTensor) -> list:
    """rows[k][j] = (D^{r,*}_{d_k} a)_j by the closed form of the module
    docstring, with each derivative of r and a taken once."""
    chart = r.chart
    ix, g, dr = range(chart.dim), r.grid, _partials(r)
    av = [a.get((i,)) for i in ix]
    da = [[c.diff(l) for l in ix] for c in av]  # da[i][l] = dl a_i
    ng, na = [[-c for c in row] for row in g], [-c for c in av]
    return [
        [
            dot(chart, [
                p
                for i in ix
                for p in ((av[i], dr[k][i][j]), (na[i], dr[j][i][k]), (g[i][j], da[i][k]), (ng[i][k], da[j][i]))
            ])
            for j in ix
        ]
        for k in ix
    ]


def form_r(w: PForm, r: OneOneTensor) -> CovFormValued:
    """omega_r(X1; X2..Xp) = omega(r X1, X2, .., Xp)."""
    chart = same_chart(w, r)
    if w.degree < 1:
        raise ValueError("need degree >= 1")
    n = chart.dim
    out = {
        (first, rest): dot(chart, ((r.grid[k][first], w.get((k,) + rest)) for k in range(n)))
        for first in range(n)
        for rest in combinations(range(n), w.degree - 1)
    }
    return CovFormValued(chart, w.degree, out)


def _partials(r: OneOneTensor) -> list:
    """dr[l][i][j] = d_l r^i_j, each derivative taken once and kept on r."""
    return _kept(r, "partials", _grid_partials, r.grid, r.chart.dim)


def _grid_partials(grid, n: int) -> list:
    return [[[c.diff(l) for c in row] for row in grid] for l in range(n)]


def nijenhuis_torsion(r: OneOneTensor) -> VectorValuedTwoForm:
    """Torsion on coordinate fields, [r dj, r dk] - r([r dj, dk]) - r([dj, r dk]),
    in the closed form of the module docstring; tensoriality makes this complete.
    Formed once per tensor and kept on it."""
    return _kept(r, "torsion", _torsion, r)


def _torsion(r: OneOneTensor) -> VectorValuedTwoForm:
    chart = r.chart
    n = chart.dim
    g, dr = r.grid, _partials(r)
    ng = [[-c for c in row] for row in g]
    out = {}
    for j, k in combinations(range(n), 2):
        for i in range(n):
            terms = (
                ((g[l][j], dr[l][i][k]), (ng[l][k], dr[l][i][j]), (g[i][l], dr[k][l][j]), (ng[i][l], dr[j][l][k]))
                for l in range(n)
            )
            out[(i, j, k)] = dot(chart, [p for four in terms for p in four])
    return VectorValuedTwoForm(chart, out)


def deformed_bracket(X: VectorField, Y: VectorField, r: OneOneTensor) -> VectorField:
    """[X,Y]_r = [rX, Y] + [X, rY] - r([X, Y])."""
    same_chart(X, Y, r)
    return (
        lie_bracket(r.apply(X), Y)
        + lie_bracket(X, r.apply(Y))
        - r.apply(lie_bracket(X, Y))
    )


def schouten_bivector(p: Bivector, q: Bivector) -> dict:
    """Coordinate Schouten bracket of two bivectors as trivector components.

    Returned as {(i<j<k): ScalarExpr}; the normalization is fixed but only
    vanishing matters to callers ([pi,pi] = 0 iff pi is Poisson).
    """
    chart = same_chart(p, q)
    n = chart.dim

    def half(a: Bivector, b: Bivector, i, j, k):
        cyclic = ((i, j, k), (j, k, i), (k, i, j))
        return dot(chart, ((a.get(l, u), b.get(v, w).diff(l)) for l in range(n) for u, v, w in cyclic))

    out = {}
    for i, j, k in combinations(range(n), 3):
        val = half(p, q, i, j, k) + half(q, p, i, j, k)
        if not val.is_zero():
            out[(i, j, k)] = val
    return out


def schouten_is_zero(tri: dict) -> bool:
    return all(v.is_zero() for v in tri.values())


def is_poisson(p: Bivector) -> bool:
    return schouten_is_zero(schouten_bivector(p, p))


# -- tangent and cotangent lifts ------------------------------------------------


def tangent_chart(chart: Chart) -> Chart:
    return Chart(
        chart.name + "_tg",
        chart.variables + tuple("v_" + v for v in chart.variables),
        chart.mode,
    )


def cotangent_chart(chart: Chart) -> Chart:
    return Chart(
        chart.name + "_cotg",
        chart.variables + tuple("p_" + v for v in chart.variables),
        chart.mode,
    )


def tangent_lift(r: OneOneTensor):
    """Lift to the tangent chart (x, v), assembled from its defining relations.

    The base block and the fiber block are forced to be r by linearity and by
    the vertical-lift relation; the mixed block is linear in v with
    coefficients D^r_{d_j}(d_k) = dk r^i_j, so its (i, j) entry is
    sum_k v^k dk r^i_j.  Returns (lift, doubled chart).
    """
    chart = r.chart
    n = chart.dim
    big = tangent_chart(chart)
    z = big.zero()
    grid = [[z for _ in range(2 * n)] for _ in range(2 * n)]
    v, dr = [big.var(name) for name in big.variables[n:]], _partials(r)
    for i in range(n):
        for j in range(n):
            grid[i][j] = grid[n + i][n + j] = r.grid[i][j].extend(big)
            grid[n + i][j] = dot(big, [(v[k], dr[k][i][j].extend(big)) for k in range(n)])
    return OneOneTensor(big, grid), big


def cotangent_lift(r: OneOneTensor):
    """Lift to the cotangent chart (x, p), read from the defining relation
    against the canonical symplectic form (no transcribed formulas).

    With phi = r* on T*M and J its Jacobian, the relation
    i_{lift(U)} omega = i_U (phi* omega) reads  Omega^T . lift = M^T  with
    M = J^T Omega J.  For omega = sum dx^i ^ dp_i, (Omega^T)^-1 = Omega, so
    lift = Omega . M^T.  Returns (lift, doubled chart).
    """
    chart = r.chart
    n = chart.dim
    big = cotangent_chart(chart)
    z = big.zero()
    # Jacobian of phi(x, p) = (x, r*(x) p)
    jac = [[z for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        jac[i][i] = big.one()
    pvars = [big.var("p_" + v) for v in chart.variables]
    for j in range(n):  # output component (r* p)_j
        for k in range(n):  # against x^k
            jac[n + j][k] = dot(big, ((pvars[i], r.grid[i][j].diff(k).extend(big)) for i in range(n)))
        for i in range(n):  # against p_i
            jac[n + j][n + i] = r.grid[i][j].extend(big)
    m = 2 * n
    # M = J^T Omega J: M[a][b] = omega(J e_a, J e_b)
    mjj = [
        [
            dot(big, [p for i in range(n) for p in ((jac[i][a], jac[n + i][b]), (-jac[n + i][a], jac[i][b]))])
            for b in range(m)
        ]
        for a in range(m)
    ]
    # row i of Omega picks row n + i of M^T, row n + i picks minus row i
    grid = [[mjj[b][n + i] for b in range(m)] for i in range(n)]
    grid += [[-mjj[b][i] for b in range(m)] for i in range(n)]
    return OneOneTensor(big, grid), big


def vertical_lift_vf(u: VectorField, big: Chart) -> VectorField:
    """u^ = u^i(x) d/d(fiber_i) on a doubled chart."""
    chart = u.chart
    n = chart.dim
    comps = [big.zero()] * n + [c.extend(big) for c in u.comps]
    return VectorField(big, comps)


def vertical_lift_form(a: PForm, big: Chart) -> VectorField:
    """The vertical lift of a 1-form on the cotangent chart: a_i(x) d/dp_i."""
    chart = a.chart
    n = chart.dim
    comps = [big.zero()] * n + [a.get((k,)).extend(big) for k in range(n)]
    return VectorField(big, comps)
