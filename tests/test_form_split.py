"""The first-slot split of forms, omega_r and the interior product against
their definitions.

`tensor.split_first(w, r)` reads {(i, I): w(r d_i, d_I)} off the nonzero
components of w, `tensor.form_r` calls omega_r skew when the form rebuilt
from its entries with i < I[0] splits back into all of them, and
`tensor.interior` sums over the nonzero components of w too.  The dense
definitions they replace are kept here as oracles, and the other test
modules read omega_r from them, never from the package's split:

* the dense split is sum_k r^k_i w((k,) + I) over every i and every strictly
  increasing I;
* a split is skew when, for each strictly increasing index tuple, the split
  at each of its positions is the split at its first one times the sign of
  that position, and no nonzero entry repeats its first index in the rest;
* (i_X w)_I = sum_v X^v w((v,) + I) over every strictly increasing I.

Forms of degree 1-3 are drawn on 2- to 4-charts over Q and Q(i), with
r = f id, r = J (the standard complex structure, on even charts) and a drawn
r, so non-skew omega_r occur; the zero form and a form of degree above the
chart dimension are examples.
"""

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_closed_forms import SETTINGS, forms, scalars

from dngeo.dirac import FAIL, Verdict, check_form_compat
from dngeo.holomorphic import standard_complex_structure
from dngeo.symbolic import Chart
from dngeo.tensor import OneOneTensor, PForm, VectorField, ext_d, form_r, interior, split_first

CHARTS = [
    Chart("R2", ("x", "y")),
    Chart("R3", ("x", "y", "z")),
    Chart("R4", ("x", "y", "z", "w")),
    Chart("C2", ("z", "w"), "complex"),
    Chart("C3", ("z", "w", "u"), "complex"),
    Chart("C4", ("z", "w", "u", "v"), "complex"),
]


def dense_split(w: PForm, r: OneOneTensor | None = None) -> dict:
    """{(i, I): sum_k r^k_i w((k,) + I)} over every (i, I), nonzero values
    only; r = None is the identity."""
    chart = w.chart
    n = chart.dim
    r = OneOneTensor.identity(chart) if r is None else r
    out = {}
    for i in range(n):
        for rest in combinations(range(n), w.degree - 1):
            val = sum((r.grid[k][i] * w.get((k,) + rest) for k in range(n)), chart.zero())
            if not val.is_zero():
                out[i, rest] = val
    return out


def dense_is_skew(split: dict, chart: Chart, degree: int) -> bool:
    """True when the first slot of the split is antisymmetric against the rest."""
    zero = chart.zero()
    for idx in combinations(range(chart.dim), degree):
        # all splits of a strictly increasing tuple must agree up to sign
        base = split.get((idx[0], idx[1:]), zero)
        for pos in range(1, degree):
            val = split.get((idx[pos], idx[:pos] + idx[pos + 1 :]), zero)
            if not (val - (base if pos % 2 == 0 else -base)).is_zero():
                return False
    # mixed components with a repeated index must vanish
    return not any(first in rest for first, rest in split)


def dense_form_r(w: PForm, r: OneOneTensor) -> PForm | None:
    """omega_r as a p-form read off the dense split, or None when it is not skew."""
    chart = w.chart
    split = dense_split(w, r)
    if not dense_is_skew(split, chart, w.degree):
        return None
    comps = {idx: split.get((idx[0], idx[1:]), chart.zero()) for idx in combinations(range(chart.dim), w.degree)}
    return PForm(chart, w.degree, comps)


def split_difference(a: dict, b: dict, chart: Chart) -> dict:
    """a - b over the keys of either, nonzero values only."""
    zero = chart.zero()
    diff = {key: a.get(key, zero) - b.get(key, zero) for key in a.keys() | b.keys()}
    return {key: val for key, val in diff.items() if not val.is_zero()}


def named(label: str, split: dict):
    """(label + key, value) for each entry of a split, in key order."""
    return ((f"{label}{key}", split[key]) for key in sorted(split))


def dense_form_compat(omega: PForm, r: OneOneTensor) -> Verdict:
    """`check_form_compat` read from the dense split: omega_r skew, then the
    first nonzero entry of d(omega_r) - (d omega)_r in key order."""
    wr = dense_form_r(omega, r)
    if wr is None:
        return Verdict.fail(("omega_r", "not antisymmetric"))
    diff = split_difference(dense_split(ext_d(wr)), dense_split(ext_d(omega), r), omega.chart)
    return Verdict.first(named("d(omega_r)-(d omega)_r", diff))


def dense_interior(X: VectorField, w: PForm) -> PForm:
    chart = X.chart
    comps = {
        rest: sum((x * w.get((v,) + rest) for v, x in enumerate(X.comps)), chart.zero())
        for rest in combinations(range(chart.dim), w.degree - 1)
    }
    return PForm(chart, w.degree - 1, comps)


@st.composite
def cases(draw):
    chart = draw(st.sampled_from(CHARTS))
    n = chart.dim
    w = draw(forms(chart, draw(st.integers(1, 3))))
    kind = draw(st.sampled_from(("f id", "drawn") + (("J",) if n % 2 == 0 else ())))
    if kind == "f id":
        r = OneOneTensor.scalar(chart, draw(scalars(chart)))
    elif kind == "J":
        r = standard_complex_structure(chart).r
    else:
        r = OneOneTensor(chart, [[draw(scalars(chart)) for _ in range(n)] for _ in range(n)])
    X = VectorField(chart, [draw(scalars(chart)) for _ in range(n)])
    return w, r, X


def _example(chart: Chart, degree: int):
    x = chart.var(chart.variables[0])
    return PForm.zero(chart, degree), standard_complex_structure(chart).r, VectorField(chart, [x] * chart.dim)


def test_the_split_and_omega_r_match_the_dense_oracle():
    seen, verdicts = set(), set()

    @settings(SETTINGS, max_examples=100)
    @given(cases())
    @example(_example(CHARTS[2], 2))  # the zero form
    @example(_example(CHARTS[3], 3))  # degree above dim
    def check(case):
        w, r, X = case
        chart = w.chart
        assert split_first(w) == dense_split(w)
        assert split_first(w, r) == dense_split(w, r)
        got, expect = form_r(w, r), dense_form_r(w, r)
        assert (got is None) is (expect is None)
        assert got is None or got == expect
        assert interior(X, w) == dense_interior(X, w)
        verdict = check_form_compat(w, r)
        assert verdict == dense_form_compat(w, r)
        seen.add(("skew" if expect is not None else "not skew", chart.mode))
        label = verdict.witnesses[0][0] if verdict.witnesses else "pass"
        verdicts.add(label if label in ("pass", "omega_r") else "d(omega_r)-(d omega)_r")

    check()
    assert seen == {(verdict, mode) for verdict in ("skew", "not skew") for mode in ("real", "complex")}
    assert verdicts == {"pass", "omega_r", "d(omega_r)-(d omega)_r"}


def test_a_rotation_of_the_area_form_is_not_skew():
    ch = CHARTS[0]
    J = OneOneTensor(ch, [[ch.zero(), -ch.one()], [ch.one(), ch.zero()]])
    w = PForm(ch, 2, {(0, 1): ch.var("x")})
    assert form_r(w, J) is None is dense_form_r(w, J)
    assert check_form_compat(w, J).status == FAIL
