"""A scene forms each piece of geometry once: the Nijenhuis torsion of each
tensor, the coordinate rows of the combined derivation of each
(section, tensor) pair, the Courant involutivity of each frame, the Courant
bracket of each pair of its sections and the (r, r*)-invariance verdict of
each (frame, tensor) pair, whichever checks read them.  The kept values equal
freshly formed ones, and a memo never changes an answer: every report of the
front end on objects that earlier runs have warmed is byte-identical to the
report on a fresh parse."""

import contextlib
import gc
import io
from dataclasses import replace
from pathlib import Path

import pytest

import dngeo.algebroid as algebroid
import dngeo.cli as cli
import dngeo.courant as courant
import dngeo.dirac as dirac
import dngeo.tensor as tensor
from dngeo.courant import GSection, _coordinate_D
from dngeo.dirac import INCONCLUSIVE, check_lagrangian, make_graph_poisson
from dngeo.scene import CHECKS, parse_scene, run_scene
from dngeo.symbolic import Chart
from dngeo.tensor import Bivector, OneOneTensor, PForm, VectorField, _partials, nijenhuis_torsion
from test_golden import CASES

ROOT = Path(__file__).resolve().parent.parent

# the scalar hierarchy with a (zero) 3-form: every check passes
SCENE = """\
chart R2 x y
bivector pi = 1 2 1
oneone r = x, 0 ; 0, x
form phi 3 =
frame L = poisson pi
check dirac_nijenhuis L r
check quasi L r phi
check algebroid L r
check double_type L r
check contraction_type L r
"""

# every check kind on shared objects, passing and failing; S is not
# lagrangian, P has a pole at every sample point, so its sampled rank is None
# and its checks are inconclusive, and V is lagrangian but drops rank at the
# first sample point, so its verdict depends on the sample count
EVERY_KIND = """\
chart R2 x y
bivector pi = 1 2 1
bivector px = 1 2 x
bivector pp = 1 2 1/(y - x - 1)
oneone r = x, 0 ; 0, x
oneone t = y, x ; 0, y
oneone J = 0, -1 ; 1, 0
form om 2 = 1 2 x
form zero 2 = 1 2 0
form phi 3 =
form dx 1 = 1 1
form dy 1 = 2 1
vector E1 = 1 ; 0
vector v = x - 1 ; 0
vector E2 = 0 ; 1
frame L = poisson pi
frame M = poisson px
frame P = poisson pp
frame G = presymplectic om
frame T = sections E1 0 ; E2 0
frame S = sections E1 0 ; E1 dx
frame V = sections v 0 ; 0 dy
check lagrangian L
check lagrangian S
check lagrangian P
check involutive G
check dirac M
check dirac P
check dirac V
check nijenhuis r
check nijenhuis t
check invariance L t
check d_stability G r
check dirac_nijenhuis L r
check dirac_nijenhuis S r
check form_compat om r
check quasi L r phi
check concur L M
check contraction_type G t
check double_type L r
check double_type P r
check holomorphic_dirac T J
check holo_form zero zero J
check traces L r 3
check algebroid L r
check algebroid T t
check algebroid S
"""


# every check that reads the Courant involutivity of L, which also decides
# the axioms of its algebroid (a Dirac structure is a Lie algebroid)
ONE_FRAME = """\
chart R2 x y
bivector pi = 1 2 x
oneone r = x, 0 ; 0, x
frame L = poisson pi
check involutive L
check dirac L
check dirac_nijenhuis L r
check double_type L r
check algebroid L r
"""

# pi = f d1^d2 + x2 k d2^d3 with f = x1 and k = 1 has Jacobiator f * k != 0:
# the graph is lagrangian but not involutive
NOT_INVOLUTIVE = """\
chart R3 x1 x2 x3
bivector pi = 1 2 x1 ; 2 3 x2
oneone r = x1, 0, 0 ; 0, x1, 0 ; 0, 0, x1
frame L = poisson pi
check involutive L
check dirac L
check dirac_nijenhuis L r
check double_type L r
check algebroid L r
"""


# every check that reads the invariance verdict of (L, r)
INVARIANCE = """\
chart R2 x y
bivector pi = 1 2 1
oneone r = x, 0 ; 0, x
frame L = poisson pi
check invariance L r
check d_stability L r
check dirac_nijenhuis L r
check contraction_type L r
"""


R3 = Chart("R3", ("x1", "x2", "x3"))


def fresh_tensor(r):
    return OneOneTensor(r.chart, r.grid)


def test_a_scene_forms_one_torsion_per_tensor_and_one_row_set_per_pair(monkeypatch):
    torsions, rows = [], []
    formed_torsion, formed_rows = tensor._torsion, courant._coordinate_rows

    def torsion(r):
        torsions.append(r)
        return formed_torsion(r)

    def coordinate_rows(s, r):
        rows.append((s, r))
        return formed_rows(s, r)

    monkeypatch.setattr(tensor, "_torsion", torsion)
    monkeypatch.setattr(courant, "_coordinate_rows", coordinate_rows)
    scene = parse_scene(SCENE)
    assert [rec.verdict.status for rec in run_scene(scene)] == ["pass"] * 5
    r, L = scene.oneones["r"], scene.frames["L"]
    # the checks read the torsion of r five times, and rows on the two
    # (section, r) pairs of the sections of L only: the algebroid reads the
    # derivation of its anchors in closed form, and forms no rows for them
    assert torsions == [r]
    assert len(rows) == 2
    assert sum(s is t for s, _ in rows for t in L.sections) == 2
    assert all(key is r for _, key in rows)
    assert len({id(s) for s, _ in rows}) == len(rows)
    monkeypatch.undo()
    assert nijenhuis_torsion(r).comps == tensor._torsion(fresh_tensor(r)).comps
    for s, _ in rows:
        assert _coordinate_D(s, r) == courant._coordinate_rows(GSection(s.vec, s.cov), fresh_tensor(r))


def test_a_scene_forms_the_courant_involutivity_of_a_frame_once(monkeypatch):
    formed, decided = [], []
    under, decide = dirac._involutive_under, algebroid._decide_axioms
    monkeypatch.setattr(dirac, "_involutive_under", lambda F, bracket: formed.append((F, bracket)) or under(F, bracket))
    monkeypatch.setattr(algebroid, "_decide_axioms", lambda A: decided.append(A) or decide(A))
    scene = parse_scene(ONE_FRAME)
    assert [rec.verdict.status for rec in run_scene(scene)] == ["pass"] * 5
    # L once, and the (1,0) transform that double_type builds once; the
    # double bracket is formed on each of the two after its Courant pass
    courant_frames = [F for F, bracket in formed if bracket is dirac._frame_bracket]
    assert sum(F is scene.frames["L"] for F in courant_frames) == 1
    assert len(courant_frames) == len({id(F) for F in courant_frames}) == 2
    assert len(formed) == 4
    assert decided == []


def test_a_scene_forms_one_invariance_verdict_per_frame_and_tensor(monkeypatch):
    applied = []
    apply = dirac.apply_rr
    monkeypatch.setattr(dirac, "apply_rr", lambda s, r: applied.append((s, r)) or apply(s, r))
    scene = parse_scene(INVARIANCE)
    assert [rec.verdict.status for rec in run_scene(scene)] == ["pass"] * 4
    r, L = scene.oneones["r"], scene.frames["L"]
    # (r, r*) is applied to each of the n sections once, by the one formation
    assert [s for s, _ in applied] == list(L.sections)
    assert all(key is r for _, key in applied)
    kept_r, verdict = L._memo[("invariance", id(r))]
    assert kept_r is r and dirac.check_invariance(L, r) is verdict
    assert len(applied) == 2
    # an equal tensor is another key, and forms its verdict again
    twin = fresh_tensor(r)
    assert dirac.check_invariance(L, twin) == verdict and len(applied) == 4
    assert L._memo[("invariance", id(twin))][0] is twin


def test_the_algebroid_reads_the_brackets_the_involutivity_pass_kept(monkeypatch):
    brackets = []
    formed = dirac.courant_bracket
    monkeypatch.setattr(dirac, "courant_bracket", lambda s1, s2: brackets.append((s1, s2)) or formed(s1, s2))
    # the graph of pi = x1 d1^d2 on R3: pi is Poisson, so its graph is Dirac
    L = make_graph_poisson(Bivector(R3, {(0, 1): R3.var("x1")}))
    assert dirac.check_involutive(L).status == "pass"
    # the pass forms the brackets with b < n - 1 only: (0, 1) of n = 3
    assert brackets == [(L.sections[0], L.sections[1])]
    algebroid.dirac_to_algebroid(L)
    # the solve reads that one and forms the two left, each once
    pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
    assert brackets == [(L.sections[a], L.sections[b]) for a, b in pairs]
    assert all(L._memo[("bracket", a, b)] == formed(L.sections[a], L.sections[b]) for a, b in pairs)


def test_the_memos_hold_their_key_and_answer_again_only_for_it():
    ch = Chart("R2", ("x", "y"))
    x, y = ch.var("x"), ch.var("y")
    r = OneOneTensor(ch, [[x * y, x], [ch.one(), y * y]])
    s = GSection(VectorField(ch, [y, x * x]), PForm(ch, 1, {(0,): x, (1,): y}))
    assert nijenhuis_torsion(r) is nijenhuis_torsion(r)
    assert _partials(r) is _partials(r)
    assert _coordinate_D(s, r) is _coordinate_D(s, r)
    # an equal tensor is another key: its rows are formed for it, and equal
    twin = fresh_tensor(r)
    assert _coordinate_D(s, twin) is not _coordinate_D(s, r)
    assert _coordinate_D(s, twin) == _coordinate_D(s, r)
    held = [t for t, _ in s._memo.values()]
    assert held[0] is r and held[1] is twin and list(s._memo) == [id(r), id(twin)]
    assert nijenhuis_torsion(twin).comps == nijenhuis_torsion(r).comps


def test_the_rows_of_a_section_keep_their_tensor_alive():
    # the rows are kept under the id of their tensor, beside the tensor: no
    # equal tensor made after the first is dropped can take that id and read them
    ch = Chart("R2", ("x", "y"))
    x, y = ch.var("x"), ch.var("y")
    grid = [[x * y, x], [ch.one(), y * y]]
    s = GSection(VectorField(ch, [y, x * x]), PForm(ch, 1, {(0,): x, (1,): y}))
    first = _coordinate_D(s, OneOneTensor(ch, grid))
    gc.collect()
    for _ in range(20):
        assert _coordinate_D(s, OneOneTensor(ch, grid)) is not first
    assert len(s._memo) == 21


def test_a_none_sampled_rank_is_kept_and_not_formed_again(monkeypatch):
    # every sample point (1+s+7t, 2+s+7t) lies on the pole y = x + 1
    ch = Chart("R2", ("x", "y"))
    L = make_graph_poisson(Bivector(ch, {(0, 1): ch.scalar("1/(y - x - 1)")}))
    calls = []
    rank = dirac.rank_at_samples
    monkeypatch.setattr(dirac, "rank_at_samples", lambda *a: calls.append(a) or rank(*a))
    verdict = check_lagrangian(L, 3)
    assert verdict.status == INCONCLUSIVE
    assert verdict.witnesses == (("rank", "no valid sample point"),)
    assert check_lagrangian(L, 3) is verdict
    assert L._memo[("rank", 3)] is None and len(calls) == 1
    # a verdict decided again reads the kept None, and forms no rank
    del L._memo[("lagrangian", 3)]
    assert check_lagrangian(L, 3).witnesses == verdict.witnesses
    assert len(calls) == 1
    # another sample count is another datum
    assert check_lagrangian(L, 2).status == INCONCLUSIVE and len(calls) == 2


# -- fresh against warmed --------------------------------------------------------------


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def golden_runs():
    """{scene path: [argv]} of every golden case that reads a scene."""
    runs = {}
    for argv, _ in CASES.values():
        if len(argv) > 1:
            runs.setdefault(argv[1], []).append([argv[0], str(ROOT / argv[1]), *argv[2:]])
    return runs


def assert_warmed_reports_are_fresh(monkeypatch, runs, kept=None):
    """Run each argv on a fresh parse.  Then, on one parse per scene, run
    them all in reverse order with the check lines of the scene reversed,
    which warms its objects, and once more in order: these last reports are
    byte-identical to the fresh ones.  `kept`, when given, receives the
    warmed scenes by (text, mode)."""
    fresh = [report(argv) for argv in runs]
    parse, warming = cli.parse_scene, [True]
    kept = {} if kept is None else kept

    def parse_once(text, default_mode="real"):
        scene = kept.get((text, default_mode))
        if scene is None:
            scene = kept[text, default_mode] = parse(text, default_mode)
        return replace(scene, checks=scene.checks[::-1]) if warming[0] else scene

    monkeypatch.setattr(cli, "parse_scene", parse_once)
    for argv in reversed(runs):
        report(argv)
    warming[0] = False
    assert [report(argv) for argv in runs] == fresh
    return fresh


@pytest.mark.parametrize("path", sorted(golden_runs()))
def test_every_golden_scene_reports_as_fresh_when_warmed(monkeypatch, path):
    assert_warmed_reports_are_fresh(monkeypatch, golden_runs()[path])


def test_every_check_kind_and_subcommand_reports_as_fresh_when_warmed(monkeypatch, tmp_path):
    path = tmp_path / "every_kind.scene"
    path.write_text(EVERY_KIND)
    assert {kind for _, kind, _ in parse_scene(EVERY_KIND).checks} == set(CHECKS)
    runs = [
        ["check", str(path)],
        ["check", str(path), "--samples", "1"],
        ["hierarchy", str(path), "--frame", "L", "--oneone", "r", "--side", "n0", "--n", "2"],
        ["hierarchy", str(path), "--frame", "L", "--oneone", "r", "--side", "0n", "--n", "2"],
        ["traces", str(path), "--frame", "L", "--oneone", "r", "--jmax", "3"],
        ["holomorphic", str(path), "--frame", "T", "--oneone", "J"],
        ["algebroid", str(path), "--frame", "L", "--oneone", "r"],
        ["algebroid", str(path), "--frame", "S", "--oneone", "r"],
    ]
    kept = {}
    (code, text), *_ = assert_warmed_reports_are_fresh(monkeypatch, runs, kept)
    assert code == 1
    # the warmed reads include the kept invariance verdicts and frame brackets
    scene = kept[EVERY_KIND, "real"]
    frames, oneones = scene.frames, scene.oneones
    for frame, tensor_ in (("L", "t"), ("G", "r"), ("G", "t"), ("L", "r")):
        assert frames[frame]._memo[("invariance", id(oneones[tensor_]))][0] is oneones[tensor_]
    assert ("bracket", 0, 1) in frames["L"]._memo
    verdicts = {line.split(": ")[1] for line in text.splitlines() if ".verdict: " in line}
    assert verdicts == {"pass", "fail", "inconclusive"}
    assert "no valid sample point" in text


def test_a_frame_that_is_not_involutive_reports_as_fresh_when_warmed(monkeypatch, tmp_path):
    # warmed in reverse, the algebroid decides the kept Courant verdict that
    # the involutive check reads first when fresh
    path = tmp_path / "not_involutive.scene"
    path.write_text(NOT_INVOLUTIVE)
    (code, text), (alg_code, alg_text) = assert_warmed_reports_are_fresh(
        monkeypatch, [["check", str(path)], ["algebroid", str(path)]]
    )
    assert (code, alg_code) == (1, 2)
    # involutive, dirac, dirac_nijenhuis and double_type name the same triple
    witnesses = [line.split(".witness.")[1] for line in text.splitlines() if "T[0,1,2]" in line]
    assert witnesses == ["T[0,1,2]: x1"] * 2 + ["involutive.T[0,1,2]: x1", "T[0,1,2]: x1"]
    assert "check.4.witness.precondition: frame is not involutive\n" in text
    assert "check.0.witness.precondition: frame is not involutive\n" in alg_text
