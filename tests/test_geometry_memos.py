"""A scene forms each piece of geometry once: the Nijenhuis torsion of each
tensor, and the coordinate rows of the combined derivation of each
(section, tensor) pair, whichever checks read them.  The kept values equal
freshly formed ones."""

import dngeo.courant as courant
import dngeo.tensor as tensor
from dngeo.courant import GSection, _coordinate_D
from dngeo.scene import parse_scene, run_scene
from dngeo.symbolic import Chart
from dngeo.tensor import OneOneTensor, PForm, VectorField, _partials, nijenhuis_torsion

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
    assert [key for key, _ in s._rows] == [r, twin] and s._rows[1][0] is twin
    assert nijenhuis_torsion(twin).comps == nijenhuis_torsion(r).comps
