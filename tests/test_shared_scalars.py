"""Equal expression texts of one scene are parsed once and give one shared
scalar.  The sharing never shows in a report: a scene whose entries repeat
reports byte for byte as the same scene with every repeat re-spelled, here
wrapped in parentheses, so that no text is parsed twice.  Two parses share
no scalar, so the derivatives one scene keeps never reach another."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dngeo.scene as scene_module
from dngeo.scene import parse_scene, run_scene
from dngeo.symbolic import to_str

SETTINGS = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# a few texts, so that a drawn scene repeats most of them; 1/(x + 2) has a
# pole at no sample point, 1/(y - x - 1) at every one
ATOMS = ("0", "1", "x", "y", "x*y", "x + 1", "2*x - y", "x^2", "-3", "1/(x + 2)", "1/(y - x - 1)")

# the slots of a scene on R2, each filled with one drawn text
TEMPLATE = """\
chart R2 x y {mode}
scalar f = {0}
vector v = {1} ; {2}
oneone r = {3}, {4} ; {5}, {6}
oneone s = {7}, {8} ; {8}, {7}
bivector pi = 1 2 {9}
form om 2 = 1 2 {10}
form phi 3 =
frame L = poisson pi
frame G = presymplectic om
check lagrangian L
check dirac G
check nijenhuis r
check dirac_nijenhuis L r
check invariance G s
check d_stability L s
check contraction_type G r
check form_compat om s
check quasi L s phi
check double_type G s
"""
SLOTS = 11


def respelled(texts):
    """The texts with the k-th repeat of a text wrapped in k parentheses."""
    seen = {}
    out = []
    for t in texts:
        k = seen[t] = seen.get(t, -1) + 1
        out.append("(" * k + t + ")" * k)
    return out


def report(text):
    """(name, verdict, witnesses) per check, witnesses as printed."""
    return [
        (rec.name, rec.verdict.status, [(w, v if isinstance(v, str) else to_str(v)) for w, v in rec.verdict.witnesses])
        for rec in run_scene(parse_scene(text))
    ]


def count_parses(monkeypatch):
    texts = []
    parse = scene_module.parse_scalar
    monkeypatch.setattr(scene_module, "parse_scalar", lambda text, chart: texts.append(text) or parse(text, chart))
    return texts


def test_a_scene_with_repeated_texts_reports_as_the_one_without():
    seen = set()

    @SETTINGS
    @given(st.lists(st.sampled_from(ATOMS), min_size=SLOTS, max_size=SLOTS), st.sampled_from(("real", "complex")))
    def check(texts, mode):
        distinct = respelled(texts)
        assert len(set(distinct)) == SLOTS
        expected = report(TEMPLATE.format(*distinct, mode=mode))
        assert report(TEMPLATE.format(*texts, mode=mode)) == expected
        seen.add(len(set(texts)) < SLOTS)
        seen.update(status for _, status, _ in expected)

    check()
    # drawn scenes repeat texts, and their checks pass, fail and are inconclusive
    assert {True, "pass", "fail", "inconclusive"} <= seen


def test_equal_texts_give_one_scalar_and_each_text_is_parsed_once(monkeypatch):
    parsed = count_parses(monkeypatch)
    scene = parse_scene(TEMPLATE.format(*(["x"] * 9 + ["0", "y"]), mode="real"))
    r, s, v = scene.oneones["r"], scene.oneones["s"], scene.vectors["v"]
    assert sorted(parsed) == ["0", "x", "y"]
    assert r.grid[0][0] is r.grid[1][1] is s.grid[0][1] is v.comps[0] is scene.scalars["f"]
    # re-spelled, the same scalar is parsed again and is another object
    again = parse_scene("chart R2 x y\nvector w = x ; (x)\n").vectors["w"]
    assert again.comps[0] == again.comps[1] and again.comps[0] is not again.comps[1]


def test_two_parses_share_no_scalar(monkeypatch):
    text = TEMPLATE.format(*(["x*y"] * SLOTS), mode="real")
    parsed = count_parses(monkeypatch)
    first, second = parse_scene(text), parse_scene(text)
    assert parsed == ["x*y", "x*y"]
    f1, f2 = first.scalars["f"], second.scalars["f"]
    assert f1 == f2 and f1 is not f2
    # a derivative kept on the first scene's scalar is not on the second's
    f1.diff(0)
    assert f1._memo and not f2._memo
