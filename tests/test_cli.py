"""Scene parsing, check dispatch, report format, exit codes, determinism."""

import re
import sys
import time
from pathlib import Path

import pytest

from dngeo.cli import main
from dngeo.scene import CHECKS, SceneError, parse_scene, run_scene
from dngeo.symbolic import parse_scalar


SEC43 = """\
# the worked split-distribution example
chart R2 x1 x2
vector F = 0 ; 1
oneone r = x1^2 + 1, 0 ; 0, x2^3 - 2*x2
oneone rtilde = x1^2 + 1, 0 ; 0, x1 + 1
frame L = split F
check dirac_nijenhuis L r
"""

GAUGE = """\
chart R2 x y
bivector pi = 1 2 1
oneone r = x, 0 ; 0, x
form w 2 = 1 2 x*y
frame L = poisson pi
frame Lw = presymplectic w
check lagrangian L
check dirac L
check nijenhuis r
check traces L r 3
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def scene_file(tmp_path):
    def write(text, name="scene.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestSceneParsing:
    def test_declarations(self):
        scene = parse_scene(GAUGE)
        assert scene.chart.variables == ("x", "y")
        assert set(scene.frames) == {"L", "Lw"}
        assert len(scene.checks) == 4

    def test_duplicate_name_rejected(self):
        with pytest.raises(SceneError):
            parse_scene("chart C x y\nscalar f = x\nvector f = x ; y\n")

    def test_expression_error_position(self):
        with pytest.raises(SceneError) as e:
            parse_scene("chart C x y\nscalar f = x ++ y\n")
        assert e.value.line == 2

    def test_chart_required_first(self):
        with pytest.raises(SceneError):
            parse_scene("scalar f = x\n")

    def test_unknown_check_reported_at_run(self):
        scene = parse_scene("chart C x y\ncheck bogus L\n")
        with pytest.raises(SceneError):
            run_scene(scene)

    def test_check_kinds_lists_follow_the_table(self):
        # each documented kind with its argument count, "[R]" marking an
        # optional argument, as the table declares them
        import dngeo.scene

        table = {kind: tuple(t.endswith("?") for t in types) for kind, (types, _) in CHECKS.items()}
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for text, entries in ((dngeo.scene.__doc__, "|"), (readme, None)):
            listed = text.split("Check kinds:")[1].split(".\n")[0]
            words = [e.split() for e in (listed.split("|") if entries else re.findall(r"`([^`]*)`", listed))]
            assert {w[0]: tuple(a.startswith("[") for a in w[1:]) for w in words} == table

    def test_complex_mode(self):
        scene = parse_scene("chart C z w complex\nscalar f = i*z\n")
        assert scene.chart.mode == "complex"


class TestCheckCommand:
    def test_worked_example_exit_zero(self, capsys, scene_file):
        code, out, _ = run_cli(capsys, "check", scene_file(SEC43))
        assert code == 0
        assert "check.0.verdict: pass" in out
        assert "status: pass" in out

    def test_torsion_witness_and_exit_one(self, capsys, scene_file):
        text = SEC43 + "check nijenhuis rtilde\n"
        code, out, _ = run_cli(capsys, "check", scene_file(text))
        assert code == 1
        m = re.search(r"check\.1\.witness\.torsion\[1;0,1\]: (.+)", out)
        assert m
        # the witness is the canonical form of (a - c) * dc/dx1
        ch = parse_scene(text).chart
        a = parse_scalar("x1^2 + 1", ch)
        c = parse_scalar("x1 + 1", ch)
        assert parse_scalar(m.group(1), ch) == (a - c) * c.diff(0)

    def test_parse_error_exit_three(self, capsys, scene_file):
        code, _, err = run_cli(capsys, "check", scene_file("chart C x y\nscalar f = x +* y\n"))
        assert code == 3
        assert "line 2" in err

    @pytest.mark.parametrize(
        "line, char, col",
        [("bivector pi = 1 2 x^\u00b2", "\u00b2", 21), ("scalar f = x^\u0663", "\u0663", 14)],
        ids=["superscript-two", "arabic-indic-three"],
    )
    def test_a_digit_outside_ascii_exit_three(self, capsys, scene_file, line, char, col):
        # str.isdigit accepts both, and int() reads the second as 3; the
        # column is the character's in the scene line
        code, out, err = run_cli(capsys, "check", scene_file(f"chart C x y\n{line}\n"))
        assert (code, out) == (3, "")
        assert err == f"error: unexpected character '{char}' (line 2, col {col})\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("form w 2 = 1 2    x  +* y", "unexpected '*' (line 2, col 23)"),
            ("oneone r = x, 0 ;   0,   x +", "unexpected 'end of input' (line 2, col 29)"),
            ("vector v = x ;  y y", "unexpected 'y' (line 2, col 19)"),
            ("bivector pi = 1 2 x ; 1  2   (x", "expected ')', found 'end of input' (line 2, col 32)"),
            ("  scalar f =   ", "unexpected 'end of input' (line 2, col 16)"),
        ],
        ids=["form-spacing", "oneone-end-of-input", "vector", "second-bivector-entry", "empty-expression"],
    )
    def test_an_expression_error_names_its_column_in_the_line(self, capsys, scene_file, line, message):
        code, out, err = run_cli(capsys, "check", scene_file(f"chart R2 x y\n{line}\n"))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_missing_file_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/path.scene")
        assert code == 3

    def test_usage_error_exit_three(self, capsys):
        assert main(["bogus-subcommand"]) == 3

    def test_inconclusive_exit_two(self, capsys, scene_file):
        # a frame whose defining data is fine generically but rank-drops at
        # every sample point is hard to build honestly; instead check the
        # mapping of precondition failures to inconclusive + exit 2
        text = (
            "chart R2 x y\n"
            "bivector pi = 1 2 1\n"
            "vector F = 0 ; 1\n"
            "frame L = poisson pi\n"
            "frame Ls = split F\n"
            "check concur L Ls\n"
        )
        code, out, _ = run_cli(capsys, "check", scene_file(text))
        assert code == 2
        assert "check.0.verdict: inconclusive" in out

    def test_output_flag_writes_same_bytes(self, capsys, scene_file, tmp_path):
        out_path = str(tmp_path / "report.txt")
        code, out, _ = run_cli(
            capsys, "check", scene_file(SEC43), "--output", out_path
        )
        assert open(out_path).read() == out


class TestDeterminism:
    def test_check_deterministic(self, capsys, scene_file):
        path = scene_file(GAUGE)
        _, out1, _ = run_cli(capsys, "check", path)
        _, out2, _ = run_cli(capsys, "check", path)
        assert out1 == out2

    def test_selftest_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, "selftest", "--instances", "1")
        code2, out2, _ = run_cli(capsys, "selftest", "--instances", "1")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "failures_total: 0" in out1

    def test_report_expressions_reparse(self, capsys, scene_file):
        path = scene_file(
            "chart R2 x y\n"
            "bivector pi = 1 2 1\n"
            "oneone r = x, 0 ; 0, x\n"
            "frame L = poisson pi\n"
        )
        code, out, _ = run_cli(capsys, "traces", path, "--jmax", "3")
        assert code == 0
        ch = parse_scene(open(path).read()).chart
        for m in re.finditer(r"trace\.\d+: (.+)", out):
            parse_scalar(m.group(1), ch)  # must round-trip


class TestSubcommands:
    def test_hierarchy(self, capsys, scene_file):
        path = scene_file(
            "chart R2 x y\n"
            "bivector pi = 1 2 1\n"
            "oneone r = x, 0 ; 0, x\n"
            "frame L = poisson pi\n"
        )
        code, out, _ = run_cli(capsys, "hierarchy", path, "--side", "n0", "--n", "3")
        assert code == 0
        assert "frame.3.section.0.vec: (0, x^3)" in out
        assert out.count("verdict: pass") == 3

    def test_traces_values(self, capsys, scene_file):
        path = scene_file(
            "chart R2 x y\n"
            "bivector pi = 1 2 1\n"
            "oneone r = x, 0 ; 0, x\n"
            "frame L = poisson pi\n"
        )
        code, out, _ = run_cli(capsys, "traces", path, "--jmax", "3")
        assert code == 0
        assert "trace.1: 2*x" in out
        assert "trace.2: x^2" in out
        assert "trace.3: 2/3*x^3" in out

    def test_traces_inadmissible(self, capsys, scene_file):
        path = scene_file(SEC43)
        code, out, _ = run_cli(capsys, "traces", path, "--jmax", "2", "--oneone", "r")
        assert code == 1
        assert "trace not admissible" in out

    def test_holomorphic(self, capsys, scene_file):
        path = scene_file(
            "chart R2 x y\n"
            "oneone J = 0, -1 ; 1, 0\n"
            "vector E1 = 1 ; 0\n"
            "vector E2 = 0 ; 1\n"
            "form z1 1 = 1 0\n"
            "frame L = sections E1 0 ; E2 0\n"
        )
        code, out, _ = run_cli(capsys, "holomorphic", path)
        assert code == 0
        assert out.count("verdict: pass") == 5

    def test_algebroid(self, capsys, scene_file):
        path = scene_file(
            "chart R2 x y\n"
            "bivector pi = 1 2 x\n"
            "oneone r = x, 0 ; 0, x\n"
            "frame L = poisson pi\n"
        )
        code, out, _ = run_cli(capsys, "algebroid", path)
        assert code == 0
        assert "struct.1.2.1: 1" in out
        for name in ("algebroid_axioms", "im_form", "im_oneone", "im_nijenhuis", "im_compat"):
            assert f"name: {name}" in out

    def test_selftest_seed_flag(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--instances", "1", "--seed", "7")
        assert code == 0
        assert "seed: 7" in out


class TestShippedScenes:
    """The scenes under scenes/ are living documentation; keep them honest."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("worked_split.scene", 1),
            ("scalar_hierarchy.scene", 0),
            ("gauge_nonclosed.scene", 1),
        ],
    )
    def test_expected_exit_codes(self, capsys, name, expected):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "scenes" / name
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == expected


class TestRemainingCheckKinds:
    def test_holo_form_via_scene(self, capsys, scene_file):
        path = scene_file(
            "chart C4 x1 x2 y1 y2\n"
            "oneone J = 0, 0, -1, 0 ; 0, 0, 0, -1 ; 1, 0, 0, 0 ; 0, 1, 0, 0\n"
            "form w 2 = 1 2 1 ; 3 4 -1\n"
            "form w1 2 = 1 4 1 ; 2 3 -1\n"
            "check holo_form w w1 J\n"
            "check form_compat w J\n"
        )
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 0
        assert out.count("verdict: pass") == 2

    def test_quasi_via_scene(self, capsys, scene_file):
        path = scene_file(
            "chart R3 x y z\n"
            "bivector pi = 1 2 1\n"
            "oneone r = z, 0, 0 ; 0, z, 0 ; 0, 0, 0\n"
            "form phi 3 = 1 2 3 z\n"
            "form phi2 3 = 1 2 3 2*z\n"
            "frame L = poisson pi\n"
            "check quasi L r phi\n"
            "check quasi L r phi2\n"
        )
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 1
        assert "check.0.verdict: pass" in out
        assert "check.1.verdict: fail" in out

    def test_hierarchy_kernel_failure(self, capsys, scene_file):
        # a split frame whose null direction the tensor kills: the first
        # member already fails the kernel condition
        path = scene_file(
            "chart R2 x y\n"
            "vector F = 0 ; 1\n"
            "oneone r = 1, 0 ; 0, 0\n"
            "frame L = split F\n"
        )
        code, out, _ = run_cli(capsys, "hierarchy", path, "--side", "n0", "--n", "2")
        assert code == 1
        assert "witness.kernel" in out and "(n,0)" in out

    def test_holomorphic_rejects_non_complex_structure(self, capsys, scene_file):
        path = scene_file(
            "chart R2 x y\n"
            "oneone r = x, 0 ; 0, x\n"
            "vector E1 = 1 ; 0\n"
            "vector E2 = 0 ; 1\n"
            "frame L = sections E1 0 ; E2 0\n"
        )
        code, out, _ = run_cli(capsys, "holomorphic", path)
        assert code == 2
        assert "check.0.verdict: inconclusive" in out
        assert "check.0.witness.precondition: square is not -identity" in out

    def test_algebroid_on_a_frame_that_is_not_lagrangian(self, capsys, scene_file):
        # a precondition failure is inconclusive, as `check algebroid` reports it
        path = scene_file("chart R2 x y\nvector w = x ; 0\nframe B = sections w 0 ; w 0\n")
        code, out, _ = run_cli(capsys, "algebroid", path)
        assert code == 2
        assert "check.0.name: dirac_to_algebroid" in out
        assert "check.0.witness.precondition: frame is not lagrangian" in out

    def test_lagrangian_with_a_pole_at_every_sample_point(self, capsys, scene_file):
        # every sample point (1+s+7t, 2+s+7t) lies on y = x + 1, where the
        # frame has a pole; the generic rank is still full, so the rank is
        # unsupported by sampling rather than an error
        path = scene_file(
            "chart R2 x y\n"
            "bivector p = 1 2 1/(y - x - 1)\n"
            "frame L = poisson p\n"
            "check lagrangian L\n"
        )
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and err == ""
        assert "check.0.verdict: inconclusive" in out
        assert "check.0.witness.rank: no valid sample point" in out

    def test_hierarchy_member_with_a_pole_at_every_sample_point(self, capsys, scene_file):
        # (r, id)(L) keeps the pole on y = x + 1 and has full generic rank,
        # so the member is emitted flagged and its checks are inconclusive
        path = scene_file(
            "chart R2 x y\n"
            "bivector p = 1 2 1/(y - x - 1)\n"
            "oneone r = x, 0 ; 0, x\n"
            "frame L = poisson p\n"
        )
        code, out, err = run_cli(capsys, "hierarchy", path, "--side", "n0", "--n", "1")
        assert code == 2 and err == ""
        assert "frame.1.section.0.vec: (0, (-x)/(x - y + 1))" in out
        assert "check.0.verdict: inconclusive" in out
        assert "check.0.witness.lagrangian.rank: no valid sample point" in out

    def test_split_with_a_pole_at_every_sample_point(self, capsys, scene_file):
        path = scene_file(
            "chart R2 x y\n"
            "vector v = 1/(y - x - 1) ; 0\n"
            "frame S = split v\n"
            "check lagrangian S\n"
        )
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and err == ""
        assert "check.0.verdict: inconclusive" in out
        assert "check.0.witness.rank: no valid sample point" in out

    def test_double_type_with_a_pole_at_every_sample_point_of_the_transform(self, capsys, scene_file):
        # L samples fine, (r, id)(L) does not: inconclusive, never a fail
        path = scene_file(
            "chart R2 x y\n"
            "bivector p = 1 2 1\n"
            "oneone r = 1/(y - x - 1), 0 ; 0, 1/(y - x - 1)\n"
            "frame L = poisson p\n"
            "check double_type L r\n"
        )
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2 and err == ""
        assert "check.0.verdict: inconclusive" in out
        assert "check.0.witness.L10.rank: no valid sample point" in out

    def test_wrong_arity_form_maps_to_parse_error(self, capsys, scene_file):
        path = scene_file(
            "chart R3 x y z\n"
            "bivector pi = 1 2 1\n"
            "oneone r = z, 0, 0 ; 0, z, 0 ; 0, 0, 0\n"
            "form w 2 = 1 2 1\n"
            "frame L = poisson pi\n"
            "check quasi L r w\n"
        )
        code, _, err = run_cli(capsys, "check", path)
        assert code == 3
        assert "3-form" in err


class TestInputContract:
    """Bad command-line values and unreadable scenes end in exit 3 with an
    `error:` line, never a traceback or a vacuous verdict."""

    POISSON = "chart R2 x y\nbivector pi = 1 2 1\noneone r = x, 0 ; 0, x\nframe L = poisson pi\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{scene}", "--samples", "0"],
            ["hierarchy", "{scene}", "--side", "n0", "--n", "0"],
            ["traces", "{scene}", "--jmax", "-3"],
            ["selftest", "--instances", "0"],
            ["check", "{scene}", "--seed", "1"],
            ["selftest", "--samples", "2"],
            ["selftest", "--mode", "real"],
            ["check", "{scene}", "--samples", "\u0663"],
            ["traces", "{scene}", "--jmax", "1_0"],
        ],
        ids=[
            "samples", "n", "jmax", "instances", "seed-on-scene-command", "samples-on-selftest", "mode-on-selftest",
            "samples-arabic-indic", "jmax-underscore",
        ],
    )
    def test_rejected_flag_values(self, capsys, scene_file, argv):
        path = scene_file(self.POISSON + "check lagrangian L\n")
        code, out, err = run_cli(capsys, *[a.format(scene=path) for a in argv])
        assert code == 3
        assert "error:" in err and out == ""

    def test_scene_without_checks(self, capsys, scene_file):
        code, out, err = run_cli(capsys, "check", scene_file(self.POISSON))
        assert code == 3
        assert err == "error: scene declares no checks\n" and out == ""

    def test_traces_check_with_jmax_zero(self, capsys, scene_file):
        code, _, err = run_cli(capsys, "check", scene_file(self.POISSON + "check traces L r 0\n"))
        assert code == 3
        assert "error:" in err and "line 5" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("chart R2 x y\nbivector pi = \u0661 \u0662 1\n", "bivector indices must be integers (line 2, col 1)"),
            ("chart R2 x y\nbivector pi = +1 2 1\n", "bivector indices must be integers (line 2, col 1)"),
            ("chart R2 x y\nbivector pi = -1 2 1\n", "bivector indices must satisfy 1 <= i < j <= n (line 2, col 1)"),
            ("chart R2 x y\nform w \uff12 = 1 2 x\n", "form degree must be an integer (line 2, col 1)"),
            ("chart R2 x y\nform w 2 = 1 \u0662 x\n", "form indices must be integers (line 2, col 1)"),
            ("chart R2 x y\nform w 1 = -1 x\n", "form indices must be strictly increasing and in range (line 2, col 1)"),
            ("chart R2 x y\nform w -1 = 1 ; \n", "negative form degree (line 2, col 1)"),
            (POISSON + "check traces L r 1_0\n", "check traces needs an integer, not '1_0' (line 5, col 1)"),
            (POISSON + "check traces L r \u0663\n", "check traces needs an integer, not '\u0663' (line 5, col 1)"),
            (POISSON + "check traces L r -1\n", "traces jmax must be at least 1 (line 5, col 1)"),
        ],
        ids=[
            "bivector-arabic-indic", "bivector-plus", "bivector-negative", "form-degree-fullwidth",
            "form-index-arabic-indic", "form-negative", "form-degree-negative", "jmax-underscore", "jmax-arabic-indic", "jmax-negative",
        ],
    )
    def test_scene_integers_are_ascii(self, capsys, scene_file, text, message):
        # int() alone reads the Unicode digits, '+1' and '1_0' as integers;
        # a negative index or jmax keeps its range error
        code, out, err = run_cli(capsys, "check", scene_file(text))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bivector p = 1 2 x ; 1 2 y", "repeated bivector entry 1 2 (line 2, col 22)"),
            ("form w 2 = 1 2 x ;  1 2 z", "repeated form entry 1 2 (line 2, col 21)"),
            ("form w 2 = 1 2 x ; 1 3 y ; 1 2 x", "repeated form entry 1 2 (line 2, col 28)"),
        ],
        ids=["bivector", "form", "form-equal-value"],
    )
    def test_a_repeated_component_is_refused(self, capsys, scene_file, line, message):
        # the later entry used to replace the earlier one, and the check ran
        # on a tensor the scene does not write
        frame = "poisson p" if line.startswith("bivector") else "presymplectic w"
        text = f"chart R3 x y z\n{line}\nframe L = {frame}\ncheck dirac L\n"
        code, out, err = run_cli(capsys, "check", scene_file(text))
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_scene_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.scene"
        path.write_bytes(b"chart R2 x y\n# caf\xe9\n")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 3
        assert err.startswith("error:") and "line 2" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hierarchy", "--side", "n0", "--n", "1", "--frame", "Z"], "unknown frame 'Z' (--frame)"),
            (["traces", "--jmax", "1", "--oneone", "q"], "unknown oneone 'q' (--oneone)"),
        ],
        ids=["frame", "oneone"],
    )
    def test_unknown_name_in_a_flag(self, capsys, scene_file, argv, message):
        path = scene_file(self.POISSON)
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (POISSON + "frame M = poisson pi\n", "scene declares 2 frames; pass --frame to pick one"),
            (POISSON.replace("frame L = poisson pi\n", ""), "scene declares no frames"),
        ],
        ids=["two", "none"],
    )
    def test_frame_flag_without_a_unique_frame(self, capsys, scene_file, text, message):
        code, out, err = run_cli(capsys, "holomorphic", scene_file(text))
        assert code == 3 and out == ""
        assert err == f"error: {message}\n"

    def test_algebroid_check_names_an_unknown_tensor(self, capsys, scene_file):
        # the frame is not lagrangian, so the tensor is never reached; the
        # unknown name is still a usage error, not an inconclusive verdict
        text = "chart R2 x y\nvector w = x ; 0\nframe B = sections w 0 ; w 0\ncheck algebroid B bogus\n"
        code, _, err = run_cli(capsys, "check", scene_file(text))
        assert code == 3
        assert "unknown oneone 'bogus'" in err

    GRAPH = "chart R2 x y\nbivector p = 1 2 x\n"
    # r is compatible with the graph of p; t is not, so it cannot be transported
    R, T = "oneone r = x, 0 ; 0, x\n", "oneone t = y, x ; 0, y\n"
    CHAIN = ["algebroid_axioms", "im_form", "im_oneone", "im_nijenhuis", "im_compat"]

    @pytest.mark.parametrize(
        "oneones, flag, code, steps",
        [
            ("", [], 0, CHAIN[:2]),
            (R, [], 0, CHAIN),
            (R + T, ["--oneone", "r"], 0, CHAIN),
            (R + T, ["--oneone", "t"], 2, CHAIN[:2] + ["transport"]),
        ],
        ids=["none", "one", "two-pick-r", "two-pick-t"],
    )
    def test_algebroid_reads_the_tensor_the_scene_names(self, capsys, scene_file, oneones, flag, code, steps):
        text = self.GRAPH + oneones + "frame L = poisson p\n"
        got, out, err = run_cli(capsys, "algebroid", scene_file(text), *flag)
        assert (got, err) == (code, "")
        assert [line.split(": ")[1] for line in out.splitlines() if ".name: " in line] == steps

    def test_algebroid_refuses_two_oneones_without_the_flag(self, capsys, scene_file):
        # without a tensor the chain would stop at im_form and pass: a usage
        # error, as in the other commands that read one tensor
        text = self.GRAPH + self.R + self.T + "frame L = poisson p\n"
        for command in ("algebroid", "holomorphic"):
            code, out, err = run_cli(capsys, command, scene_file(text))
            assert (code, out) == (3, "")
            assert err == "error: scene declares 2 oneones; pass --oneone to pick one\n"

    @pytest.mark.parametrize(
        "check, message",
        [
            ("holomorphic_dirac NOSUCH J", "unknown frame 'NOSUCH'"),
            ("holo_form W1 W2 J", "unknown form 'W1'"),
            ("algebroid NOSUCH bogus", "unknown frame 'NOSUCH'"),
        ],
        ids=["holomorphic_dirac", "holo_form", "algebroid"],
    )
    def test_first_unknown_argument_is_named_before_the_check_runs(self, capsys, scene_file, check, message):
        # J is not a complex structure: building it first would make the
        # usage error an inconclusive precondition
        text = f"chart R2 x y\noneone J = x, 0 ; 0, x\ncheck {check}\n"
        code, out, err = run_cli(capsys, "check", scene_file(text))
        assert code == 3 and out == ""
        assert err == f"error: {message} (line 3, col 1)\n"

    def test_every_check_line_is_resolved_before_the_first_check_runs(self, capsys, scene_file, monkeypatch):
        import dngeo.dirac as dirac

        calls = []
        decide = dirac._decide_lagrangian
        monkeypatch.setattr(dirac, "_decide_lagrangian", lambda *a: calls.append(a) or decide(*a))
        text = self.POISSON + "check lagrangian L\ncheck lagrangian NOSUCH\n"
        code, out, err = run_cli(capsys, "check", scene_file(text))
        assert code == 3 and out == ""
        assert err == "error: unknown frame 'NOSUCH' (line 6, col 1)\n"
        assert calls == []

    def test_a_jmax_below_one_is_refused_before_the_first_check_runs(self, capsys, scene_file, monkeypatch):
        import dngeo.algebroid as alg

        calls = []
        build = alg.dirac_to_algebroid
        monkeypatch.setattr(alg, "dirac_to_algebroid", lambda *a, **k: calls.append(a) or build(*a, **k))
        text = self.POISSON + "check algebroid L r\ncheck traces L r 0\n"
        code, out, err = run_cli(capsys, "check", scene_file(text))
        assert (code, out, err) == (3, "", "error: traces jmax must be at least 1 (line 6, col 1)\n")
        assert calls == []
        # the counter sees the algebroid check once the traces line is valid
        code, _, _ = run_cli(capsys, "check", scene_file(text.replace("r 0\n", "r 1\n")))
        assert code in (0, 1, 2) and len(calls) == 1

    @pytest.mark.parametrize("samples", [0, -1])
    def test_a_sample_count_below_one_is_a_usage_error_of_the_api(self, samples):
        from dngeo.courant import GSection
        from dngeo.dirac import GFrame, check_lagrangian, hierarchy, null_distribution
        from dngeo.symbolic import rank_at_samples
        from dngeo.tensor import PForm, VectorField

        scene = parse_scene(
            "chart R2 x y\nbivector p = 1 2 x\noneone r = x, 0 ; 0, x\nframe L = poisson p\n"
            "check nijenhuis r\ncheck lagrangian L\n"
        )
        L, r = scene.frames["L"], scene.oneones["r"]
        # (d/dx, dx) pairs to 2 with itself: a frame that fails before any rank
        ch = scene.chart
        not_isotropic = GFrame([GSection(VectorField.coordinate(ch, i), PForm.coordinate(ch, 0)) for i in range(2)])
        calls = [
            lambda: rank_at_samples(L.matrix(), samples),
            lambda: check_lagrangian(L, samples),
            lambda: check_lagrangian(not_isotropic, samples),
            lambda: run_scene(scene, samples),
            lambda: hierarchy(L, r, 1, "n0", samples),
            lambda: null_distribution(L, samples),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            # the bare message: no verdict, no scene line, no kernel condition
            assert type(info.value) is ValueError and str(info.value) == "samples must be at least 1"
        # a valid count still decides, and gets a verdict
        assert check_lagrangian(L, 1).status == "pass" and rank_at_samples(L.matrix(), 1) == 2

    @pytest.mark.parametrize("argv", [["traces", "--jmax", "1"], ["algebroid"]], ids=["traces", "algebroid"])
    def test_samples_flag_reaches_the_lagrangian_precondition(self, capsys, argv):
        # the frame loses rank at the first sample point only, so with one
        # sample point the lagrangian precondition is not met
        path = str(Path(__file__).resolve().parent / "golden" / "samples_1.scene")
        assert run_cli(capsys, argv[0], path, *argv[1:])[0] == 0
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:], "--samples", "1")
        assert code == 2 and err == ""
        assert "check.0.verdict: inconclusive" in out
        assert re.search(r"^check\.0\.witness\.precondition: .*lagrangian$", out, re.M)

    # the frame loses rank at the first three sample points, x = 1, 2, 3
    CUBIC = (
        "chart R2 x y\n"
        "vector v = (x - 1)*(x - 2)*(x - 3) ; 0\n"
        "form a 1 = 2 1\n"
        "oneone r = 1, 0 ; 0, 1\n"
        "frame L = sections v 0 ; 0 a\n"
        "check algebroid L r\n"
    )

    def test_samples_flag_reaches_the_algebroid_transport(self, capsys, scene_file):
        path = scene_file(self.CUBIC)
        code, out, _ = run_cli(capsys, "algebroid", path, "--samples", "4")
        assert code == 0
        names = re.findall(r"^check\.\d+\.name: (.+)$", out, re.M)
        assert names == ["algebroid_axioms", "im_form", "im_oneone", "im_nijenhuis", "im_compat"]
        assert out.count("verdict: pass") == 5 and out.endswith("status: pass\n")
        code, out, _ = run_cli(capsys, "check", path, "--samples", "4")
        assert code == 0
        assert "check.0.name: algebroid L r\ncheck.0.verdict: pass\n" in out
        code, out, _ = run_cli(capsys, "algebroid", path, "--samples", "3")
        assert code == 2
        assert "check.0.name: dirac_to_algebroid\ncheck.0.verdict: inconclusive\n" in out

    def test_algebroid_is_built_and_checked_once(self, capsys, monkeypatch):
        # every IM check asks for the axiom verdict, and the algebroid of a
        # Dirac frame keeps its frame's involutivity pass as that verdict
        # (a Dirac structure is a Lie algebroid), so `_decide_axioms` never runs
        import dngeo.algebroid as alg

        calls = {"dirac_to_algebroid": 0, "_decide_axioms": 0}
        for name in calls:
            original = getattr(alg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(alg, name, counted)
        path = str(Path(__file__).resolve().parent.parent / "scenes" / "scalar_hierarchy.scene")
        code, out, _ = run_cli(capsys, "algebroid", path)
        assert code == 0 and "im_compat" in out
        assert calls == {"dirac_to_algebroid": 1, "_decide_axioms": 0}

    def test_algebroid_reads_D_r_from_closed_forms(self, capsys, monkeypatch):
        # D^r and the degree-1 D^{r,*} along coordinate fields are the two
        # parts of the combined derivation's closed form, so no check of
        # the algebroid command evaluates them through Lie derivatives
        import dngeo.algebroid  # noqa: F401  (bound before patching)
        import dngeo.tensor as tensor

        calls = {"D_r": 0, "D_r_star": 0}
        for attr in calls:
            original = getattr(tensor, attr)

            def counted(*args, _original=original, _attr=attr, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "dngeo" and getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counted)
        path = str(Path(__file__).resolve().parent.parent / "scenes" / "scalar_hierarchy.scene")
        code, out, _ = run_cli(capsys, "algebroid", path)
        assert code == 0 and out.count("verdict: pass") == 5
        assert calls == {"D_r": 0, "D_r_star": 0}

    def test_lagrangian_rank_evaluates_each_sample_point_once(self, capsys, evaluations):
        # a sampled rank below n goes straight to elimination, without
        # evaluating the first sample point again; the seven checks name one
        # frame, whose lagrangian verdict is decided once: one rank read,
        # whose image is rank deficient at (1, 2), as the point itself is, so
        # it falls back to one exact evaluation of the 4x2 matrix
        path = str(Path(__file__).resolve().parent / "golden" / "samples_1.scene")
        assert run_cli(capsys, "check", path, "--samples", "1")[0] == 2
        assert evaluations == {"image": 1, "matrix": 1, "scalar": 8, "denominator": 0}

    # every retry of every sample point (1+s+7t, 2+s+7t) has y = x + 1
    POLE = "chart R2 x y\nbivector p = 1 2 1/(y - x - 1)\n"

    @pytest.mark.parametrize(
        "text, argv, counts",
        [
            (POLE + "frame L = poisson p\ncheck lagrangian L\n", ["check"], (21, 0, 0, 21)),
            (
                "chart R2 x y\nvector v = 1/(y - x - 1) ; 0\nframe S = split v\ncheck lagrangian S\n",
                ["check"],
                (42, 0, 0, 21),
            ),
            (
                POLE + "oneone r = x, 0 ; 0, x\nframe L = poisson p\n",
                ["hierarchy", "--side", "n0", "--n", "1"],
                (21, 0, 0, 21),
            ),
        ],
        ids=["poisson", "split", "hierarchy"],
    )
    def test_pole_scenes_evaluate_each_sample_point_once(
        self, capsys, scene_file, evaluations, text, argv, counts
    ):
        # (image, exact matrix, exact scalar, exact denominator) evaluations:
        # one sampled matrix in the poisson scene, two in the split one, and
        # in the hierarchy one the member, whose sampled rank the kernel
        # condition and its lagrangian check share.  At
        # each of the 21 retries of its first sample point, the image of
        # each matrix has a vanishing denominator, and one exact test of
        # that denominator shows the retry a pole, with no numerator
        # evaluated; then the matrix eliminates.  The split field's generic
        # rank reads the images alone, with no exact test of a pole.
        code, out, err = run_cli(capsys, argv[0], scene_file(text), *argv[1:])
        assert code == 2 and err == ""
        assert "rank: no valid sample point" in out
        assert tuple(evaluations[k] for k in ("image", "matrix", "scalar", "denominator")) == counts

    def test_split_frame_evaluates_each_sample_point_once(self, evaluations):
        # the image at one sample point proves the fields independent; the
        # frame's rank at the caller's sample points is left to
        # check_lagrangian
        parse_scene("chart R2 x y\nvector v = x ; 1\nframe S = split v\n")
        assert evaluations == {"image": 1, "matrix": 0, "scalar": 0, "denominator": 0}

    # the split field vanishes at the first three sample points, x = 1, 2, 3
    SPLIT_CUBIC = (
        "chart R2 x y\nvector v = (x - 1)*(x - 2)*(x - 3) ; 0\nframe S = split v\ncheck lagrangian S\n"
    )

    def test_samples_flag_reaches_split_frames(self, capsys, scene_file):
        path = scene_file(self.SPLIT_CUBIC)
        code, out, err = run_cli(capsys, "check", path, "--samples", "4")
        assert (code, err) == (0, "")
        assert "check.0.verdict: pass\n" in out and out.endswith("status: pass\n")
        code, out, err = run_cli(capsys, "check", path, "--samples", "3")
        assert (code, err) == (2, "")
        assert "check.0.verdict: inconclusive\ncheck.0.witness.rank: rank drop at sample points\n" in out

    @pytest.mark.parametrize(
        "samples, code, body",
        [
            (
                "1",
                2,
                "check.0.name: dirac S\ncheck.0.verdict: inconclusive\n"
                "check.0.witness.rank: rank drop at sample points\n"
                "check.1.name: involutive S\ncheck.1.verdict: inconclusive\n"
                "check.1.witness.precondition: precondition failed: lagrangian\n"
                "checks: 2\nstatus: inconclusive\n",
            ),
            (
                "4",
                0,
                "check.0.name: dirac S\ncheck.0.verdict: pass\n"
                "check.1.name: involutive S\ncheck.1.verdict: pass\n"
                "checks: 2\nstatus: pass\n",
            ),
        ],
        ids=["samples-1", "samples-4"],
    )
    def test_checks_on_one_frame_share_its_verdict_at_the_sample_count(self, capsys, scene_file, samples, code, body):
        # both checks read the one lagrangian verdict of S at the given count
        text = self.SPLIT_CUBIC.replace("check lagrangian S\n", "check dirac S\ncheck involutive S\n")
        got, out, err = run_cli(capsys, "check", scene_file(text), "--samples", samples)
        assert (got, err) == (code, "")
        assert out.endswith("mode: real\n" + body)

    SPANS = (
        "chart R2 x y\nvector u = 1 ; 0\nvector t = 0 ; 1\nvector v = x ; 0\nvector w = y ; 0\n"
        "form a 1 = 1 1\n"
    )

    @pytest.mark.parametrize(
        "frames, equal, counts",
        [
            ("frame A = sections u 0 ; v 0\nframe B = sections u 0 ; w 0\n", True, (1, 0, 0)),
            ("frame A = sections u a ; v 0\nframe B = sections t a ; v 0\n", False, (1, 0, 0)),
            ("frame A = sections u 0 ; t 0\nframe B = sections v 0 ; t 0\n", True, (1, 0, 0)),
        ],
        ids=["isotropic-rank-1", "rank-2-not-isotropic", "lagrangian"],
    )
    def test_span_equality_evaluates_each_sample_point_once(self, evaluations, frames, equal, counts):
        # (image, exact matrix, exact scalar) evaluations: [m1 | m2] is
        # taken mod P once, every sampled rank and pairing is read from
        # that image, and nothing is evaluated exactly
        from dngeo.dirac import frames_equal_span

        scene = parse_scene(self.SPANS + frames)
        evaluations.update(image=0, matrix=0, scalar=0)
        assert frames_equal_span(scene.frames["A"], scene.frames["B"]) is equal
        assert (evaluations["image"], evaluations["matrix"], evaluations["scalar"]) == counts


class TestTimings:
    """--timings gives each check its own time: the times add up to no more
    than the whole run, and for selftest to most of it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["holomorphic", "tests/golden/holomorphic_pass.scene"],
            ["algebroid", "scenes/scalar_hierarchy.scene"],
            ["selftest", "--instances", "1"],
        ],
        ids=["holomorphic", "algebroid", "selftest"],
    )
    def test_check_times_fit_in_the_run(self, capsys, argv):
        root = Path(__file__).resolve().parent.parent
        argv = [str(root / a) if a.endswith(".scene") else a for a in argv]
        t0 = time.monotonic()
        code = main([*argv, "--timings"])
        wall_ms = (time.monotonic() - t0) * 1000
        out = capsys.readouterr().out
        elapsed = [float(v) for v in re.findall(r"^check\.\d+\.elapsed_ms: (.+)$", out, re.M)]
        assert code == 0 and elapsed
        # each printed time is rounded to 0.1 ms
        total_ms = sum(elapsed) - 0.05 * len(elapsed)
        assert total_ms <= wall_ms
        if argv[0] == "selftest":
            assert total_ms > wall_ms / 2


def test_the_package_runs_as_a_module():
    import subprocess

    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-m", "dngeo", "--version"], env={"PYTHONPATH": str(src)}, capture_output=True, text=True
    )
    assert out.returncode == 0 and out.stdout.startswith("dngeo ")
