"""Golden reports: stdout bytes and exit code of each subcommand on fixed
inputs.  The files under tests/golden/ pin the default report format, so a
refactor of the front end must reproduce them byte for byte.

After a deliberate change to the report, re-record them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from dngeo.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCALAR = "scenes/scalar_hierarchy.scene"

# name -> (argv relative to the repository root, exit code)
CASES = {
    "check_worked_split": (["check", "scenes/worked_split.scene"], 1),
    "check_scalar_hierarchy": (["check", SCALAR], 0),
    "check_gauge_nonclosed": (["check", "scenes/gauge_nonclosed.scene"], 1),
    "hierarchy_n0_3": (["hierarchy", SCALAR, "--side", "n0", "--n", "3"], 0),
    "hierarchy_0n_2": (["hierarchy", SCALAR, "--side", "0n", "--n", "2"], 0),
    "traces_jmax_4": (["traces", SCALAR, "--jmax", "4"], 0),
    "algebroid_scalar": (["algebroid", SCALAR], 0),
    "holomorphic_not_complex": (["holomorphic", SCALAR], 2),
    "algebroid_gauge_nonclosed": (["algebroid", "scenes/gauge_nonclosed.scene"], 2),
    "holomorphic_pass": (["holomorphic", "tests/golden/holomorphic_pass.scene"], 0),
    "hierarchy_kernel": (
        ["hierarchy", "tests/golden/hierarchy_kernel.scene", "--side", "n0", "--n", "2"],
        1,
    ),
    "selftest_1": (["selftest", "--instances", "1"], 0),
    "check_samples_1": (["check", "tests/golden/samples_1.scene", "--samples", "1"], 2),
    "traces_precondition": (["traces", "tests/golden/traces_precondition.scene", "--jmax", "1"], 2),
    # failing witnesses: which (a, b, k) a concomitant or a contraction-type
    # test reports first, and the torsion terms
    "check_unstable_graph": (["check", "tests/golden/unstable_graph.scene"], 1),
    "check_contraction_fail": (["check", "tests/golden/contraction_fail.scene"], 1),
    # first witnesses past the first index: T[0,1,3] and T[1,2,3] on a
    # 4-chart, a double-bracket triple, a trace bracket [2,3], a pairing
    # [2,3], and the form, quasi and holomorphic components
    "check_first_witness": (["check", "tests/golden/first_witness.scene"], 1),
    # a product of three Dirac-Nijenhuis blocks on a 6-chart: every check
    # passes, and the double bracket is formed on more than two variables
    "check_product_r6": (["check", "tests/golden/product_r6.scene"], 0),
    # the algebroid chain on the same product, its frame solved in one
    # elimination per solve site
    "algebroid_product_r6": (["algebroid", "tests/golden/product_r6.scene"], 0),
    # transport fails on l, so its message is the one for l, not the one for
    # the derivations solved in the same elimination
    "check_transport_fails_on_l": (["check", "tests/golden/transport_fails_on_l.scene"], 2),
    "algebroid_transport_fails_on_l": (["algebroid", "tests/golden/transport_fails_on_l.scene"], 2),
    # exponents past any fixed field width, and operands of very different
    # degrees in one product, a sum and a dot
    "check_large_exponent": (["check", "tests/golden/large_exponent.scene"], 1),
    "check_wide_form": (["check", "tests/golden/wide_form.scene"], 0),
    "check_mixed_width_r3": (["check", "tests/golden/mixed_width_r3.scene"], 1),
    # the known-pass families H_4 and S_1: every check passes on nonconstant
    # Poisson graphs whose algebroid has nonzero structure functions
    "check_h4": (["check", "tests/golden/h4.scene"], 0),
    "algebroid_h4": (["algebroid", "tests/golden/h4.scene"], 0),
    "check_s1": (["check", "tests/golden/s1.scene"], 0),
    "algebroid_s1": (["algebroid", "tests/golden/s1.scene"], 0),
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(ROOT / a) if a.startswith(("scenes/", "tests/")) else a for a in argv])
    return out.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    argv, expected_code = CASES[name]
    text, code = run(argv)
    assert code == expected_code
    assert text == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name, (argv, expected_code) in sorted(CASES.items()):
        text, code = run(argv)
        (GOLDEN / f"{name}.out").write_text(text)
        print(f"{name}: exit {code}" + ("" if code == expected_code else f" (table says {expected_code})"))
