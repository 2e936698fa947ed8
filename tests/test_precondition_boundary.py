"""A precondition is a verdict on the object it is about: a frame keeps its
lagrangian verdict per sample count, an algebroid its axiom verdict, and
each check asks the object.  So no public function under src/dngeo takes a
verdict as an argument, or a flag saying that its preconditions were
already checked: a caller could hand in one that does not hold."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dngeo"

# the names under which a decided precondition used to be handed in
HANDED_IN = {"checked", "lagrangian", "invariance", "algebroid_ok"}


def verdict_arguments(source):
    """(function, parameter) for each parameter of a public function that is
    annotated with Verdict or named as a handed-in precondition."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        a = node.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]:
            annotated = arg.annotation is not None and "Verdict" in ast.unparse(arg.annotation)
            if annotated or arg.arg in HANDED_IN:
                yield node.name, arg.arg


def test_the_guard_sees_the_pattern():
    code = (
        "def check_a(L, lagrangian: Verdict | None = None): pass\n"
        "def check_b(imf, T, checked: bool = False): pass\n"
        "def check_c(A, ok: 'Verdict'): pass\n"
        "class K:\n    def check_d(self, *, algebroid_ok=None): pass\n"
    )
    assert list(verdict_arguments(code)) == [
        ("check_a", "lagrangian"),
        ("check_b", "checked"),
        ("check_c", "ok"),
        ("check_d", "algebroid_ok"),
    ]
    clean = "def check_a(L, samples: int = 3) -> Verdict: pass\ndef _core(L, lagrangian: Verdict): pass\n"
    assert not list(verdict_arguments(clean))


def test_no_public_function_takes_a_verdict():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = {
        str(path.relative_to(PACKAGE)): list(verdict_arguments(path.read_text(encoding="utf-8")))
        for path in sources
    }
    leaks = {where: params for where, params in found.items() if params}
    assert not leaks, leaks
