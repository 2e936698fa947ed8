"""Scene-text fuzzing: the bundled scenes, mutated a few tokens or lines at a
time, go through every scene subcommand.  Whatever the text, the exit code is
0-3 and no exception escapes `main`; exit 3 writes exactly one `error:` line
to stderr, and every other exit code writes nothing there."""

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dngeo.cli import main

ROOT = Path(__file__).resolve().parent.parent
TEXTS = tuple(
    p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("scenes/*.scene")) + sorted(ROOT.glob("tests/golden/*.scene"))
)
TOKEN = re.compile(r"\s+|\w+|[^\w\s]")
# every token of the corpus, plus a few the grammar never expects
ALPHABET = sorted({t for text in TEXTS for t in TOKEN.findall(text) if not t.isspace()} | {"\n", "0/0", "é", "@", "²", "٣"})
COMMANDS = (
    ("check",),
    ("hierarchy", "--side", "n0", "--n", "2"),
    ("traces", "--jmax", "2"),
    ("holomorphic",),
    ("algebroid",),
)
EDITS = st.tuples(
    st.sampled_from(("replace", "delete", "insert", "duplicate")),
    st.integers(0, 10**4),
    st.sampled_from(ALPHABET),
)


def mutate(text, edits):
    """`text` after each (kind, position, token) edit in turn: replace,
    delete or insert a token, or duplicate a line; positions wrap around."""
    for kind, at, token in edits:
        if kind == "duplicate":
            lines = text.splitlines(keepends=True)
            line = lines[at % len(lines)]
            lines.insert(at % len(lines), line if line.endswith("\n") else line + "\n")
            text = "".join(lines)
            continue
        tokens = TOKEN.findall(text)
        if kind == "insert":
            tokens.insert(at % (len(tokens) + 1), token)
        elif kind == "replace":
            tokens[at % len(tokens)] = token
        else:
            del tokens[at % len(tokens)]
        text = "".join(tokens)
    return text


def test_mutated_scenes_keep_the_exit_code_contract(tmp_path, capsys):
    codes = set()

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(TEXTS), st.lists(EDITS, min_size=1, max_size=3))
    def check(text, edits):
        path = tmp_path / "fuzz.scene"
        path.write_text(mutate(text, edits), encoding="utf-8")
        for command in COMMANDS:
            code = main([command[0], str(path), *command[1:]])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3)
            if code == 3:
                assert re.fullmatch(r"error: [^\n]*\n", err), err
            else:
                assert err == ""
            codes.add(code)

    check()
    assert codes == {0, 1, 2, 3}
