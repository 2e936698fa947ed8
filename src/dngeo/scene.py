"""Scene files: a small line-oriented declaration language for charts,
tensors, subbundle frames and check requests.

Grammar (one declaration per line; '#' starts a comment; 1-based indices;
integers are ASCII -?[0-9]+):

    chart <name> <var> ... [complex]
    scalar <name> = <expr>
    vector <name> = <expr> ; ... ; <expr>            n components
    oneone <name> = <expr> , ... ; ... ; <expr>      n rows of n entries
    bivector <name> = <i> <j> <expr> ; ...           upper components i < j
    form <name> <degree> = <i> ... <i> <expr> ; ...  strictly increasing tuples
    frame <name> = poisson <bivector>
    frame <name> = presymplectic <form>
    frame <name> = split <vector> ...
    frame <name> = sections <vector|0> <form|0> ; ...
    check <kind> <arg> ...

Check kinds: lagrangian F | involutive F | dirac F | nijenhuis R |
invariance F R | d_stability F R | dirac_nijenhuis F R | form_compat W R |
quasi F R PHI | concur F G | contraction_type F R | double_type F R |
holomorphic_dirac F R | holo_form W W1 R | traces F R JMAX | algebroid F [R].
These are the keys of `CHECKS`, which gives each kind its argument types.
`run_scene` resolves every argument of every check line before the first
check runs, so an unknown kind, a wrong arity or an unknown name is a
SceneError and never a verdict.

Errors carry the 1-based line and column of the offending token; an
expression is parsed as a slice of its line, so its errors name their
column in the line.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace

from .errors import (
    AdmissibilityError,
    DngeoError,
    ExprSyntaxError,
    PreconditionError,
)
from .symbolic import Chart, parse_scalar
from .courant import GSection
from .dirac import (
    PASS,
    GFrame,
    Verdict,
    _dn_steps,
    check_concur,
    check_contraction_type,
    check_D_stability,
    check_double_type,
    check_form_compat,
    check_invariance,
    check_involutive,
    check_lagrangian,
    check_nijenhuis,
    check_traces_involution,
    make_graph_poisson,
    make_graph_presymplectic,
    make_split,
    quasi_nijenhuis_check,
)
from .tensor import Bivector, OneOneTensor, PForm, VectorField


class SceneError(DngeoError):
    def __init__(self, message, line, col=1):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, col {col})")


@dataclass
class Scene:
    chart: Chart | None = None
    scalars: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    oneones: dict = field(default_factory=dict)
    bivectors: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (lineno, kind, args)

    def all_names(self):
        out = set()
        for d in (
            self.scalars,
            self.vectors,
            self.oneones,
            self.bivectors,
            self.forms,
            self.frames,
        ):
            out |= set(d)
        return out


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(word: str) -> int:
    """The int of an ASCII integer -?[0-9]+; ValueError for any other word
    (int() alone also reads other Unicode digits, '+', '_' and spaces)."""
    if not _INTEGER.fullmatch(word):
        raise ValueError(f"not an integer: {word!r}")
    return int(word)


# A span is (text, offset): a stripped slice of a scene line and the 0-based
# index of its first character in that line, so that an error inside it can
# name its column in the line.


def _span(line, start, end=None):
    """line[start:end] stripped, as a span."""
    text = line[start:end]
    return text.strip(), start + len(text) - len(text.lstrip())


def _split(span, sep):
    """The pieces of a span between the separators sep, as spans."""
    text, offset = span
    pieces = []
    start = 0
    for piece in text.split(sep):
        stripped, at = _span(text, start, start + len(piece))
        pieces.append((stripped, offset + at))
        start += len(piece) + len(sep)
    return pieces


def _words(span):
    """The whitespace-separated words of a span, as spans."""
    text, offset = span
    return [(m.group(), offset + m.start()) for m in re.finditer(r"\S+", text)]


def _tail(span, word):
    """The part of a span from one of its words to its end, as a span."""
    text, offset = span
    return text[word[1] - offset:], word[1]


def _parse_expr(span, chart, lineno, parsed):
    """The scalar of an expression span; `parsed` maps each text already
    parsed in this scene to its scalar, so an equal text is parsed once."""
    text, offset = span
    scalar = parsed.get(text)
    if scalar is None:
        try:
            scalar = parsed[text] = parse_scalar(text, chart)
        except ExprSyntaxError as e:
            raise SceneError(e.bare_message, lineno, offset + e.col) from None
    return scalar


def _check_new_entry(head, comps, idx, piece, lineno):
    """Refuse a component whose index tuple an earlier entry of the same
    declaration already set, naming the entry and its column."""
    if idx in comps:
        indices = " ".join(str(i + 1) for i in idx)
        raise SceneError(f"repeated {head} entry {indices}", lineno, piece[1] + 1)


def _need_chart(scene, lineno):
    if scene.chart is None:
        raise SceneError("no chart declared yet", lineno)
    return scene.chart


def _check_fresh(scene, name, lineno):
    if name in scene.all_names():
        raise SceneError(f"name {name!r} already declared", lineno)


def parse_scene(text: str, default_mode: str = "real") -> Scene:
    """Parse a scene; charts declared without an explicit mode use
    default_mode (settable from the command line).  Equal expression texts
    of one scene give one shared scalar, and so share its kept partial
    derivatives; two calls share none."""
    scene = Scene()
    parsed = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "chart":
            if scene.chart is not None:
                raise SceneError("chart already declared", lineno)
            words = rest.split()
            if len(words) < 2:
                raise SceneError("chart needs a name and variables", lineno)
            mode = default_mode
            if words[-1] in ("complex", "real"):
                mode = words[-1]
                words = words[:-1]
            try:
                scene.chart = Chart(words[0], tuple(words[1:]), mode)
            except ValueError as e:
                raise SceneError(str(e), lineno) from None
        elif head in ("scalar", "vector", "oneone", "bivector", "form"):
            chart = _need_chart(scene, lineno)
            name, eq, _ = rest.partition("=")
            nameparts = name.split()
            if not eq:
                raise SceneError(f"{head} declaration needs '='", lineno)
            # the head holds no '=', so the first one of the line is this one
            body = _span(code, code.index("=") + 1)
            if head == "form":
                if len(nameparts) != 2:
                    raise SceneError("form needs: form <name> <degree> = ...", lineno)
                name, degree_text = nameparts
                try:
                    degree = _integer(degree_text)
                except ValueError:
                    raise SceneError("form degree must be an integer", lineno) from None
                if degree < 0:
                    raise SceneError("negative form degree", lineno)
            else:
                if len(nameparts) != 1:
                    raise SceneError(f"bad {head} declaration", lineno)
                name = nameparts[0]
            _check_fresh(scene, name, lineno)
            n = chart.dim
            if head == "scalar":
                scene.scalars[name] = _parse_expr(body, chart, lineno, parsed)
            elif head == "vector":
                comps = _split(body, ";")
                if len(comps) != n:
                    raise SceneError(f"vector needs {n} components", lineno)
                scene.vectors[name] = VectorField(
                    chart, [_parse_expr(c, chart, lineno, parsed) for c in comps]
                )
            elif head == "oneone":
                rows = _split(body, ";")
                if len(rows) != n:
                    raise SceneError(f"oneone needs {n} rows", lineno)
                grid = []
                for r in rows:
                    cols = _split(r, ",")
                    if len(cols) != n:
                        raise SceneError(f"oneone rows need {n} entries", lineno)
                    grid.append([_parse_expr(c, chart, lineno, parsed) for c in cols])
                scene.oneones[name] = OneOneTensor(chart, grid)
            elif head == "bivector":
                comps = {}
                if body[0]:
                    for piece in _split(body, ";"):
                        words = _words(piece)
                        if len(words) < 3:
                            raise SceneError(
                                "bivector entries look like: <i> <j> <expr>", lineno
                            )
                        try:
                            i, j = _integer(words[0][0]) - 1, _integer(words[1][0]) - 1
                        except ValueError:
                            raise SceneError(
                                "bivector indices must be integers", lineno
                            ) from None
                        if not (0 <= i < j < n):
                            raise SceneError("bivector indices must satisfy 1 <= i < j <= n", lineno)
                        value = _parse_expr(_tail(piece, words[2]), chart, lineno, parsed)
                        _check_new_entry(head, comps, (i, j), piece, lineno)
                        comps[(i, j)] = value
                scene.bivectors[name] = Bivector(chart, comps)
            else:  # form
                comps = {}
                if body[0]:
                    for piece in _split(body, ";"):
                        words = _words(piece)
                        if len(words) < degree + 1:
                            raise SceneError(
                                f"form entries look like: {'<i> ' * degree}<expr>", lineno
                            )
                        try:
                            idx = tuple(_integer(w) - 1 for w, _ in words[:degree])
                        except ValueError:
                            raise SceneError(
                                "form indices must be integers", lineno
                            ) from None
                        if list(idx) != sorted(set(idx)) or any(
                            not 0 <= i < n for i in idx
                        ):
                            raise SceneError(
                                "form indices must be strictly increasing and in range",
                                lineno,
                            )
                        value = _parse_expr(_tail(piece, words[degree]), chart, lineno, parsed)
                        _check_new_entry(head, comps, idx, piece, lineno)
                        comps[idx] = value
                try:
                    scene.forms[name] = PForm(chart, degree, comps)
                except ValueError as e:
                    raise SceneError(str(e), lineno) from None
        elif head == "frame":
            chart = _need_chart(scene, lineno)
            name, eq, body = rest.partition("=")
            name = name.strip()
            if not eq:
                raise SceneError("frame declaration needs '='", lineno)
            _check_fresh(scene, name, lineno)
            words = body.strip().split()
            if not words:
                raise SceneError("empty frame declaration", lineno)
            constructor = words[0]
            try:
                if constructor == "poisson":
                    if len(words) != 2 or words[1] not in scene.bivectors:
                        raise SceneError("frame = poisson <bivector>", lineno)
                    scene.frames[name] = make_graph_poisson(scene.bivectors[words[1]])
                elif constructor == "presymplectic":
                    if len(words) != 2 or words[1] not in scene.forms:
                        raise SceneError("frame = presymplectic <2-form>", lineno)
                    scene.frames[name] = make_graph_presymplectic(scene.forms[words[1]])
                elif constructor == "split":
                    fields_ = []
                    for w in words[1:]:
                        if w not in scene.vectors:
                            raise SceneError(f"unknown vector {w!r}", lineno)
                        fields_.append(scene.vectors[w])
                    if not fields_:
                        raise SceneError("split frame needs at least one vector", lineno)
                    scene.frames[name] = make_split(fields_)
                elif constructor == "sections":
                    pieces = " ".join(words[1:]).split(";")
                    secs = []
                    for piece in pieces:
                        pw = piece.strip().split()
                        if len(pw) != 2:
                            raise SceneError(
                                "sections entries look like: <vector|0> <form|0>", lineno
                            )
                        vname, fname = pw
                        vec = (
                            VectorField.zero(chart)
                            if vname == "0"
                            else scene.vectors.get(vname)
                        )
                        cov = (
                            PForm.zero(chart, 1)
                            if fname == "0"
                            else scene.forms.get(fname)
                        )
                        if vec is None or cov is None:
                            raise SceneError(f"unknown section parts in {piece!r}", lineno)
                        if cov.degree != 1:
                            raise SceneError("section covector parts must be 1-forms", lineno)
                        secs.append(GSection(vec, cov))
                    scene.frames[name] = GFrame(secs)
                else:
                    raise SceneError(f"unknown frame constructor {constructor!r}", lineno)
            except SceneError:
                raise
            except DngeoError as e:
                raise SceneError(str(e), lineno) from None
            except ValueError as e:
                raise SceneError(str(e), lineno) from None
        elif head == "check":
            _need_chart(scene, lineno)
            words = rest.split()
            if not words:
                raise SceneError("empty check", lineno)
            scene.checks.append((lineno, words[0], tuple(words[1:])))
        else:
            raise SceneError(f"unknown declaration {head!r}", lineno)
    if scene.chart is None:
        raise SceneError("scene declares no chart", 1)
    return scene


# -- check dispatch ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    name: str
    verdict: Verdict
    elapsed: float = 0.0
    data: tuple = ()  # (key, value) report lines that precede the check


def timed(records) -> list:
    """Drain an iterable of CheckRecords whose elements are computed on
    demand, giving each record the time its own step took."""
    out = []
    it = iter(records)
    while True:
        t0 = time.monotonic()
        rec = next(it, None)
        if rec is None:
            return out
        out.append(replace(rec, elapsed=time.monotonic() - t0))


def decide(check, *args) -> Verdict:
    """check(*args), with an inadmissible trace as a failing verdict and an
    unmet precondition as an inconclusive one."""
    try:
        return check(*args)
    except AdmissibilityError as e:
        return Verdict.fail(("error", str(e)))
    except PreconditionError as e:
        return Verdict.inconclusive(("precondition", str(e)))


def _dirac(L, samples):
    lag = check_lagrangian(L, samples)
    return check_involutive(L, samples) if lag.status == PASS else lag


def _holomorphic_dirac(L, r, samples):
    from .holomorphic import ComplexStructure

    return Verdict.merge(_dn_steps(L, ComplexStructure(r).r, samples))


def _holo_form(omega, omega1, r, samples):
    from .holomorphic import ComplexStructure, check_holo_form

    return check_holo_form((omega, omega1), ComplexStructure(r))


def _algebroid(L, r, samples):
    from .algebroid import _im_steps, dirac_to_algebroid

    A, imf = dirac_to_algebroid(L, samples=samples)
    for _, v in _im_steps(A, imf, L, r):
        if v.status != PASS:
            break
    return v


# kind -> (argument types, check run on the resolved arguments and `samples`);
# a type ending in "?" is an optional trailing argument, None when left out.
# A public check is called through its module-level name, so that a wrapper
# installed on that name sees the call.
CHECKS = {
    "lagrangian": (("frame",), lambda L, samples: check_lagrangian(L, samples)),
    "involutive": (("frame",), lambda L, samples: check_involutive(L, samples)),
    "dirac": (("frame",), _dirac),
    "nijenhuis": (("oneone",), lambda r, samples: check_nijenhuis(r)),
    "invariance": (("frame", "oneone"), lambda L, r, samples: check_invariance(L, r, samples)),
    "d_stability": (("frame", "oneone"), lambda L, r, samples: check_D_stability(L, r, samples)),
    "dirac_nijenhuis": (("frame", "oneone"), lambda L, r, samples: Verdict.merge(_dn_steps(L, r, samples))),
    "form_compat": (("form", "oneone"), lambda w, r, samples: check_form_compat(w, r)),
    "quasi": (("frame", "oneone", "form"), lambda L, r, phi, samples: quasi_nijenhuis_check(L, r, phi)),
    "concur": (("frame", "frame"), lambda L1, L2, samples: check_concur(L1, L2, samples)),
    "contraction_type": (("frame", "oneone"), lambda L, r, samples: check_contraction_type(L, r, samples)),
    "double_type": (("frame", "oneone"), lambda L, r, samples: check_double_type(L, r, samples)),
    "holomorphic_dirac": (("frame", "oneone"), _holomorphic_dirac),
    "holo_form": (("form", "form", "oneone"), _holo_form),
    "traces": (
        ("frame", "oneone", "jmax"),
        lambda L, r, jmax, samples: check_traces_involution(L, r, jmax, samples),
    ),
    "algebroid": (("frame", "oneone?"), _algebroid),
}


def _argument(scene, lineno, kind, type_, word):
    if type_ == "jmax":
        try:
            jmax = _integer(word)
        except ValueError:
            raise SceneError(f"check {kind} needs an integer, not {word!r}", lineno) from None
        if jmax < 1:
            raise SceneError("traces jmax must be at least 1", lineno)
        return jmax
    obj = getattr(scene, type_ + "s").get(word)
    if obj is None:
        raise SceneError(f"unknown {type_} {word!r}", lineno)
    return obj


def _resolve(scene, lineno, kind, words):
    """The check of `kind` and its arguments looked up in the scene, or a
    SceneError naming the unknown kind, a wrong arity or the first bad
    argument."""
    if kind not in CHECKS:
        raise SceneError(f"unknown check kind {kind!r}", lineno)
    types, check = CHECKS[kind]
    least = sum(not t.endswith("?") for t in types)
    if not least <= len(words) <= len(types):
        counts = f"{least} or {len(types)}" if least < len(types) else least
        raise SceneError(f"check {kind} takes {counts} arguments", lineno)
    args = [_argument(scene, lineno, kind, t.rstrip("?"), w) for t, w in zip(types, words)]
    return check, args + [None] * (len(types) - len(words))


def run_check(scene: Scene, lineno: int, kind: str, args, samples: int = 3) -> Verdict:
    check, resolved = _resolve(scene, lineno, kind, args)
    try:
        return decide(check, *resolved, samples)
    except ValueError as e:
        raise SceneError(str(e), lineno) from None


def run_scene(scene: Scene, samples: int = 3) -> list:
    """Resolve every check line, then run the checks one by one."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    for lineno, kind, args in scene.checks:
        _resolve(scene, lineno, kind, args)
    return timed(
        CheckRecord(f"{kind} {' '.join(args)}".strip(), run_check(scene, lineno, kind, args, samples))
        for lineno, kind, args in scene.checks
    )
