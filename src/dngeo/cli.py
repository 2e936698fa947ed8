"""Batch front end.

Subcommands: check, hierarchy, traces, holomorphic, algebroid, selftest.
Reports are stable key-value documents, byte-identical across runs for the
same inputs (timings are opt-in precisely to keep that property).  Exit
codes: 0 all pass, 1 any fail, 2 any inconclusive and none failed, 3
usage or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import __version__
from .errors import DngeoError, HierarchyKernelError, PreconditionError
from .symbolic.scalar import to_str
from .dirac import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    Verdict,
    _dn_steps,
    check_traces_involution,
    hierarchy,
    traces,
)
from .scene import CheckRecord, SceneError, _integer, decide, parse_scene, run_scene, timed

REPORT_FORMAT = "report-v1"
SCENE_FORMAT = "scene-v1"
EXIT_CODES = {PASS: 0, FAIL: 1, INCONCLUSIVE: 2}


def _report(args, header, records, footer=()) -> int:
    """Write the report for `records` to stdout (and to --output); return the
    exit code.  `header` and `footer` are (key, value) lines."""
    lines = [("tool", f"dngeo {__version__}"), ("format", REPORT_FORMAT), *header]
    for i, rec in enumerate(records):
        lines += rec.data
        lines += [(f"check.{i}.name", rec.name), (f"check.{i}.verdict", rec.verdict.status)]
        for wname, wval in rec.verdict.witnesses:
            lines.append((f"check.{i}.witness.{wname}", wval if isinstance(wval, str) else to_str(wval)))
        if args.timings:
            lines.append((f"check.{i}.elapsed_ms", f"{rec.elapsed * 1000:.1f}"))
    status = Verdict.merge((rec.name, rec.verdict) for rec in records).status
    lines += [*footer, ("checks", len(records)), ("status", status)]
    text = "".join(f"{k}: {v}\n" for k, v in lines)
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_CODES[status]


def _load_scene(args, kind: str):
    """The scene named on the command line and the header of its report."""
    with open(args.scene, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SceneError(f"scene is not UTF-8 text ({e.reason})", data.count(b"\n", 0, e.start) + 1) from None
    scene = parse_scene(text, default_mode=args.mode)
    header = [
        ("kind", kind),
        ("scene", "sha256:" + hashlib.sha256(data).hexdigest()),
        ("scene_format", SCENE_FORMAT),
        ("mode", scene.chart.mode),
    ]
    return scene, header


def _unique(table: dict, flag_value, what: str):
    """The entry named by --<what>, or the scene's only one; a usage error
    names the flag, since it has no position in the scene."""
    if flag_value is not None:
        if flag_value not in table:
            raise DngeoError(f"unknown {what} {flag_value!r} (--{what})")
        return table[flag_value]
    if not table:
        raise DngeoError(f"scene declares no {what}s")
    if len(table) != 1:
        raise DngeoError(f"scene declares {len(table)} {what}s; pass --{what} to pick one")
    return next(iter(table.values()))


def _components(values) -> str:
    return "(" + ", ".join(to_str(c) for c in values) + ")"


def cmd_check(args) -> int:
    scene, header = _load_scene(args, "check")
    if not scene.checks:
        raise DngeoError("scene declares no checks")
    return _report(args, header, run_scene(scene, args.samples))


def cmd_hierarchy(args) -> int:
    scene, header = _load_scene(args, "hierarchy")
    frame = _unique(scene.frames, args.frame, "frame")
    r = _unique(scene.oneones, args.oneone, "oneone")
    dim = scene.chart.dim

    def steps():
        for step in range(1, args.n + 1):
            try:
                member = hierarchy(frame, r, step, args.side, args.samples)
            except HierarchyKernelError as e:
                yield CheckRecord(f"hierarchy[{step}]", Verdict.fail(("kernel", str(e))))
                return
            data = []
            for a, s in enumerate(member.sections):
                data.append((f"frame.{step}.section.{a}.vec", _components(s.vec.comps)))
                data.append((f"frame.{step}.section.{a}.cov", _components(s.cov.get((i,)) for i in range(dim))))
            verdict = Verdict.merge(_dn_steps(member, r, args.samples))
            yield CheckRecord(f"dirac_nijenhuis hierarchy[{step}]", verdict, data=tuple(data))

    return _report(args, header + [("side", args.side), ("n", args.n)], timed(steps()))


def cmd_traces(args) -> int:
    scene, header = _load_scene(args, "traces")
    frame = _unique(scene.frames, args.frame, "frame")
    r = _unique(scene.oneones, args.oneone, "oneone")

    def steps():
        data = tuple((f"trace.{j}", to_str(phi)) for j, phi in enumerate(traces(r, args.jmax), start=1))
        verdict = decide(check_traces_involution, frame, r, args.jmax, args.samples)
        yield CheckRecord(f"traces_involution jmax={args.jmax}", verdict, data=data)

    return _report(args, header + [("jmax", args.jmax)], timed(steps()))


def cmd_holomorphic(args) -> int:
    from .holomorphic import ComplexStructure

    scene, header = _load_scene(args, "holomorphic")
    frame = _unique(scene.frames, args.frame, "frame")
    r = _unique(scene.oneones, args.oneone, "oneone")

    def steps():
        try:
            J = ComplexStructure(r)
        except PreconditionError as e:
            yield CheckRecord("complex_structure", Verdict.inconclusive(("precondition", str(e))))
            return
        for name, verdict in _dn_steps(frame, J.r, args.samples):
            yield CheckRecord(f"holomorphic_dirac.{name}", verdict)

    return _report(args, header, timed(steps()))


def cmd_algebroid(args) -> int:
    from .algebroid import _im_steps, dirac_to_algebroid

    scene, header = _load_scene(args, "algebroid")
    frame = _unique(scene.frames, args.frame, "frame")
    r = _unique(scene.oneones, args.oneone, "oneone") if scene.oneones or args.oneone else None

    def steps():
        try:
            A, imf = dirac_to_algebroid(frame, samples=args.samples)
        except PreconditionError as e:
            yield CheckRecord("dirac_to_algebroid", Verdict.inconclusive(("precondition", str(e))))
            return
        data = [(f"anchor.{a}", _components(A.anchors[a].comps)) for a in range(A.rank)]
        data += [(f"struct.{a + 1}.{b + 1}.{c + 1}", to_str(v)) for (a, b, c), v in sorted(A.struct.items())]
        for name, verdict in _im_steps(A, imf, frame, r):
            yield CheckRecord(name, verdict, data=tuple(data))
            data = ()

    return _report(args, header, timed(steps()))


def cmd_selftest(args) -> int:
    from .identities import IDENTITIES, run_identity

    def record(name):
        fails = run_identity(name, args.seed, args.instances)
        verdict = Verdict.ok() if fails == 0 else Verdict.fail(("failing_instances", str(fails)))
        return CheckRecord(f"identity.{name}", verdict)

    records = timed(record(name) for name in sorted(IDENTITIES))
    failures = sum(int(count) for rec in records for _, count in rec.verdict.witnesses)
    header = [("kind", "selftest"), ("scene", "selftest"), ("mode", "real")]
    header += [("seed", args.seed), ("instances", args.instances)]
    footer = [
        ("identities", len(records)),
        ("instances_total", len(records) * args.instances),
        ("failures_total", failures),
    ]
    return _report(args, header, records, footer)


def _positive_int(text: str) -> int:
    try:
        value = _integer(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dngeo",
        description="Exact symbolic checks for compatibility structures on charts.",
    )
    p.add_argument("--version", action="version", version=f"dngeo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scene=True):
        if scene:
            sp.add_argument("scene", help="scene file path")
            sp.add_argument("--samples", type=_positive_int, default=3, help="sample-point count")
            sp.add_argument(
                "--mode",
                choices=("real", "complex"),
                default="real",
                help="default scalar mode for charts declared without one",
            )
        sp.add_argument("--output", help="also write the report to this path")
        sp.add_argument(
            "--timings",
            action="store_true",
            help="include each check's own wall-clock time (makes reports non-reproducible)",
        )

    sp = sub.add_parser("check", help="run the checks declared in a scene")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("hierarchy", help="emit and check hierarchy members")
    common(sp)
    sp.add_argument("--side", required=True, choices=("n0", "0n"))
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--frame", help="frame name (defaults to the unique one)")
    sp.add_argument("--oneone", help="tensor name (defaults to the unique one)")
    sp.set_defaults(fn=cmd_hierarchy)

    sp = sub.add_parser("traces", help="trace functions and their involution")
    common(sp)
    sp.add_argument("--jmax", type=_positive_int, required=True)
    sp.add_argument("--frame")
    sp.add_argument("--oneone")
    sp.set_defaults(fn=cmd_traces)

    sp = sub.add_parser("holomorphic", help="holomorphic-Dirac report for (frame, J)")
    common(sp)
    sp.add_argument("--frame")
    sp.add_argument("--oneone")
    sp.set_defaults(fn=cmd_holomorphic)

    sp = sub.add_parser("algebroid", help="algebroid data and infinitesimal checks")
    common(sp)
    sp.add_argument("--frame")
    sp.add_argument("--oneone")
    sp.set_defaults(fn=cmd_algebroid)

    sp = sub.add_parser("selftest", help="run the built-in identity suite")
    common(sp, scene=False)
    sp.add_argument("--seed", type=int, default=0, help="seed for the randomized identity suite")
    sp.add_argument("--instances", type=_positive_int, default=3)
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; the contract says 3
        return 3 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SceneError, DngeoError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
