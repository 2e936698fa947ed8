"""dngeo benchmark: closed-loop jobs from one process and one thread.

    python3 bench/run.py --workload selftest|scenes|frames --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; dngeo is imported from its `src`.
The seed orders the fixed job pool of the workload in every round; whole
rounds run until S seconds of jobs have been measured.  Every answer is
checked against an oracle and against the digest recorded in
`bench/digests/`.  The calibration kernel of `calib.py` is timed between
jobs and set-ups.  Job times are reported as multiples of it, and set-up
time in seconds at the speed where it takes CAL_REF_S; this cancels the
drift of a shared machine's speed.  With --trace 0 the last line of output
is a JSON object with the end-to-end metrics; with --trace 1 rounds
alternate untraced and traced, and the JSON holds the per-layer metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import calib
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"selftest": "wl_selftest", "scenes": "wl_scenes", "frames": "wl_frames"}
SETUP_REPEATS = 7
CAL_REF_S = 0.002  # setup_s is given at the speed where the calibration kernel takes this
JOB_LIMIT_S = 20.0  # a job running longer counts as failed
HARD_STOP_S = 120.0  # no new job starts after this much measuring


class JobTimeout(BaseException):
    """Raised inside a job that ran past JOB_LIMIT_S (not an Exception, so the
    package cannot swallow it)."""


def _on_alarm(signum, frame):
    raise JobTimeout


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_path(workload):
    return HERE / "digests" / f"{workload}.json"


def _purge():
    for name in list(sys.modules):
        if name == "dngeo" or name.startswith("dngeo.") or name == "polys" or name in WORKLOADS.values():
            del sys.modules[name]


def setup(workload):
    """Import dngeo and build the job pool; returns (module, jobs, seconds)."""
    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[workload])
    jobs = module.build_jobs()
    return module, jobs, time.perf_counter() - t0


def timed_setup(workload):
    """Time SETUP_REPEATS fresh set-ups; keeps the last pool.

    Returns (module, jobs, median set-up time in cal, median set-up seconds).
    """
    cals, times = [], []
    for _ in range(SETUP_REPEATS):
        _purge()
        before = calibrate()
        module, jobs, dt = setup(workload)
        after = calibrate()
        cals.append(dt / ((before + after) / 2))
        times.append(dt)
    return module, jobs, statistics.median(cals), statistics.median(times)


def run_job(job, module, recorded, tracer=None):
    """Run one job; returns (seconds, error or None, canonical text or None)."""
    job_id, run, verify = job
    # start every job from the same collector state, whatever ran before it
    gc.collect()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.active = True
        result = run()
        error = None
    except JobTimeout:
        error = f"ran past the {JOB_LIMIT_S:g} s limit"
    except Exception as e:  # a raising job is a failed job, the run goes on
        error = f"raised {type(e).__name__}: {e}"
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.active = False
    if error is not None:
        return dt, error, None
    try:
        error = verify(result)
        text = module.canonical(result)
    except Exception as e:  # an answer of an unexpected shape
        return dt, f"answer could not be checked: {type(e).__name__}: {e}", None
    if error is None and recorded is not None:
        want = recorded.get(job_id)
        if want is None:
            error = "no recorded digest"
        elif want != digest(text):
            error = "canonical output differs from the recorded digest"
    return dt, error, text


def calibrate():
    """Seconds the calibration kernel takes now, from a clean collector."""
    gc.collect()
    return calib.timed()


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(workload, seed, seconds, trace):
    module, jobs, setup_cal, setup_wall_s = timed_setup(workload)
    import dngeo

    if Path(dngeo.__file__).resolve().parent != ROOT / "src" / "dngeo":
        raise SystemExit(f"error: dngeo imported from {dngeo.__file__}, not from this checkout")
    recorded = json.loads(digest_path(workload).read_text())
    rng = random.Random(seed)
    order = list(range(len(jobs)))
    times, cals, failures = [], [], []
    round_cal = {False: 0.0, True: 0.0}
    rounds = {False: 0, True: 0}
    tracer = tracing.Tracer(extra_modules=[module]) if trace else None
    start = time.perf_counter()
    traced = False
    stopped = False
    while not stopped:
        rng.shuffle(order)
        if traced:
            tracer.install()
        spent = 0.0
        before = calibrate()
        for i in order:
            dt, error, _ = run_job(jobs[i], module, recorded, tracer if traced else None)
            after = calibrate()
            # the job in units of the kernel timed right before and after it
            cal = dt / ((before + after) / 2)
            before = after
            spent += cal
            times.append(dt)
            cals.append(cal)
            if error is not None:
                failures.append((jobs[i][0], error))
            if time.perf_counter() - start > HARD_STOP_S:
                stopped = True
                break
        if traced:
            tracer.uninstall()
        round_cal[traced] += spent
        rounds[traced] += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or traced):
            break
        if trace:
            traced = not traced
    return {
        "setup_cal": setup_cal,
        "setup_wall_s": setup_wall_s,
        "times": times,
        "cals": cals,
        "failures": failures,
        "round_cal": round_cal,
        "rounds": rounds,
        "tracer": tracer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(m):
    cals = sorted(m["cals"])
    return {
        "setup_s": (m["setup_cal"] * CAL_REF_S, "s"),
        "jobs_per_cal": (len(cals) / sum(cals), "1/cal"),
        "job_cal.p50": (statistics.median(cals), "cal"),
        "job_cal.p90": (percentile(cals, 0.9), "cal"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def wall_clock(m):
    """The same figures in seconds, printed for reading but not reported:
    they move with the machine's speed as much as with the code's."""
    times = sorted(m["times"])
    return {
        "setup_wall_s": (m["setup_wall_s"], "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_ms.p50": (statistics.median(times) * 1000.0, "ms"),
        "job_ms.p90": (percentile(times, 0.9) * 1000.0, "ms"),
    }


def per_layer(m):
    tr = m["tracer"]
    k = max(1, m["rounds"][True])  # 0 only when the hard stop cut the first round
    out = {}

    def stat(name):
        return tr.stats.get(name) or tracing.Stat()

    for name in ("poly_mul", "poly_gcd", "divexact", "scalar_canon"):
        s = stat(f"symbolic.{name}")
        out[f"symbolic.{name}.calls"] = (s.calls / k, "count")
        out[f"symbolic.{name}.self_s"] = (s.self_s / k, "s")
    mul = stat("symbolic.poly_mul")
    out["symbolic.poly_mul.peak_terms"] = (mul.peak_terms, "count")
    out["symbolic.poly_mul.peak_degree"] = (mul.peak_degree, "count")
    gcd = stat("symbolic.poly_gcd")
    out["symbolic.poly_gcd.trivial_frac"] = (gcd.hits / gcd.calls if gcd.calls else 0.0, "ratio")
    for name in ("parse_scalar", "to_str"):
        out[f"symbolic.{name}.self_s"] = (stat(f"symbolic.{name}").self_s / k, "s")
    for name in ("generic_rank", "solve_linear", "kernel_basis", "rank_at_samples"):
        s = stat(f"linalg.{name}")
        out[f"linalg.{name}.calls"] = (s.calls / k, "count")
        out[f"linalg.{name}.self_s"] = (s.self_s / k, "s")
    solve = stat("linalg.solve_linear")
    out["linalg.solve_linear.none_frac"] = (solve.hits / solve.calls if solve.calls else 0.0, "ratio")
    counted = {
        "tensor": ("lie_bracket", "nijenhuis_torsion", "D_r", "D_r_star", "interior", "ext_d"),
        "courant": ("pairing", "courant_bracket", "big_D", "concomitant_CL"),
        "dirac": ("check_lagrangian", "frames_equal_span", "hierarchy"),
    }
    for layer, names in counted.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = (stat(f"{layer}.{name}").calls / k, "count")
    for layer in ("tensor", "courant", "dirac", "holomorphic", "algebroid"):
        out[f"{layer}.self_s"] = (tr.group_self_s(layer) / k, "s")
    for name in ("parse_scene", "run_check"):
        out[f"scene.{name}.self_s"] = (stat(f"scene.{name}").self_s / k, "s")
    base = m["round_cal"][False] / m["rounds"][False]
    out["trace.overhead_frac"] = (m["round_cal"][True] / k / base - 1.0, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dngeo" / "__init__.py").is_file():
        print(f"error: no dngeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    m = measure(args.workload, args.seed, args.seconds, args.trace)
    metrics = per_layer(m) if args.trace else end_to_end(m)
    attempted, failed = len(m["times"]), len(m["failures"])
    for job_id, error in m["failures"][:20]:
        print(f"failed: {job_id}: {error}", file=sys.stderr)
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"jobs: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.4f}")
    print(f"rounds: {m['rounds'][False]} untraced, {m['rounds'][True]} traced")
    shown = metrics if args.trace else {**wall_clock(m), **metrics}
    for name, (value, unit) in shown.items():
        print(f"{name}: {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
