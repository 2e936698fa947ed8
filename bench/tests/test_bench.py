"""Tests of the benchmark itself (not collected by the package's test suite):

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402

# a few jobs of each workload that between them reach every traced layer
SMALL = {
    "selftest": ["selftest/holomorphic_hierarchy_square/0", "selftest/scalar_field_axioms/0"],
    "scenes": [
        "scenes/bundled/scalar_hierarchy.scene",
        "scenes/holomorphic_family.n2.real.32",
        "scenes/split_family.n3.real.24",
    ],
    "frames": ["frames/0.poisson.n3.real/solve.member", "frames/0.poisson.n3.real/kernel.transpose"],
}


def small_jobs():
    out = []
    for workload, ids in SMALL.items():
        module, jobs, _ = run.setup(workload)
        by_id = {job[0]: job for job in jobs}
        out += [(module, by_id[i]) for i in ids]
    return out


def traced_counts(jobs):
    tr = tracing.Tracer(extra_modules=[m for m, _ in jobs])
    tr.install()
    try:
        for module, (job_id, fn, verify) in jobs:
            tr.active = True
            try:
                result = fn()
            finally:
                tr.active = False
            assert verify(result) is None, job_id
    finally:
        tr.uninstall()
    return {
        name: (s.calls, s.hits, s.peak_terms, s.peak_degree) for name, s in tr.stats.items() if s.calls
    }


def test_traced_calls_equal_cprofile_ncalls():
    jobs = small_jobs()
    prof = cProfile.Profile()
    for _, (_, fn, _) in jobs:
        prof.enable()
        fn()
        prof.disable()
    ncalls = {}
    for (filename, line, _), (_, nc, _, _, _) in pstats.Stats(prof).stats.items():
        ncalls[(filename, line)] = nc
    counts = traced_counts(jobs)
    compared = 0
    for name, owner, attr in tracing.targets():
        code = tracing.inspect.getattr_static(owner, attr).__code__
        expected = ncalls.get((code.co_filename, code.co_firstlineno), 0)
        assert counts.get(name, (0,))[0] == expected, name
        compared += expected > 0
    # the small input reaches calls bound by from-import in other modules
    for name in ("symbolic.poly_gcd", "symbolic.divexact", "linalg.solve_linear", "dirac.frames_equal_span"):
        assert counts[name][0] > 0, name
    assert compared >= 30


def test_layer_counts_repeat_exactly():
    jobs = small_jobs()
    assert traced_counts(jobs) == traced_counts(jobs)


def test_every_pool_job_has_a_digest():
    for workload in run.WORKLOADS:
        _, jobs, _ = run.setup(workload)
        recorded = json.loads(run.digest_path(workload).read_text())
        assert sorted(job[0] for job in jobs) == sorted(recorded)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scenes", "--seed", "3"]
        + ["--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[key]
    }


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selftest", "--seed", "0"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_a_job_past_the_limit_or_raising_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "JOB_LIMIT_S", 0.2)

    class Module:
        canonical = staticmethod(repr)

    def spin():
        while True:
            pass

    def boom():
        raise ValueError("boom")

    dt, error, _ = run.run_job(("spin", spin, lambda r: None), Module, None)
    assert "limit" in error and dt < 5
    _, error, _ = run.run_job(("boom", boom, lambda r: None), Module, None)
    assert error == "raised ValueError: boom"
    _, error, _ = run.run_job(("ok", lambda: 1, lambda r: None), Module, {"ok": "0" * 16})
    assert error == "canonical output differs from the recorded digest"
