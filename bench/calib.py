"""Calibration kernel: a fixed piece of pure-Python work timed next to every job.

The benchmark runs on shared machines whose speed for the same instructions
drifts by a third within minutes; process CPU time drifts with wall time, so
the slowdown is per instruction, not time lost to other processes.  A job's
time is therefore reported as a multiple of this kernel's time, measured
right before and right after the job, which cancels the drift both share.

The kernel multiplies two fixed sparse polynomials held as dicts from
exponent tuples to Fractions, the same kind of work as dngeo's polynomial
core, but it imports nothing from dngeo: no change to the package can make
it faster or slower.  It takes about 2 ms on a 2-CPU x86-64 VM.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction


def _inputs():
    rng = random.Random(20210914)

    def poly():
        return {
            (rng.randrange(5), rng.randrange(5), rng.randrange(3)): Fraction(
                rng.randrange(-10**9, 10**9), rng.randrange(1, 10**4)
            )
            for _ in range(20)
        }

    return poly(), poly()


_A, _B = _inputs()


def kernel():
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            s = out.get(e)
            out[e] = ca * cb if s is None else s + ca * cb
    return out


def timed():
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
