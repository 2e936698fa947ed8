"""`selftest` workload: one job is one (identity, instance) of the identity
registry, exactly as `dngeo selftest` (seed 0, 3 instances) runs it.

Each identity is a theorem about exact objects, so the expected answer is
True for every instance.
"""

from __future__ import annotations

import random

from dngeo.identities import IDENTITIES

RUN_SEED = 0
INSTANCES = 3


def _job(name, k):
    fn = IDENTITIES[name]

    def run():
        # the rng is built exactly as identities.run_identity builds it
        return bool(fn(random.Random((RUN_SEED, name, k).__repr__()), k))

    return (f"selftest/{name}/{k}", run, _expect_true)


def _expect_true(result):
    return None if result is True else "identity did not hold"


def canonical(result):
    return repr(result)


def build_jobs():
    return [_job(name, k) for name in sorted(IDENTITIES) for k in range(INSTANCES)]
