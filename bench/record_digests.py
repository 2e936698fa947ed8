"""Record the digest of every job's canonical output for one workload.

    python3 bench/record_digests.py selftest|scenes|frames

A job is recorded only if its oracle accepts the answer, so a wrong answer
can never become the reference.  Re-record only for a change that is meant
to alter report bytes, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in run.WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    workload = argv[0]
    sys.path.insert(0, str(run.ROOT / "src"))
    module, jobs, _ = run.setup(workload)
    out = {}
    for job in jobs:
        _, error, text = run.run_job(job, module, None)
        if error is not None:
            print(f"error: {job[0]}: {error}", file=sys.stderr)
            return 1
        out[job[0]] = run.digest(text)
    run.digest_path(workload).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} digests for {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
