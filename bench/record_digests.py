"""Record the sha256 digests of every checked output for some seeds.

Usage, from the root of a checkout:

    python3 bench/record_digests.py WORKLOAD SEED [SEED ...]

For each seed the workload's chain runs once; its outputs must pass every
ledger check, and their digests are then stored in digests.json, which
run.py compares later runs against. Record only from a commit whose outputs
are known to be right: a recorded digest is the reference bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def record(workload: str, seed: int) -> dict[str, str]:
    work = run.fresh_dir(run.WORK / ("record-%s-%d-%d" % (workload, seed, os.getpid())))
    deadline = time.monotonic() + run.RUN_BUDGET_S
    try:
        ledger = run.generate(workload, seed, work, deadline)
        digests: dict[str, str] = {}
        results = run.run_chain(run.chain(seed), work / "out", ledger,
                                digests, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = ["%s: %s" % (r.name, p) for r in results for p in r.problems]
    if problems:
        raise SystemExit("seed %d fails its checks:\n  %s"
                         % (seed, "\n  ".join(problems)))
    return digests


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    recorded = {}
    if run.DIGESTS_FILE.is_file():
        recorded = json.loads(run.DIGESTS_FILE.read_text(encoding="utf-8"))
    for seed in seeds:
        recorded.setdefault(workload, {})[str(seed)] = record(workload, seed)
        print("%s seed %d recorded" % (workload, seed), flush=True)
        run.DIGESTS_FILE.write_text(
            json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
