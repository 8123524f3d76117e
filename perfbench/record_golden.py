"""Record golden digests of the benchmark's CLI reports.

    python3 perfbench/record_golden.py

For every workload, seeds 0-31 and the held-out seed, and every job, this
stores the exit code and the sha256 of stdout in ``perfbench/golden.json``,
replacing what was there.  A seed is recorded only if every job of its pass
passes the verdict oracle.  The traced run reports how many reports still
match as ``cli.golden_match_ratio``, so a refactor can show byte identity.
"""

from __future__ import annotations

import json
import sys

import harness

SEEDS = tuple(range(32)) + (harness.HELDOUT_SEED,)


def main() -> int:
    sys.path.insert(0, harness.SRC)
    table = {}
    for workload in harness.WORKLOADS:
        for seed in SEEDS:
            _, _, jobs = harness.setup(workload, seed, reps=1, min_seconds=0)
            checker = harness.Checker(workload, seed, jobs)
            outcomes = harness.run_pass(jobs).outcomes
            checker.check(outcomes)
            if checker.failed:
                sys.stderr.write(f"error: {workload} seed {seed}: "
                                 f"{checker.notes}\n")
                return 1
            for job, o in zip(jobs, outcomes):
                table[harness.golden_key(workload, seed, job.name)] = \
                    harness.digest(o)
            sys.stderr.write(f"{workload} seed {seed}: {len(jobs)} jobs\n")
    with open(harness.GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(table[k])}"
                                    for k in sorted(table)) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
