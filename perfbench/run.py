"""altstar benchmark entry point.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One workload per process: the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (run_s, slowest_job_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones from a
separate traced pass.  Run metadata (Python version, nproc, git rev, seed,
load average, per-job medians) goes to stderr and to
``perfbench/out/result-<workload>-<seed>-trace<t>.json``.

``--workload all`` runs every workload in its own child process, one after
the other, and prints a table of the end-to-end metrics with failed_ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import harness


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=harness.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_all(args) -> int:
    rows = {}
    for workload in harness.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(f"error: {workload} exited {proc.returncode}\n")
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["metrics"]["failed_ratio"] = {
            "value": res["failed"] / res["attempted"], "unit": "ratio"}
        rows[workload] = res
    names = list(rows[harness.WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names) + 2
    print("metric".ljust(width) + "".join(w.rjust(14) for w in rows)
          + "  unit")
    for name in names:
        unit = rows[harness.WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:14.6g}"
                        for r in rows.values())
        print(name.ljust(width) + cells + "  " + unit)
    print(json.dumps({"correct": all(r["correct"] for r in rows.values()),
                      "attempted": sum(r["attempted"] for r in rows.values()),
                      "failed": sum(r["failed"] for r in rows.values()),
                      "workloads": rows}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "altstar", "cli.py")):
        sys.stderr.write(f"error: no altstar sources under {harness.SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, harness.SRC)
    if args.workload == "all":
        return _run_all(args)
    result, meta = harness.run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    os.makedirs(harness.OUT, exist_ok=True)
    path = os.path.join(harness.OUT, f"result-{args.workload}-{args.seed}"
                                     f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=2)
    sys.stderr.write(json.dumps(meta) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
