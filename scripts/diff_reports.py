"""Run the golden job list on a revision and on this checkout; diff reports.

    python3 scripts/diff_reports.py REV

REV is exported with ``git archive`` into a temporary directory, as
``scripts/bench_record.py`` does.  The job list is built once, as
``scripts/replay_golden.py`` builds it: for every (workload, seed) in
``perfbench/golden.json``, this checkout's ``perfbench/workloads.py``
writes the inputs to a temporary directory.  Every job then runs through
``altstar.cli.main`` of REV's ``src`` and of this checkout's ``src`` (HEAD
with any uncommitted edit), in one fresh interpreter per revision, so no
module state crosses between them; the two run side by side.

Each job whose exit codes or JSON documents differ is printed with both
exit codes and the JSON paths whose values differ, then a one-line
summary.  The exit code is 1 if any job differs, and 2 if REV names no
commit.  Nothing is written under ``perfbench/``, not even bytecode.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from bench_record import commit, export
from replay_golden import PERFBENCH, ROOT, golden_runs, load_perfbench

# each revision runs its jobs in a child: argv is SRC JOBS OUT
_WORKER = """
import contextlib, io, json, sys
src, jobs, out = sys.argv[1:]
sys.path.insert(0, src)
from altstar.cli import main
results = {}
with open(jobs, encoding="utf-8") as fh:
    for key, argv in json.load(fh):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # an option REV does not know
                code = exc.code
        results[key] = [code, stdout.getvalue()]
with open(out, "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def diff_paths(a, b, path: str = "$") -> list[str]:
    """The JSON paths at which documents a and b differ, in a's order.

    A key or an index present on one side only is a path of its own, and
    so is a value whose type differs (true is not 1).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in list(a) + [k for k in b if k not in a]:
            sub = (f"{path}.{key}" if key.isidentifier()
                   else f"{path}[{json.dumps(key)}]")
            out += (diff_paths(a[key], b[key], sub) if key in a and key in b
                    else [sub])
        return out
    if isinstance(a, list) and isinstance(b, list):
        out = []
        for k in range(max(len(a), len(b))):
            sub = f"{path}[{k}]"
            out += (diff_paths(a[k], b[k], sub) if k < min(len(a), len(b))
                    else [sub])
        return out
    return [] if type(a) is type(b) and a == b else [path]


def _document(stdout: str):
    """A report as JSON data; no stdout (an input error) is None."""
    return json.loads(stdout) if stdout else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the revision to compare against")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    rev = commit(ap, args.rev)
    workloads = load_perfbench("workloads", "workloads.py")
    golden = json.loads((PERFBENCH / "golden.json").read_text("utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for workload, seed in golden_runs(golden):
            inputs = os.path.join(tmp, "inputs", workload, str(seed))
            jobs += [(f"{workload}/{seed}/{job.name}", list(job.argv))
                     for job in workloads.build(workload, seed, inputs)]
        jobs_path = os.path.join(tmp, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        export(rev, os.path.join(tmp, "rev"))
        sides = {"rev": os.path.join(tmp, "rev", "src"),
                 "head": str(ROOT / "src")}
        # -I ignores PYTHONPATH, so each child imports only its own src
        children = {side: subprocess.Popen(
            (sys.executable, "-I", "-B", "-c", _WORKER, src, jobs_path,
             os.path.join(tmp, f"{side}.json")))
            for side, src in sides.items()}
        for side, code in [(side, child.wait())
                           for side, child in children.items()]:
            if code != 0:
                raise SystemExit(f"error: the {side} run exited {code}")
        results = {}
        for side in sides:
            with open(os.path.join(tmp, f"{side}.json"),
                      encoding="utf-8") as fh:
                results[side] = json.load(fh)
    differ = 0
    for key, _ in jobs:
        (old_code, old_out), (new_code, new_out) = (results["rev"][key],
                                                    results["head"][key])
        paths = diff_paths(_document(old_out), _document(new_out))
        if old_code != new_code or paths:
            differ += 1
            print(f"{key}: exit {old_code} -> {new_code}")
            for path in paths:
                print(f"  {path}")
    print(f"{differ} of {len(jobs)} jobs differ between {rev[:12]} "
          f"and this checkout")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
