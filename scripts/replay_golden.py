"""Replay every report in perfbench/golden.json and check it, read-only.

For each (workload, seed) in the golden table this writes the workload's
inputs to a temporary directory, runs each job through ``altstar.cli.main``
in this process, compares the exit code and the sha256 of stdout with the
table, and passes the report to ``verify`` in ``perfbench/oracle.py``,
which recomputes every witness.  It prints the number of matching digests
and exits 1 on any mismatch, oracle failure or golden entry left unplayed.
Nothing is written under ``perfbench/``, not even bytecode.

    python3 scripts/replay_golden.py

``replay(workload, seed, ...)`` is the one replay loop: the golden-report
tests load this file by path and call it on a few seeds.

The whole table (three workloads, seeds 0-31 and 7919, 792 reports) takes
about 85 s of wall time, 75 s of it CPU, on one core of a 2-core machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    mod = importlib.util.module_from_spec(spec)
    # the oracle imports its job type from the top-level module `workloads`
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def replay(workload: str, seed: int, golden: dict, workloads,
           oracle) -> tuple[int, list[str]]:
    """Run the jobs of *workload* at *seed* through ``altstar.cli.main``.

    Returns the number of digests that match *golden* and one line per
    failure: a digest mismatch, an oracle failure, or a golden entry of
    this workload and seed that no job played.  *workloads* and *oracle*
    are the loaded ``perfbench`` modules.
    """
    from altstar.cli import main as cli_main

    prefix = f"{workload}/{seed}/"
    played, matched, failures = set(), 0, []
    with tempfile.TemporaryDirectory() as workdir:
        for job in workloads.build(workload, seed, workdir):
            key = prefix + job.name
            played.add(key)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(list(job.argv))
            digest = hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest()
            if [code, digest] != golden.get(key):
                failures.append(f"{key}: digest mismatch")
                continue
            matched += 1
            try:
                oracle.verify(job, code, out.getvalue())
            except oracle.OracleError as exc:
                failures.append(f"{key}: oracle: {exc}")
    failures += [f"{key}: not replayed" for key in sorted(golden)
                 if key.startswith(prefix) and key not in played]
    return matched, failures


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    workloads = _load("workloads", "workloads.py")
    oracle = _load("perfbench_oracle", "oracle.py")
    golden = json.loads((PERFBENCH / "golden.json").read_text("utf-8"))
    runs = sorted({tuple(key.split("/")[:2]) for key in golden},
                  key=lambda ws: (ws[0], int(ws[1])))
    matched, failures = 0, []
    for workload, seed in runs:
        ok, lines = replay(workload, int(seed), golden, workloads, oracle)
        matched += ok
        failures += lines
    for line in failures:
        print(line)
    print(f"{matched} of {len(golden)} digests matched; "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
