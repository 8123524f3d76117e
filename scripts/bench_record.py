"""Run the benchmark on a base revision and on HEAD, and record both.

    python3 scripts/bench_record.py BASE --out BENCH_<n>.json

Each revision is exported with ``git archive`` into its own temporary
directory, and ``perfbench/run.py`` runs there from its committed files, so
the only file this writes in the checkout is ``--out`` (each run also
writes its own ``perfbench/out/`` inside the temporary export).  For every
workload, at seed 1 and at the held-out seed 7919, it runs 10 base/head
pairs at ``--trace 0`` and 3 at ``--trace 1``, alternating which revision
goes first.  The traced counters repeat exactly from run to run, but the
traced times do not, so the summary reports the median of the 3.  Every run
lasts the ``run_seconds`` that ``BENCHMARK.json`` fixes.  The output holds
every run's result line and per-job medians, both git revs, the Python
version and ``nproc``, and a summary: per metric, the median of each
revision, the quartiles of the base runs and how many pairs HEAD won (the
direction is read from ``BENCHMARK.json``).  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("catalog", "falsify", "dense-basis")
SEEDS = (1, 7919)
TRACES = (0, 1)
PAIRS = 10  # at least ten alternating pairs back a claimed gain
TRACED_PAIRS = 3  # a median of the traced per-layer times


def _git(*args: str) -> bytes:
    return subprocess.run(("git", "-C", str(ROOT)) + args, check=True,
                          stdout=subprocess.PIPE).stdout


def commit(ap: argparse.ArgumentParser, rev: str) -> str:
    """The commit that rev names; a usage error (exit 2) if none."""
    try:
        return _git("rev-parse", "--verify", "--quiet",
                    f"{rev}^{{commit}}").decode().strip()
    except subprocess.CalledProcessError:
        ap.error(f"{rev!r} names no commit")


def export(rev: str, into: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(into)


def _run(checkout: str, workload: str, seed: int, trace: int,
         seconds: float) -> dict:
    proc = subprocess.run(
        (sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace),
         "--seconds", str(seconds)),
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} trace {trace} "
                         f"exited {proc.returncode}:\n{proc.stderr}")
    out = Path(checkout, "perfbench", "out",
               f"result-{workload}-{seed}-trace{trace}.json")
    meta = json.loads(out.read_text(encoding="utf-8"))["meta"]
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "passes": meta["passes"], "job_s_median": meta["job_s_median"]}


def _summary(pairs: list[tuple[dict, dict]], better: dict) -> dict:
    out = {}
    for name in pairs[0][0]["result"]["metrics"]:
        base = [b["result"]["metrics"][name]["value"] for b, _ in pairs]
        head = [h["result"]["metrics"][name]["value"] for _, h in pairs]
        row = {"base_median": median(base), "head_median": median(head)}
        if len(base) > 1:
            q1, _, q3 = quantiles(base, n=4, method="inclusive")
            row["base_quartiles"] = [q1, q3]
        if name in better:
            sign = 1 if better[name] == "lower" else -1
            row["head_wins"] = sum(sign * (h - b) < 0
                                   for b, h in zip(base, head))
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="the revision to compare against")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    revs = {side: commit(ap, rev)
            for side, rev in (("base", args.base), ("head", "HEAD"))}
    record = {"revs": revs, "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "seconds": seconds, "pairs": PAIRS,
              "traced_pairs": TRACED_PAIRS,
              "runs": [], "summary": {}}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for side, rev in revs.items():
            checkouts[side] = os.path.join(tmp, side)
            export(rev, checkouts[side])
        for seed in SEEDS:
            for trace in TRACES:
                for workload in WORKLOADS:
                    pairs = []
                    for k in range(TRACED_PAIRS if trace else PAIRS):
                        order = ("base", "head") if k % 2 == 0 \
                            else ("head", "base")
                        got = {}
                        for side in order:
                            got[side] = _run(checkouts[side], workload,
                                             seed, trace, seconds)
                            record["runs"].append(
                                {"rev": side, "workload": workload,
                                 "seed": seed, "trace": trace, "pair": k,
                                 **got[side]})
                            sys.stderr.write(
                                f"{workload} seed {seed} trace {trace} "
                                f"pair {k} {side} done\n")
                        pairs.append((got["base"], got["head"]))
                    record["summary"][f"{workload}/{seed}/trace{trace}"] = \
                        _summary(pairs, better)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
