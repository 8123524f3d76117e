"""Single-process harness: set up a workload, run its jobs, check them.

Jobs run in-process through ``altstar.cli.main`` with stdout captured, one
thread, one process.  Before every job, outside its timing, ``altstar`` is
dropped from ``sys.modules`` and imported again, so each job starts as cold
as a CLI call: nothing an earlier job left in module state can speed it up.
A pass runs the workload's fixed job list once; the first pass is checked by
the verdict oracle and every later pass must reproduce its bytes.  Tracing
is off for every timed pass; the traced pass of ``--trace 1`` is separate,
installs its wrappers after each job's import and removes them after the
job.

Only the standard library is imported at module level: ``setup`` drops and
re-imports ``altstar`` and the benchmark modules that use it, so import time
is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from statistics import median, quantiles
from time import perf_counter
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("catalog", "falsify", "dense-basis")
DEFAULT_SEED = 1
# not used while tuning the benchmark; check gain claims on it as well
HELDOUT_SEED = 7919
# set-up is repeated at least SETUP_REPS times and for at least
# SETUP_MIN_S seconds (at most SETUP_MAX_REPS times); its median is reported
SETUP_REPS = 9
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 40

# On a shared machine the speed of pure-Python code switches between
# levels up to 1.7x apart within seconds, and all such code switches
# together.  A fixed stdlib-only task that never touches altstar is timed
# before every job and every set-up segment, and after the last one.  Each
# time is scaled by CALIB_REF_S / (mean of the calibrations around it), so
# it reads in seconds at the speed where that task takes CALIB_REF_S.
# Raw wall times stay in the run metadata.
CALIB_REF_S = 0.012

_BENCH_MODULES = ("workloads", "oracle", "tracer")


@dataclass(frozen=True)
class Outcome:
    code: Optional[int]
    stdout: str
    seconds: float
    error: Optional[str] = None


def _purge(bench: bool = True) -> None:
    """Drop altstar (and, if *bench*, the benchmark modules using it)."""
    for name in list(sys.modules):
        if (bench and name in _BENCH_MODULES) or name == "altstar" \
                or name.startswith("altstar."):
            del sys.modules[name]


def fresh_cli():
    """``altstar.cli`` imported anew, as a CLI call would see it."""
    _purge(bench=False)
    gc.collect()
    return importlib.import_module("altstar.cli")


def calibrate() -> float:
    """Seconds taken by a fixed task of exact arithmetic and allocation.

    The garbage collector is off while it runs, so the heap a job leaves
    behind cannot put a collection inside the calibration.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 2500):
            acc += Fraction(i % 17 - 8, i % 13 + 1) * Fraction(3, 7)
            table[(i, i % 11)] = acc
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scaled(times: list[float], calib: list[float]) -> list[float]:
    """Each time at the reference speed; calib[k], calib[k+1] surround it."""
    return [t * 2 * CALIB_REF_S / (calib[k] + calib[k + 1])
            for k, t in enumerate(times)]


class SegmentClock:
    """Times a stretch of work in segments, calibrating between them.

    A set-up repetition takes up to half a second, longer than the machine
    keeps one speed, so it is scaled piece by piece: ``tick`` ends a
    segment, calibrates and starts the next.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.calib = [calibrate()]
        self._t0 = perf_counter()

    def tick(self) -> None:
        self.times.append(perf_counter() - self._t0)
        self.calib.append(calibrate())
        self._t0 = perf_counter()

    @property
    def raw_s(self) -> float:
        return sum(self.times)

    @property
    def scaled_s(self) -> float:
        return sum(scaled(self.times, self.calib))


def setup(workload: str, seed: int, reps: int = SETUP_REPS,
          min_seconds: float = SETUP_MIN_S):
    """Import altstar and write the seeded inputs, repeatedly.

    Returns the raw and the scaled time of each repetition and the jobs of
    the last one.
    """
    workdir = os.path.join(OUT, f"{workload}-{seed}")
    raw, times, jobs = [], [], []
    while len(raw) < reps or (sum(raw) < min_seconds
                              and len(raw) < SETUP_MAX_REPS):
        _purge()
        gc.collect()
        clock = SegmentClock()
        workloads = importlib.import_module("workloads")
        clock.tick()
        jobs = workloads.build(workload, seed, workdir, tick=clock.tick)
        clock.tick()
        raw.append(clock.raw_s)
        times.append(clock.scaled_s)
    return raw, times, jobs


def run_job(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    code: Optional[int] = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, the run goes on
        error = traceback.format_exc()
    dt = perf_counter() - t0
    if error is None and err.getvalue() and code != 2:
        error = "unexpected stderr: " + err.getvalue()
    return Outcome(code, out.getvalue(), dt, error)


@dataclass(frozen=True)
class Pass:
    """One run of the job list, with a calibration around every job."""
    outcomes: list[Outcome]
    calib: list[float]

    @property
    def raw_s(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def scaled_jobs(self) -> list[float]:
        return scaled([o.seconds for o in self.outcomes], self.calib)


def run_pass(jobs, tracer=None) -> Pass:
    """Run every job on a fresh import of altstar, traced if *tracer*.

    Calibration k runs after job k's import and before the job; the last
    one runs after the last job.
    """
    outcomes, calib = [], []
    for job in jobs:
        cli = fresh_cli()
        if tracer is not None:
            tracer.install()
        try:
            calib.append(calibrate())
            outcomes.append(run_job(cli, job.argv))
        finally:
            if tracer is not None:
                tracer.uninstall()
    calib.append(calibrate())
    return Pass(outcomes, calib)


def _passes_for(jobs, seconds: float, min_passes: int) -> list[Pass]:
    """Untraced passes until another one would overrun *seconds*."""
    passes = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(jobs))
        now = perf_counter()
        if len(passes) >= min_passes and now - t_start + now - t0 > seconds:
            return passes


def digest(o: Outcome) -> list:
    return [o.code, hashlib.sha256(o.stdout.encode("utf-8")).hexdigest()]


def golden_key(workload: str, seed: int, job_name: str) -> str:
    return f"{workload}/{seed}/{job_name}"


def load_golden() -> dict:
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _git_rev() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            packed = os.path.join(git, "packed-refs")
            with open(packed, encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return quantiles(values, n=4)


class Checker:
    """Counts failed job runs against attempted ones."""

    def __init__(self, workload: str, seed: int, jobs) -> None:
        self.workload, self.seed, self.jobs = workload, seed, jobs
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reference: Optional[list[Outcome]] = None
        self.verified: list[bool] = []

    def _fail(self, job, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{job.name}: {why}")

    def check(self, outcomes: list[Outcome]) -> None:
        if self.reference is None:
            oracle = importlib.import_module("oracle")
            self.reference = outcomes
            for job, o in zip(self.jobs, outcomes):
                ok = o.error is None
                if ok:
                    try:
                        oracle.verify(job, o.code, o.stdout)
                    except Exception as exc:  # any oracle crash fails the job
                        ok = False
                        self.notes.append(f"{job.name}: oracle: {exc!r}")
                self.verified.append(ok)
        for job, o, ref, ok in zip(self.jobs, outcomes, self.reference,
                                   self.verified):
            self.attempted += 1
            if o.error is not None:
                self._fail(job, o.error.strip().splitlines()[-1])
            elif not ok:
                self._fail(job, "wrong verdict")
            elif (o.code, o.stdout) != (ref.code, ref.stdout):
                self._fail(job, "output differs between passes")

    def golden(self) -> tuple[int, int]:
        """(matching, recorded) golden digests for the first pass."""
        table = load_golden()
        match = recorded = 0
        for job, o in zip(self.jobs, self.reference or []):
            want = table.get(golden_key(self.workload, self.seed, job.name))
            if want is not None:
                recorded += 1
                match += want == digest(o)
        return match, recorded


def _traced_pass(jobs):
    tracer = importlib.import_module("tracer").Tracer()
    return tracer, run_pass(jobs, tracer)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; return (result line, metadata)."""
    load_before = os.getloadavg()[0]
    setup_raw, setup_times, jobs = setup(workload, seed)
    checker = Checker(workload, seed, jobs)
    budget = seconds / 2 if trace else seconds
    passes = _passes_for(jobs, budget, 1 if trace else 2)
    for p in passes:
        checker.check(p.outcomes)
    run_times = [sum(p.scaled_jobs()) for p in passes]
    slowest = [max(p.scaled_jobs()) for p in passes]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "git_rev": _git_rev(),
        "passes": len(passes),
        "run_s_all": run_times,
        "run_s_quartiles": _quartiles(run_times),
        "slowest_job_s_all": slowest,
        "setup_s_all": setup_times,
        "raw_run_s_all": [p.raw_s for p in passes],
        "raw_setup_s_all": setup_raw,
        "calibration_s_all": [p.calib for p in passes],
        "job_s_median": {job.name: median([p.scaled_jobs()[k]
                                           for p in passes])
                         for k, job in enumerate(jobs)},
    }
    if not trace:
        metrics = {
            "run_s": (median(run_times), "s"),
            "slowest_job_s": (median(slowest), "s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = _trace_metrics(jobs, checker, seconds - budget,
                                 median([p.raw_s for p in passes]),
                                 workload, seed)
    meta["loadavg_1m"] = [load_before, os.getloadavg()[0]]
    meta["notes"] = checker.notes
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, meta


_UNITS = (("_s", "s"), ("_ratio", "ratio"), ("max_bits", "bits"),
          ("_bytes", "bytes"), ("_product", "ratio"))


def _unit(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _trace_metrics(jobs, checker: Checker, budget: float,
                   untraced_run_s: float, workload: str, seed: int) -> dict:
    summaries, times = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        tracer, p = _traced_pass(jobs)
        checker.check(p.outcomes)
        if not summaries:
            os.makedirs(OUT, exist_ok=True)
            tracer.write_spans(os.path.join(OUT,
                                            f"spans-{workload}-{seed}.json"))
            report_bytes = sum(len(o.stdout.encode("utf-8"))
                               for o in p.outcomes)
        summaries.append(tracer.summary())
        times.append(p.raw_s)
        del tracer
        now = perf_counter()
        if now - t_start + now - t0 > budget:
            break
    first = summaries[0]
    for other in summaries[1:]:
        changed = [k for k, v in first.items()
                   if not k.endswith("_s") and other[k] != v]
        if changed:
            checker.failed += 1
            checker.notes.append(f"traced counts differ between passes: "
                                 f"{changed}")
    metrics = {}
    for k, v in first.items():
        if k.endswith("_s"):
            v = median([s[k] for s in summaries])
        metrics[k] = (v, _unit(k))
    match, recorded = checker.golden()
    metrics.update({
        "cli.report_bytes": (report_bytes, "bytes"),
        "cli.golden_match_ratio": (match / recorded if recorded else 0.0,
                                   "ratio"),
        "cli.golden_checked": (recorded, "count"),
        # raw times: traced and untraced passes of one run, close in time
        "trace.overhead_ratio": (median(times) / untraced_run_s, "ratio"),
        "failed_ratio": (checker.failed / checker.attempted, "ratio"),
    })
    return metrics
