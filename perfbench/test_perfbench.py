"""Self-tests of the benchmark: wrapper coverage, determinism, the oracle.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import cProfile
import importlib
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

sys.path.insert(0, harness.SRC)

SEED = 3

# one small job per workload for the wrapper coverage check
SMALL_JOBS = {"catalog": "lemmas-matrix2-n2-5",
              "falsify": "mapcheck-zorn-patched",
              "dense-basis": "peirce-dense-zorn"}

# traced span -> (module, attribute path) of the function it counts
COUNTED = {
    "algebra.multiply": ("altstar.algebra", "Algebra.multiply"),
    "algebra.star": ("altstar.algebra", "Algebra.star"),
    "jordan.pair": ("altstar.jordan", "jordan_star"),
    "peirce.decompose": ("altstar.peirce", "peirce_decompose"),
    "maps.apply": ("altstar.maps", "AlgebraMap.__call__"),
    "linalg.rref": ("altstar.linalg", "rref"),
}

# attributes every traced pass must leave as it found them
_CLASSES = (("altstar.algebra", "Algebra"), ("altstar.peirce", "PeirceSystem"),
            ("altstar.maps", "AlgebraMap"), ("altstar.scalars", "Scalar"))


def _workload(workload: str, seed: int = SEED):
    _, _, jobs = harness.setup(workload, seed, reps=1, min_seconds=0)
    return jobs, harness.fresh_cli()


def _attributes() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "altstar" or name.startswith("altstar."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for modname, cls_name in _CLASSES:
        cls = getattr(sys.modules[modname], cls_name)
        for attr, value in vars(cls).items():
            out[(cls_name, attr)] = value
    return out


def _original(modname: str, path: str):
    obj = sys.modules[modname]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _traced(jobs):
    tracer = importlib.import_module("tracer").Tracer()
    return tracer, harness.run_pass(jobs, tracer).outcomes


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_counts_match_cprofile(workload, monkeypatch):
    jobs, cli = _workload(workload)
    job = next(j for j in jobs if j.name == SMALL_JOBS[workload])

    prof = cProfile.Profile()
    prof.enable()
    plain = harness.run_job(cli, job.argv)
    prof.disable()
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, ...)

    # the attributes of the modules the traced job imports, before patching
    imported = []
    fresh_cli = harness.fresh_cli

    def recording_fresh_cli():
        fresh = fresh_cli()
        imported.append(_attributes())
        return fresh

    monkeypatch.setattr(harness, "fresh_cli", recording_fresh_cli)
    tracer, (traced,) = _traced([job])
    before, after = imported[-1], _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), \
        [k for k in before if after[k] is not before[k]]
    assert traced.stdout == plain.stdout and plain.error is None

    summary = tracer.summary()
    for span, (modname, path) in COUNTED.items():
        code = _original(modname, path).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        ncalls = stats[key][1] if key in stats else 0
        assert summary[f"{span}.calls"] == ncalls, span
    assert summary["algebra.multiply.calls"] > 0


def test_every_job_runs_on_a_fresh_import(monkeypatch):
    jobs, _ = _workload("falsify")
    seen = []
    run_job = harness.run_job

    def recording_run_job(cli, argv):
        seen.append(cli)
        return run_job(cli, argv)

    monkeypatch.setattr(harness, "run_job", recording_run_job)
    harness.run_pass(jobs[:3])
    harness.run_pass(jobs[:1])
    assert len({id(cli) for cli in seen}) == 4


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["falsify", "dense-basis"])
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    workloads = importlib.import_module("workloads")
    runs = {}
    for label, seed in (("a", SEED), ("b", SEED), ("c", SEED + 1)):
        d = tmp_path / label
        jobs = workloads.build(workload, seed, str(d))
        runs[label] = (_files(str(d)),
                       [(j.name, tuple(a.replace(str(d), "<dir>")
                                       for a in j.argv)) for j in jobs])
    assert runs["a"] == runs["b"]
    files_a, files_c = runs["a"][0], runs["c"][0]
    assert files_a.keys() == files_c.keys()
    # the fixed maps do not depend on the seed; every seeded file does
    seeded = [n for n in files_a if n.startswith("dense-") or "patched" in n]
    assert seeded and all(files_a[n] != files_c[n] for n in seeded)


def test_generated_algebras_are_valid(tmp_path):
    workloads = importlib.import_module("workloads")
    from altstar.algebra import check_axioms
    from altstar.formats import load_algebra_file
    from altstar.peirce import classify_idempotent

    workloads.build("dense-basis", SEED, str(tmp_path))
    paths = sorted(tmp_path.glob("dense-*.json"))
    assert len(paths) == len(workloads.DENSE_SPECS)
    for path in paths:
        a, idem = load_algebra_file(str(path))
        assert check_axioms(a).ok, path.name
        info = classify_idempotent(a, a.element(idem["e1"]))
        assert info.is_idempotent and info.is_symmetric, path.name
        assert not info.is_trivial, path.name
        # dense: most structure constants are nonzero after the transport
        assert sum(1 for _ in a.structure_entries()) > 0.75 * a.dim ** 3


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    jobs, _ = _workload(workload)
    first, out1 = _traced(jobs)
    second, out2 = _traced(jobs)
    assert [o.stdout for o in out1] == [o.stdout for o in out2]
    a, b = first.summary(), second.summary()
    counts = {k: v for k, v in a.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in b.items() if not k.endswith("_s")}
    assert "linalg.rref.cells" in counts and "scalars.max_bits" in counts


def test_layer_split_matches_the_workloads():
    summaries = {}
    for workload in harness.WORKLOADS:
        jobs, _ = _workload(workload)
        summaries[workload] = _traced(jobs)[0].summary()
    share = {w: s["jordan.verify_s"] / s["cli.main_s"]
             for w, s in summaries.items()}
    assert share["catalog"] > 0.5
    assert share["catalog"] > 2 * max(share["falsify"], share["dense-basis"])
    for workload in ("catalog", "dense-basis"):
        assert summaries[workload]["maps.apply.calls"] == 0
    assert summaries["falsify"]["maps.apply.calls"] > 0
    ratio = {w: s["algebra.multiply.nonzero_pair_ratio"]
             for w, s in summaries.items()}
    assert ratio["falsify"] < min(ratio["catalog"], ratio["dense-basis"])


def _tamper_first_witness(doc) -> bool:
    """Change one coordinate of the first witness-like list in *doc*."""
    if isinstance(doc, dict):
        for key in ("residual", "lhs", "rhs"):
            if isinstance(doc.get(key), list) and doc[key]:
                doc[key][0] = "12345"
                return True
        return any(_tamper_first_witness(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_tamper_first_witness(v) for v in doc)
    return False


@pytest.mark.parametrize("job_name", ["check-cd16", "spade-dsum",
                                      "mapcheck-zorn-patched",
                                      "peirce-zorn"])
def test_oracle_rejects_tampered_reports(job_name):
    jobs, cli = _workload("falsify")
    oracle = importlib.import_module("oracle")
    job = next(j for j in jobs if j.name == job_name)
    o = harness.run_job(cli, job.argv)
    oracle.verify(job, o.code, o.stdout)
    with pytest.raises(oracle.OracleError):
        oracle.verify(job, 1 - o.code, o.stdout)
    doc = json.loads(o.stdout)
    if job_name == "spade-dsum":
        doc["witnesses"]["e1"][0] = "12345"
    else:
        assert _tamper_first_witness(doc)
    with pytest.raises(oracle.OracleError):
        oracle.verify(job, o.code, json.dumps(doc))


def test_lemmas_oracle_rejects_tampered_counterexample():
    jobs, cli = _workload("catalog")
    oracle = importlib.import_module("oracle")
    job = next(j for j in jobs if j.name == "lemmas-matrix2-n2-5")
    o = harness.run_job(cli, job.argv)
    doc = json.loads(o.stdout)
    assert _tamper_first_witness(doc)
    with pytest.raises(oracle.OracleError):
        oracle.verify(job, o.code, json.dumps(doc))


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
