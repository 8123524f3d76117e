"""CLI reports stay byte-identical to the benchmark's golden table.

``perfbench/golden.json`` holds, for every benchmark job, its exit code and
the sha256 of its stdout.  This replays the seed-1 jobs of every workload,
and the held-out seed 7919 of ``dense-basis``, through
``altstar.cli.main``, compares, and passes each report through ``verify``
in ``perfbench/oracle.py``, which recomputes every witness through the
catalog and map APIs.  ``perfbench/workloads.py`` and ``oracle.py`` are
loaded by path and only read; reports contain no file paths, so the digests
do not depend on where the inputs are written.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from altstar.cli import main as cli_main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
HELD_OUT_SEED = 7919


def _load(name, filename, monkeypatch):
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / filename)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up here, and the oracle imports its job
    # type from the top-level module `workloads`
    monkeypatch.setitem(sys.modules, name, mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def golden():
    return json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _replay(workload, seed, golden, tmp_path, monkeypatch):
    workloads = _load("workloads", "workloads.py", monkeypatch)
    oracle = _load("perfbench_oracle", "oracle.py", monkeypatch)
    jobs = workloads.build(workload, seed, str(tmp_path))
    assert jobs
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(job.argv))
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert [code, digest] == golden[f"{workload}/{seed}/{job.name}"], \
            job.name
        oracle.verify(job, code, out.getvalue())


@pytest.mark.parametrize("workload", ["catalog", "falsify", "dense-basis"])
def test_reports_match_golden_digests(workload, golden, tmp_path,
                                     monkeypatch):
    _replay(workload, SEED, golden, tmp_path, monkeypatch)


def test_held_out_seed_matches_golden_digests_on_dense_basis(
        golden, tmp_path, monkeypatch):
    # dense-basis inputs are built by change_of_basis, and seed 1 moves
    # each algebra by one matrix only
    _replay("dense-basis", HELD_OUT_SEED, golden, tmp_path, monkeypatch)
