"""CLI reports stay byte-identical to the benchmark's golden table.

``perfbench/golden.json`` holds, for every benchmark job, its exit code and
the sha256 of its stdout.  This replays the jobs of every workload at seed
1 and at the held-out seed 7919 through ``altstar.cli.main``, compares, and
passes each report through ``verify`` in ``perfbench/oracle.py``, which
recomputes every witness through the catalog and map APIs.
``perfbench/workloads.py`` and ``oracle.py`` are loaded by path (the
``load_perfbench`` fixture) and only read; reports contain no file paths,
so the digests do not depend on where the inputs are written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from altstar.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
SEED = 1
HELD_OUT_SEED = 7919


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _replay(workload, seed, golden, tmp_path, load_perfbench):
    workloads = load_perfbench("workloads", "workloads.py")
    oracle = load_perfbench("perfbench_oracle", "oracle.py")
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
                                     load_perfbench):
    _replay(workload, SEED, golden, tmp_path, load_perfbench)


def test_held_out_seed_matches_golden_digests_on_dense_basis(
        golden, tmp_path, load_perfbench):
    # dense-basis inputs are built by change_of_basis, and seed 1 moves
    # each algebra by one matrix only
    _replay("dense-basis", HELD_OUT_SEED, golden, tmp_path, load_perfbench)


@pytest.mark.parametrize("workload", ["catalog", "falsify"])
def test_held_out_seed_matches_golden_digests(workload, golden, tmp_path,
                                              load_perfbench):
    # seed 1 draws one patched map and one set of catalog samples; between
    # them these jobs emit every report type
    _replay(workload, HELD_OUT_SEED, golden, tmp_path, load_perfbench)
