"""CLI reports stay byte-identical to the benchmark's golden table.

``perfbench/golden.json`` holds, for every benchmark job, its exit code and
the sha256 of its stdout.  This replays the jobs of every workload at seed
1 and at the held-out seed 7919 with ``replay`` from
``scripts/replay_golden.py``, which runs them through ``altstar.cli.main``,
compares, and passes each report through ``verify`` in
``perfbench/oracle.py``, which recomputes every witness through the catalog
and map APIs.  The script and ``perfbench/workloads.py`` and ``oracle.py``
are loaded by path and only read; reports contain no file paths, so the
digests do not depend on where the inputs are written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"
SCRIPT = ROOT / "scripts" / "replay_golden.py"
SEED = 1
HELD_OUT_SEED = 7919


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def replay_golden():
    spec = importlib.util.spec_from_file_location("replay_golden", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _replay(workload, seed, golden, replay_golden, load_perfbench):
    workloads = load_perfbench("workloads", "workloads.py")
    oracle = load_perfbench("perfbench_oracle", "oracle.py")
    matched, failures = replay_golden.replay(workload, seed, golden,
                                             workloads, oracle)
    assert failures == []
    assert matched == sum(key.startswith(f"{workload}/{seed}/")
                          for key in golden) > 0


@pytest.mark.parametrize("workload", ["catalog", "falsify", "dense-basis"])
def test_reports_match_golden_digests(workload, golden, replay_golden,
                                     load_perfbench):
    _replay(workload, SEED, golden, replay_golden, load_perfbench)


def test_held_out_seed_matches_golden_digests_on_dense_basis(
        golden, replay_golden, load_perfbench):
    # dense-basis inputs are built by change_of_basis, and seed 1 moves
    # each algebra by one matrix only
    _replay("dense-basis", HELD_OUT_SEED, golden, replay_golden,
            load_perfbench)


@pytest.mark.parametrize("workload", ["catalog", "falsify"])
def test_held_out_seed_matches_golden_digests(workload, golden,
                                              replay_golden, load_perfbench):
    # seed 1 draws one patched map and one set of catalog samples; between
    # them these jobs emit every report type
    _replay(workload, HELD_OUT_SEED, golden, replay_golden, load_perfbench)
