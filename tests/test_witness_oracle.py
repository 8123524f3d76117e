"""Every witness a report emits can be re-verified by the benchmark oracle.

Each subject below is run through ``altstar.cli.main`` and its report is
passed to ``verify`` in ``perfbench/oracle.py`` with a hand-built ``Job``.
The passing subjects make the jordan, additivity, multiplicativity and
Peirce-block witness kinds refute once.  The two strict xfails record the
reports the oracle cannot re-verify yet: a refuted bijectivity,
idempotent-image or image-system check, and a catalog entry whose derived
form fails.  The oracle fix that re-verifies them turns each into a pass.

``perfbench/workloads.py`` and ``oracle.py`` are loaded by path through
``scripts/replay_golden.py`` and only read; ``sys.modules`` is left as it
was found.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import altstar as st
from altstar.cli import main as cli_main
from altstar.formats import canonical_json, map_to_dict
from altstar.scalars import ZERO, half_power

ROOT = Path(__file__).resolve().parents[1]


def _perfbench():
    """The workloads and oracle modules, loaded by replay_golden's
    load_perfbench; the oracle imports its job type from ``workloads``."""
    spec = importlib.util.spec_from_file_location(
        "replay_golden", ROOT / "scripts" / "replay_golden.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    names = ("workloads", "perfbench_oracle")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        return (replay.load_perfbench("workloads", "workloads.py"),
                replay.load_perfbench("perfbench_oracle", "oracle.py"))
    finally:
        for name, mod in saved.items():
            if mod is None:
                sys.modules.pop(name)
            else:
                sys.modules[name] = mod


# loaded at import, so that the xfail marks can name OracleError
workloads, oracle = _perfbench()


def _verify(argv, exit_code, verdict_field, verdict) -> dict:
    """Run argv through the CLI and re-verify its report, which must
    carry a witness; returns the report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    job = workloads.Job("subject", tuple(argv), exit_code, verdict_field,
                        verdict, witness=True)
    oracle.verify(job, code, out.getvalue())
    return json.loads(out.getvalue())


def _map_file(tmp_path, phi, spec):
    path = tmp_path / f"{phi.name}.map.json"
    path.write_text(canonical_json(map_to_dict(phi, spec, spec)),
                    encoding="utf-8")
    return str(path)


def _refuted(doc) -> list[tuple[str, str]]:
    """(check, witness kind) of each refuted check of a mapcheck report."""
    return [(r["check"], r["witness"]["kind"])
            for r in [doc["jordan_condition"]] + doc["isomorphism_checks"]
            if r["refuted"]]


def test_patched_rotation_witnesses_are_re_verified(tmp_path, zorn):
    # swapping two points keeps the map bijective and fixes e1, so only the
    # sampled equations refute it
    b = zorn.basis()
    p, q = b[2] + b[6], b[3] + b[5].scale(st.TWO)
    phi = st.patched_map(st.zorn_rotation_map(zorn), {p: q, q: p},
                         name="zorn-rotation+swap")
    doc = _verify(["mapcheck", _map_file(tmp_path, phi, "zorn"),
                   "--samples", "100", "--seed", "1"], 1, "refuted", True)
    refuted = dict(_refuted(doc))
    assert refuted["jordan_condition"].startswith("xi=")
    assert refuted["additivity"] == "additivity"
    assert refuted["multiplicativity"] == "multiplicativity"


def test_peirce_block_witness_is_re_verified(tmp_path, m2):
    # the conjugate transpose fixes e1 = E11 and sends A12 into A21
    doc = _verify(["mapcheck", _map_file(tmp_path, st.star_as_map(m2),
                                         "matrix:2"),
                   "--samples", "20", "--seed", "1"], 1, "refuted", True)
    assert ("peirce_blocks", "peirce_block_12") in _refuted(doc)


@pytest.mark.xfail(strict=True, raises=oracle.OracleError,
                   reason="ROADMAP item 10: linear_part_bijective, "
                          "idempotent_image_f1/f2 and peirce_blocks without "
                          "an image system emit witnesses the oracle cannot "
                          "re-verify")
def test_witnesses_of_a_map_that_is_not_bijective_are_re_verified(tmp_path,
                                                                   m2):
    # x -> ((x11 + x22)/2) 1 is unital, but not bijective, and sends E11 to
    # the non-idempotent 1/2, so there is no image Peirce system
    h = half_power(1)
    trace = st.AlgebraMap(m2, m2, [[h, ZERO, ZERO, h], [ZERO] * 4,
                                   [ZERO] * 4, [h, ZERO, ZERO, h]],
                          name="half-trace")
    doc = _verify(["mapcheck", _map_file(tmp_path, trace, "matrix:2"),
                   "--samples", "20", "--seed", "1"], 1, "refuted", True)
    assert {"linear_part_bijective", "idempotent_image_f1",
            "idempotent_image_f2", "peirce_blocks"} \
        <= {check for check, _ in _refuted(doc)}


@pytest.mark.xfail(strict=True, raises=TypeError,
                   reason="ROADMAP item 1's benchmark fixes: _verify_lemmas "
                          "calls entry.display, which is None for an entry "
                          "that displays its derived form")
def test_catalog_witnesses_of_a_failing_derived_form_are_re_verified():
    # cd16 is not alternative: ID-E's derived form fails at n = 3 for the
    # symmetric idempotent (1 + i b1)/2
    e1 = ",".join(["1/2", "0+1/2i"] + ["0"] * 14)
    doc = _verify(["lemmas", "cd:-1,-1,-1,-1", "--e1", e1, "--n-max", "3",
                   "--samples", "20"], 1, "derived_all_ok", False)
    assert ("ID-E", 3) in [(e["id"], r["n"]) for e in doc["entries"]
                           for r in e["runs"] if not r["derived_ok"]]
