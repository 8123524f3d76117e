"""The report encoder against the serializers it replaced.

A report used to be written by six hand-made serializers, each copying the
fields of one report dataclass key by key.  They are kept here as the
reference: the encoder gives the same JSON on report objects built directly,
covering every witness and None combination, and on real failing runs; and
each report emits exactly its dataclass fields, in declaration order.
"""

import dataclasses
import itertools

import pytest

import altstar as st
from altstar.algebra import CheckResult, Witness, check_axioms
from altstar.cli import _encode, build_peirce, catalog_report_dict
from altstar.formats import canonical_json, load_map_file, scalar_list
from altstar.jordan import EntryRun, IdentitySample
from altstar.maps import (ConditionReport, MapWitness, check_jordan_condition,
                          check_star_ring_isomorphism)
from altstar.scalars import I, TWO
from test_algebra import _bad_star, _bad_unit

# -- the serializers the encoder replaced ------------------------------------


def _coords(x):
    return scalar_list(x.coords)


def _witness_dict(w):
    if w is None:
        return None
    return {"args": [_coords(x) for x in w.args],
            "residual": _coords(w.residual)}


def _check_dict(c):
    return {"name": c.name, "passed": c.passed,
            "witness": _witness_dict(c.witness)}


def _sample_dict(s):
    if s is None:
        return None
    return {"variant": s.variant,
            "frees": {k: _coords(v) for k, v in sorted(s.frees.items())},
            "lhs": _coords(s.lhs),
            "rhs": _coords(s.rhs),
            "residual": _coords(s.residual)}


def _entry_run_dict(r):
    return {"n": r.n,
            "samples": r.samples,
            "skipped": r.skipped,
            "derived_ok": r.derived_ok,
            "verbatim_match": r.verbatim_match,
            "derived_counterexample": _sample_dict(r.derived_counterexample),
            "display_counterexample": _sample_dict(r.display_counterexample)}


def _catalog_report_dict(rep):
    entries = {}
    for run in rep.runs:
        entry = entries.setdefault(run.entry_id, {"id": run.entry_id,
                                                  "runs": []})
        entry["runs"].append(_entry_run_dict(run))
    return {
        "algebra": rep.algebra_name,
        "n_min": rep.n_min, "n_max": rep.n_max,
        "samples": rep.samples, "seed": rep.seed,
        "entries": list(entries.values()),
        "derived_all_ok": rep.derived_all_ok,
    }


def _map_witness_dict(w):
    if w is None:
        return None
    return {"kind": w.kind,
            "inputs": [_coords(x) for x in w.inputs],
            "lhs": _coords(w.lhs),
            "rhs": _coords(w.rhs)}


def _condition_report_dict(c):
    return {"check": c.check,
            "n": c.n,
            "samples_run": c.samples_run,
            "refuted": c.refuted,
            "verdict": c.verdict,
            "witness": _map_witness_dict(c.witness)}


REFERENCE = {Witness: _witness_dict, CheckResult: _check_dict,
             IdentitySample: _sample_dict, EntryRun: _entry_run_dict,
             MapWitness: _map_witness_dict,
             ConditionReport: _condition_report_dict}


def _assert_same_json(reports):
    reports = list(reports)
    assert reports
    for r in reports:
        assert canonical_json(_encode(r)) \
            == canonical_json(REFERENCE[type(r)](r)), r


# -- report objects built directly -------------------------------------------


def _elements(zorn):
    e1, _, u1, u2, _, w1, _, w3 = zorn.basis()
    return e1, u1 + w3.scale(I), u2.scale(TWO) - w1


def _witnesses(zorn):
    x, y, z = _elements(zorn)
    return [Witness(args, x - y) for args in ((x,), (x, y), (x, y, z))]


def _check_results(zorn):
    return ([CheckResult("two_sided_unit", True)]
            + [CheckResult("involutive", False, w) for w in _witnesses(zorn)])


def _samples(zorn):
    x, y, z = _elements(zorn)
    # frees in draw order, which is not sorted by name
    return [IdentitySample("i=1,j=2", {"y": y, "t12": z, "x": x},
                           x, y, x - y),
            IdentitySample("-", {}, z, z.scale(TWO), -z)]


def _entry_runs(zorn):
    cases = [None] + _samples(zorn)
    return [EntryRun("ID-X", 3, samples, skipped, ok, match, derived, shown)
            for samples, skipped in ((0, "requires n >= 4"), (5, None))
            for ok, match in itertools.product((True, False), repeat=2)
            for derived, shown in itertools.product(cases, repeat=2)]


def _map_witnesses(zorn):
    x, y, z = _elements(zorn)
    return [MapWitness("multiplicativity", inputs, x, y)
            for inputs in ((), (z,), (x, z))]


def _condition_reports(zorn):
    return [ConditionReport("phi", "star_preservation", n, run, refuted, w)
            for n in (None, 3) for run in (0, 7)
            for refuted, w in ([(False, None)]
                               + [(True, w) for w in _map_witnesses(zorn)])]


BUILT = {Witness: _witnesses, CheckResult: _check_results,
         IdentitySample: _samples, EntryRun: _entry_runs,
         MapWitness: _map_witnesses, ConditionReport: _condition_reports}


@pytest.mark.parametrize("cls", list(BUILT), ids=lambda c: c.__name__)
def test_encoder_matches_the_reference_on_built_reports(cls, zorn):
    _assert_same_json(BUILT[cls](zorn))


@pytest.mark.parametrize("cls", list(BUILT), ids=lambda c: c.__name__)
def test_report_keys_are_its_dataclass_fields(cls, zorn):
    names = [f.name for f in dataclasses.fields(cls)
             if f.name not in ("entry_id", "map_name")]
    if cls is ConditionReport:
        names.insert(names.index("refuted") + 1, "verdict")
    for r in BUILT[cls](zorn):
        assert list(_encode(r)) == names


# -- real failing runs -------------------------------------------------------


@pytest.mark.parametrize("make", [
    _bad_unit, _bad_star, lambda: st.resolve_algebra("cd:-1,-1,-1,-1")[0]],
    ids=["bad-unit", "bad-star", "cd16"])
def test_encoder_matches_the_reference_on_failing_checks(make):
    rep = check_axioms(make())
    assert not rep.ok
    _assert_same_json(rep.checks)
    _assert_same_json(c.witness for c in rep.checks if c.witness is not None)


def test_encoder_matches_the_reference_on_peirce_relations(zorn_peirce):
    rep = st.check_peirce_relations(zorn_peirce, 5, seed=1)
    assert rep.offdiag_product_witness is not None
    _assert_same_json(rep.checks + (rep.offdiag_product_witness,))


def test_encoder_matches_the_reference_on_a_failing_catalog(zorn_peirce):
    rep = st.audit_catalog(zorn_peirce, 2, 4, samples=3, seed=1)
    assert any(r.display_counterexample is not None for r in rep.runs)
    assert any(r.skipped is not None for r in rep.runs)
    assert canonical_json(catalog_report_dict(rep)) \
        == canonical_json(_catalog_report_dict(rep))


@pytest.mark.parametrize("seed", [1, 7919])
def test_encoder_matches_the_reference_on_golden_maps(seed, tmp_path,
                                                      load_perfbench):
    workloads = load_perfbench("workloads", "workloads.py")
    refuted = []
    for job in workloads.build("falsify", seed, str(tmp_path)):
        if job.argv[0] != "mapcheck":
            continue
        opts = dict(zip(job.argv[2::2], job.argv[3::2]))
        n, samples, job_seed = (int(opts[k])
                                for k in ("--n", "--samples", "--seed"))
        phi, idem = load_map_file(job.argv[1])
        p = build_peirce(phi.domain, idem, "e1")
        reports = (check_jordan_condition(phi, p, n, samples, job_seed),
                   *check_star_ring_isomorphism(phi, p, samples,
                                                job_seed).checks)
        _assert_same_json(reports)
        refuted += [c.check for c in reports if c.refuted]
    assert refuted


def test_encoder_matches_the_reference_on_refuted_map_checks(m2, m2_peirce):
    # star preservation fails under scaling by i, and the Peirce blocks
    # have no image system when E11 and 0 trade places
    e11 = m2.basis_element(0)
    swapped = st.patched_map(st.identity_map(m2),
                             {e11: m2.zero(), m2.zero(): e11})
    for phi in (st.scale_map(m2, I, name="scale-by-i"), swapped):
        rep = st.check_star_ring_isomorphism(phi, m2_peirce, 20, seed=5)
        assert not rep.ok
        _assert_same_json(rep.checks)
