"""The report encoder against the serializers it replaced.

A report used to be written by hand-made serializers, each copying the
fields of one report dataclass key by key, and the verdicts (ok,
derived_all_ok, verdict) were worked out again where they were written.
They are kept here as the reference: the encoder gives the same JSON on
report objects built directly, covering every witness and None combination,
and on real failing runs; and each report emits exactly its dataclass
fields, verdicts included, in declaration order.  The lemmas envelope
(algebra, n range, samples, seed) comes from the command's arguments, so
the catalog reference is compared with a lemmas report.
"""

import dataclasses
import itertools

import pytest

import altstar as st
from altstar.algebra import AxiomReport, CheckResult, Witness, check_axioms
from altstar.cli import _encode, build_peirce, run_cli
from altstar.formats import canonical_json, load_map_file, scalar_list
from altstar.jordan import CatalogReport, EntryAudit, EntryRun, IdentitySample
from altstar.maps import (ConditionReport, IsomorphismReport, MapWitness,
                          check_jordan_condition, check_star_ring_isomorphism)
from altstar.peirce import PeirceRelationsReport
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


def _axiom_report_dict(rep):
    return {"checks": [_check_dict(c) for c in rep.checks],
            "ok": all(c.passed for c in rep.checks)}


def _peirce_report_dict(rep):
    return {"checks": [_check_dict(c) for c in rep.checks],
            "offdiag_product_witness":
                _witness_dict(rep.offdiag_product_witness),
            "ok": all(c.passed for c in rep.checks)}


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


def _entry_audit_dict(e):
    return {"id": e.id,
            "runs": [_entry_run_dict(r) for r in e.runs]}


def _catalog_dict(rep):
    return {"entries": [_entry_audit_dict(e) for e in rep.entries],
            "derived_all_ok": all(r.derived_ok for e in rep.entries
                                  for r in e.runs)}


def _catalog_report_dict(rep, algebra, n_min, n_max, samples, seed):
    return {
        "algebra": algebra,
        "n_min": n_min, "n_max": n_max,
        "samples": samples, "seed": seed,
        **_catalog_dict(rep),
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
            "verdict": ("refuted" if c.refuted
                        else f"not refuted ({c.samples_run} samples)"),
            "witness": _map_witness_dict(c.witness)}


def _isomorphism_report_dict(rep):
    return {"checks": [_condition_report_dict(c) for c in rep.checks],
            "ok": not any(c.refuted for c in rep.checks)}


REFERENCE = {Witness: _witness_dict, CheckResult: _check_dict,
             AxiomReport: _axiom_report_dict,
             PeirceRelationsReport: _peirce_report_dict,
             IdentitySample: _sample_dict, EntryRun: _entry_run_dict,
             EntryAudit: _entry_audit_dict, CatalogReport: _catalog_dict,
             MapWitness: _map_witness_dict,
             ConditionReport: _condition_report_dict,
             IsomorphismReport: _isomorphism_report_dict}


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


def _prefixes(items):
    """The empty, one-item and whole prefixes of items, as tuples."""
    items = tuple(items)
    return [items[:0], items[:1], items]


def _axiom_reports(zorn):
    return [AxiomReport(cs) for cs in _prefixes(_check_results(zorn))]


def _peirce_reports(zorn):
    return [PeirceRelationsReport(cs, w)
            for cs in _prefixes(_check_results(zorn))
            for w in [None] + _witnesses(zorn)[1:2]]


def _samples(zorn):
    x, y, z = _elements(zorn)
    # frees in draw order, which is not sorted by name
    return [IdentitySample("i=1,j=2", {"y": y, "t12": z, "x": x},
                           x, y, x - y),
            IdentitySample("-", {}, z, z.scale(TWO), -z)]


def _entry_runs(zorn):
    cases = [None] + _samples(zorn)
    return [EntryRun(3, samples, skipped, ok, match, derived, shown)
            for samples, skipped in ((0, "requires n >= 4"), (5, None))
            for ok, match in itertools.product((True, False), repeat=2)
            for derived, shown in itertools.product(cases, repeat=2)]


def _entry_audits(zorn):
    runs = tuple(_entry_runs(zorn))
    return [EntryAudit(entry_id, runs[:k])
            for entry_id, k in (("ID-X", 0), ("ID-Y", 1), ("ID-Z", 9))]


def _catalog_reports(zorn):
    return [CatalogReport(es) for es in _prefixes(_entry_audits(zorn))]


def _map_witnesses(zorn):
    x, y, z = _elements(zorn)
    return [MapWitness("multiplicativity", inputs, x, y)
            for inputs in ((), (z,), (x, z))]


def _condition_reports(zorn):
    return [ConditionReport("star_preservation", n, run, refuted, w)
            for n in (None, 3) for run in (0, 7)
            for refuted, w in ([(False, None)]
                               + [(True, w) for w in _map_witnesses(zorn)])]


def _isomorphism_reports(zorn):
    return [IsomorphismReport(cs)
            for cs in _prefixes(_condition_reports(zorn))]


BUILT = {Witness: _witnesses, CheckResult: _check_results,
         AxiomReport: _axiom_reports, PeirceRelationsReport: _peirce_reports,
         IdentitySample: _samples, EntryRun: _entry_runs,
         EntryAudit: _entry_audits, CatalogReport: _catalog_reports,
         MapWitness: _map_witnesses, ConditionReport: _condition_reports,
         IsomorphismReport: _isomorphism_reports}


@pytest.mark.parametrize("cls", list(BUILT), ids=lambda c: c.__name__)
def test_encoder_matches_the_reference_on_built_reports(cls, zorn):
    _assert_same_json(BUILT[cls](zorn))


@pytest.mark.parametrize("cls", list(BUILT), ids=lambda c: c.__name__)
def test_report_keys_are_its_dataclass_fields(cls, zorn):
    names = [f.name for f in dataclasses.fields(cls)]
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
    runs = [r for e in rep.entries for r in e.runs]
    assert any(r.display_counterexample is not None for r in runs)
    assert any(r.skipped is not None for r in runs)
    code, doc = run_cli(["lemmas", "zorn", "--n-min", "2", "--n-max", "4",
                         "--samples", "3", "--seed", "1"])
    assert code == (0 if rep.derived_all_ok else 1)
    assert doc.pop("command") == "lemmas"
    assert doc.pop("e1") == _coords(zorn_peirce.e1)
    assert canonical_json(doc) \
        == canonical_json(_catalog_report_dict(rep, "zorn", 2, 4, 3, 1))


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
        p = build_peirce(job.argv[1], phi.domain, idem, "e1")
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
