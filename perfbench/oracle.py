"""Verdict oracle: checks one job's report and re-verifies its witnesses.

Every witness a report emits is recomputed through the public ``altstar``
API from the coordinates printed in the report, so a report that prints a
wrong residual, a witness that does not separate its two sides, or a
verdict that disagrees with its witnesses is caught.
"""

from __future__ import annotations

import json
from typing import Callable

from altstar.algebra import Algebra, Element
from altstar.formats import load_map_file, resolve_algebra
from altstar.jordan import catalog_entry, q_star
from altstar.peirce import PeirceSystem, component_of
from altstar.scalars import parse_scalar

from workloads import Job


class OracleError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OracleError(what)


def _elem(a: Algebra, coords: list[str]) -> Element:
    return a.element([parse_scalar(t) for t in coords])


def _same(x: Element, coords: list[str], what: str) -> None:
    _require(x == _elem(x.algebra, coords),
             f"{what}: recomputed value differs")


def _axiom_law(a: Algebra, name: str) -> Callable[..., Element]:
    assoc = a.associator
    laws = {
        "two_sided_unit":
            lambda x, y: x * y - (y if x == a.unit else x),
        "left_alternative_linearized":
            lambda x, y, z: assoc(x, y, z) + assoc(y, x, z),
        "right_alternative_linearized":
            lambda x, y, z: assoc(x, y, z) + assoc(x, z, y),
        "flexible_linearized":
            lambda x, y, z: assoc(x, y, z) + assoc(z, y, x),
        "involutive": lambda x: x.star().star() - x,
        "unit_fixed": lambda x: x.star() - x,
        "anti_automorphism": lambda x, y: (x * y).star() - y.star() * x.star(),
    }
    _require(name in laws, f"unknown axiom check {name!r}")
    return laws[name]


def _check_report(a: Algebra, checks: list[dict]) -> int:
    """Re-verify axiom-check witnesses; return how many there were."""
    seen = 0
    for c in checks:
        w = c["witness"]
        _require((w is None) == c["passed"],
                 f"{c['name']}: passed={c['passed']} with witness={w}")
        if w is None:
            continue
        seen += 1
        args = [_elem(a, v) for v in w["args"]]
        r = _axiom_law(a, c["name"])(*args)
        _require(not r.is_zero(), f"{c['name']}: residual is zero")
        _same(r, w["residual"], f"{c['name']} residual")
    return seen


def _verify_check(job: Job, doc: dict) -> int:
    a, _ = resolve_algebra(job.argv[1])
    return _check_report(a, doc["checks"])


def _verify_peirce(job: Job, doc: dict) -> int:
    a, _ = resolve_algebra(job.argv[1])
    seen = 0
    for c in doc["checks"]:
        # a relation witness fails the "ok" verdict, which verify() checks
        _require((c["witness"] is None) == c["passed"],
                 f"{c['name']}: passed={c['passed']} with witness")
        seen += c["witness"] is not None
    w = doc["offdiag_product_witness"]
    if w is None:
        return seen
    p = PeirceSystem(a, _elem(a, doc["e1"]))
    x, y = (_elem(a, v) for v in w["args"])
    _require(component_of(p, x, (1, 2)) and component_of(p, y, (1, 2)),
             "offdiag witness factors are not in A12")
    prod = x * y
    _require(not prod.is_zero(), "offdiag witness product is zero")
    _same(prod, w["residual"], "offdiag witness product")
    return seen + 1


def _verify_spade(job: Job, doc: dict) -> int:
    a, _ = resolve_algebra(job.argv[1])
    _require(doc["ok"] == (doc["spade"]["e1"] and doc["spade"]["e2"]),
             "ok disagrees with the spade sides")
    seen = 0
    for side in ("e1", "e2"):
        w = doc["witnesses"][side]
        _require((w is None) == doc["spade"][side],
                 f"spade {side}: verdict and witness disagree")
        if w is None:
            continue
        seen += 1
        e = _elem(a, doc[side])
        x = _elem(a, w)
        _require(not x.is_zero(), f"spade {side}: witness is zero")
        for b in a.basis():
            _require((x * (b * e)).is_zero(),
                     f"spade {side}: witness does not annihilate A{side}")
    return seen


def _verify_lemmas(job: Job, doc: dict) -> int:
    a, _ = resolve_algebra(job.argv[1])
    p = PeirceSystem(a, _elem(a, doc["e1"]))
    seen = 0
    for entry_doc in doc["entries"]:
        entry = catalog_entry(entry_doc["id"])
        for run in entry_doc["runs"]:
            for kind, form in (("derived_counterexample", entry.derived),
                               ("display_counterexample", entry.display)):
                s = run[kind]
                ok_field = "derived_ok" if kind.startswith("derived") \
                    else "verbatim_match"
                _require((s is None) == run[ok_field],
                         f"{entry.entry_id} n={run['n']}: {ok_field} "
                         f"disagrees with {kind}")
                if s is None:
                    continue
                seen += 1
                what = f"{entry.entry_id} n={run['n']} {kind}"
                frees = {k: _elem(a, v) for k, v in s["frees"].items()}
                n = run["n"]
                lhs = q_star(entry.args(p, s["variant"], n, frees))
                rhs = form(p, s["variant"], n, frees)
                _same(lhs, s["lhs"], f"{what} lhs")
                _same(rhs, s["rhs"], f"{what} rhs")
                _require(lhs != rhs, f"{what}: sides agree")
                _same(lhs - rhs, s["residual"], f"{what} residual")
    _require(doc["derived_all_ok"] == all(
        r["derived_ok"] for e in doc["entries"] for r in e["runs"]),
        "derived_all_ok disagrees with the runs")
    return seen


def _map_sides(phi, p: PeirceSystem, rep: dict, w: dict):
    """Recompute (lhs, rhs) of a map witness from its inputs."""
    dom = phi.domain
    ins = [_elem(dom, v) for v in w["inputs"]]
    kind = w["kind"]
    if kind.startswith("xi="):
        xi = {"1": dom.unit, "e1": p.e1, "e2": p.e2}[kind[3:]]
        a, b = ins
        prefix = [xi] * (rep["n"] - 2)
        return (phi(q_star(prefix + [a, b])),
                q_star([phi(x) for x in prefix] + [phi(a), phi(b)]))
    if kind == "additivity":
        a, b = ins
        return phi(a + b), phi(a) + phi(b)
    if kind == "multiplicativity":
        a, b = ins
        return phi(a * b), phi(a) * phi(b)
    if kind == "star_preservation":
        (a,) = ins
        return phi(a.star()), phi(a).star()
    if kind.startswith("peirce_block_"):
        (x,) = ins
        ij = (int(kind[-2]), int(kind[-1]))
        _require(component_of(p, x, ij), f"{kind}: input not in A{ij}")
        return phi(x), _elem(phi.codomain, w["rhs"])
    raise OracleError(f"map witness kind {kind!r} cannot be re-verified")


def _verify_mapcheck(job: Job, doc: dict) -> int:
    phi, _ = load_map_file(job.argv[1])
    p = PeirceSystem(phi.domain, _elem(phi.domain, doc["e1"]))
    reports = [doc["jordan_condition"]] + doc["isomorphism_checks"]
    _require(doc["refuted"] == any(r["refuted"] for r in reports),
             "refuted disagrees with the checks")
    seen = 0
    for rep in reports:
        w = rep["witness"]
        _require((w is None) == (not rep["refuted"]),
                 f"{rep['check']}: verdict and witness disagree")
        if w is None:
            continue
        seen += 1
        lhs, rhs = _map_sides(phi, p, rep, w)
        _same(lhs, w["lhs"], f"{rep['check']} lhs")
        _same(rhs, w["rhs"], f"{rep['check']} rhs")
        _require(lhs != rhs, f"{rep['check']}: phi does not separate "
                             "the witness sides")
    return seen


_VERIFIERS = {"check": _verify_check, "peirce": _verify_peirce,
              "spade": _verify_spade, "lemmas": _verify_lemmas,
              "mapcheck": _verify_mapcheck}


def verify(job: Job, code: int, stdout: str) -> None:
    """Raise OracleError unless the job's report is right."""
    _require(code == job.exit_code,
             f"exit code {code}, expected {job.exit_code}")
    doc = json.loads(stdout)
    _require(doc.get("command") == job.argv[0], "report names another command")
    _require(doc.get(job.verdict_field) is job.verdict,
             f"{job.verdict_field}={doc.get(job.verdict_field)!r}, "
             f"expected {job.verdict}")
    witnesses = _VERIFIERS[job.argv[0]](job, doc)
    if job.witness is not None:
        _require((witnesses > 0) == job.witness,
                 f"{witnesses} witnesses, expected "
                 f"{'some' if job.witness else 'none'}")
