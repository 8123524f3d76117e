"""Command-line surface: deterministic JSON reports over the library.

Subcommands: gen, check, peirce, spade, qprod, lemmas, mapcheck.
Exit codes: 0 = all checks pass / not refuted, 1 = violation witnessed,
2 = input or usage error.

A report is its library dataclasses serialized field by field: one encoder
writes each field in declaration order, so a field added to a report
dataclass appears in every report that carries it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .algebra import Algebra, AlgebraError, Element, check_axioms
from .formats import (algebra_to_dict, canonical_json, load_map_file,
                      resolve_algebra, scalar_list)
from .jordan import (CatalogReport, audit_catalog, q_star,
                     require_audit_range)
from .maps import (check_jordan_condition, check_star_ring_isomorphism,
                   require_condition_arity)
from .peirce import (IJ_PAIRS, PeirceSystem, check_peirce_relations,
                     spade_pair)
from .scalars import Scalar, ScalarError, parse_scalar


class CliInputError(Exception):
    pass


# -- argument parsing helpers -----------------------------------------------


def parse_coords(text: str, a: Algebra, what: str) -> list[Scalar]:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != a.dim:
        raise CliInputError(
            f"{what}: expected {a.dim} comma-separated scalars, "
            f"got {len(parts)}")
    try:
        return [parse_scalar(t, f"{what}[{k}]") for k, t in enumerate(parts)]
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def require_samples(args) -> None:
    """A run on no samples would report a pass without evidence."""
    if args.samples < 1:
        raise CliInputError(f"--samples must be >= 1, got {args.samples}")


def pick_idempotent(a: Algebra, idem: dict[str, list[Scalar]],
                    text: str, what: str) -> Element:
    """NAME from the algebra's idempotent table, or inline COORDS."""
    if "," in text:
        return a.element(parse_coords(text, a, what))
    if text in idem:
        return a.element(idem[text])
    known = ", ".join(sorted(idem)) or "none"
    raise CliInputError(
        f"{what}: unknown idempotent name {text!r} (known: {known})")


def build_peirce(a: Algebra, idem: dict[str, list[Scalar]],
                 text: str, what: str = "--e1") -> PeirceSystem:
    e1 = pick_idempotent(a, idem, text, what)
    try:
        return PeirceSystem(a, e1)
    except AlgebraError as exc:
        raise CliInputError(f"{what}: {exc}") from exc


# -- report serialization ---------------------------------------------------


def _encode(x):
    """A report object as JSON data: an Element is its coordinate literals,
    a report dataclass its fields in declaration order, a tuple or list a
    list, a dict a dict sorted by key, and anything else itself."""
    if isinstance(x, Element):
        return scalar_list(x.coords)
    if hasattr(x, "__dataclass_fields__"):
        doc = {}
        for name in x.__dataclass_fields__:
            # the only special cases: two fields the reports omit, and the
            # verdict property, shown after the field it reads
            if name not in ("entry_id", "map_name"):
                doc[name] = _encode(getattr(x, name))
            if name == "refuted":
                doc["verdict"] = x.verdict
        return doc
    if isinstance(x, (tuple, list)):
        return [_encode(v) for v in x]
    if isinstance(x, dict):
        return {k: _encode(v) for k, v in sorted(x.items())}
    return x


def catalog_report_dict(rep: CatalogReport) -> dict:
    entries: dict[str, dict] = {}
    for run in rep.runs:
        entry = entries.setdefault(run.entry_id, {"id": run.entry_id,
                                                  "runs": []})
        entry["runs"].append(run)
    return {
        "algebra": rep.algebra_name,
        "n_min": rep.n_min, "n_max": rep.n_max,
        "samples": rep.samples, "seed": rep.seed,
        "entries": _encode(list(entries.values())),
        "derived_all_ok": rep.derived_all_ok,
    }


# -- subcommand implementations ---------------------------------------------


def _cmd_gen(args) -> tuple[int, Optional[dict]]:
    a, idem = resolve_algebra(args.spec)
    doc = algebra_to_dict(a, idem)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
        return 0, None
    return 0, doc


def _cmd_check(args) -> tuple[int, Optional[dict]]:
    a, _ = resolve_algebra(args.algebra)
    rep = check_axioms(a)
    doc = {
        "command": "check",
        "algebra": a.name,
        "dim": a.dim,
        "basis_labels": list(a.basis_labels),
        "checks": _encode(rep.checks),
        "ok": rep.ok,
    }
    return (0 if rep.ok else 1), doc


def _cmd_peirce(args) -> tuple[int, Optional[dict]]:
    require_samples(args)
    a, idem = resolve_algebra(args.algebra)
    p = build_peirce(a, idem, args.e1)
    rep = check_peirce_relations(p, args.samples, args.seed)
    dims = p.component_dims()
    doc = {
        "command": "peirce",
        "algebra": a.name,
        "e1": _encode(p.e1),
        "e2": _encode(p.e2),
        "component_dims": {f"{i}{j}": dims[(i, j)] for i, j in IJ_PAIRS},
        "samples": args.samples,
        "seed": args.seed,
        "checks": _encode(rep.checks),
        "offdiag_product_witness": _encode(rep.offdiag_product_witness),
        "ok": rep.ok,
    }
    return (0 if rep.ok else 1), doc


def _cmd_spade(args) -> tuple[int, Optional[dict]]:
    a, idem = resolve_algebra(args.algebra)
    p = build_peirce(a, idem, args.e, what="--e")
    r1, r2 = spade_pair(p)
    doc = {
        "command": "spade",
        "algebra": a.name,
        "e1": _encode(p.e1),
        "e2": _encode(p.e2),
        "spade": {"e1": r1.holds, "e2": r2.holds},
        "witnesses": _encode({"e1": r1.witness, "e2": r2.witness}),
        "ok": r1.holds and r2.holds,
    }
    return (0 if (r1.holds and r2.holds) else 1), doc


def _cmd_qprod(args) -> tuple[int, Optional[dict]]:
    chunks = [t for t in args.args.split(";") if t.strip()]
    if len(chunks) != args.n:
        raise CliInputError(
            f"--args: expected {args.n} semicolon-separated coordinate "
            f"vectors, got {len(chunks)}")
    a, _ = resolve_algebra(args.algebra)
    elems = [a.element(parse_coords(t, a, f"--args[{k}]"))
             for k, t in enumerate(chunks)]
    result = q_star(elems)
    doc = {
        "command": "qprod",
        "algebra": a.name,
        "n": args.n,
        "args": _encode(elems),
        "result": _encode(result),
    }
    return 0, doc


def _cmd_lemmas(args) -> tuple[int, Optional[dict]]:
    require_samples(args)
    require_audit_range(args.n_min, args.n_max)
    a, idem = resolve_algebra(args.algebra)
    p = build_peirce(a, idem, args.e1)
    rep = audit_catalog(p, args.n_min, args.n_max, args.samples, args.seed)
    doc = {"command": "lemmas", "e1": _encode(p.e1)}
    doc.update(catalog_report_dict(rep))
    return (0 if rep.derived_all_ok else 1), doc


def _cmd_mapcheck(args) -> tuple[int, Optional[dict]]:
    require_samples(args)
    require_condition_arity(args.n)
    phi, dom_idem = load_map_file(args.mapfile)
    p = build_peirce(phi.domain, dom_idem, args.e1)
    jordan = check_jordan_condition(phi, p, args.n, args.samples, args.seed)
    iso = check_star_ring_isomorphism(phi, p, args.samples, args.seed)
    refuted = jordan.refuted or not iso.ok
    doc = {
        "command": "mapcheck",
        "map": phi.name,
        "domain": phi.domain.name,
        "codomain": phi.codomain.name,
        "e1": _encode(p.e1),
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "unital": True,
        "jordan_condition": _encode(jordan),
        "isomorphism_checks": _encode(iso.checks),
        "refuted": refuted,
    }
    return (1 if refuted else 0), doc


# -- entry points ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altstar",
        description="Exact checks for alternative *-algebras: axioms, "
                    "Peirce decompositions, *-Jordan products, and map "
                    "falsification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a builtin algebra as JSON")
    p.add_argument("spec", help="zorn | matrix:K | cd:G1,G2,... | dsum:A,B")
    p.add_argument("-o", "--output", help="write to FILE instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="run the axiom suite on an algebra")
    p.add_argument("algebra", help="algebra file or builtin spec")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("peirce", help="Peirce decomposition relation checks")
    p.add_argument("algebra", help="algebra file or builtin spec")
    p.add_argument("--e1", default="e1", help="idempotent NAME or COORDS")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_peirce)

    p = sub.add_parser("spade",
                       help="annihilator condition x(Ae)=0 => x=0 for "
                            "e and 1-e")
    p.add_argument("algebra", help="algebra file or builtin spec")
    p.add_argument("--e", default="e1", help="idempotent NAME or COORDS")
    p.set_defaults(func=_cmd_spade)

    p = sub.add_parser("qprod", help="evaluate one left-nested *-Jordan "
                                     "product")
    p.add_argument("algebra", help="algebra file or builtin spec")
    p.add_argument("--n", type=int, required=True, help="arity")
    p.add_argument("--args", required=True,
                   help="semicolon-separated coordinate vectors")
    p.set_defaults(func=_cmd_qprod)

    p = sub.add_parser("lemmas", help="audit the identity catalog")
    p.add_argument("algebra", help="algebra file or builtin spec")
    p.add_argument("--e1", default="e1", help="idempotent NAME or COORDS")
    p.add_argument("--n-min", type=int, default=2, dest="n_min")
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("mapcheck", help="falsification checks for a map file")
    p.add_argument("mapfile")
    p.add_argument("--n", type=int, default=3,
                   help="arity for the nested-product condition")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--e1", default="e1",
                   help="domain idempotent NAME or COORDS")
    p.set_defaults(func=_cmd_mapcheck)
    return parser


def run_cli(argv: Sequence[str]) -> tuple[int, Optional[dict]]:
    """Exit code plus the report document (None when gen writes a file)."""
    parser = build_parser()
    args = parser.parse_args(list(argv))
    return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, doc = run_cli(argv)
    except (CliInputError, AlgebraError, ScalarError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if doc is not None:
        sys.stdout.write(canonical_json(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
