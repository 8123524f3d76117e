"""Command-line surface: deterministic JSON reports over the library.

Subcommands: gen, check, peirce, spade, qprod, lemmas, mapcheck.
Exit codes: 0 = all checks pass / not refuted, 1 = violation witnessed,
2 = input or usage error.

Each report field has one source: a command writes the envelope (the
algebra or map, e1, n, samples, seed) from its arguments, and the library
reports hold only results, verdicts included, which one encoder writes
field by field in declaration order.  A report command splices its report
after the envelope and reads its exit code from the report's one verdict
field, so no verdict is worked out here.  Every command, gen included,
prints its document.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .algebra import Algebra, AlgebraError, Element, check_axioms
from .formats import (algebra_to_dict, canonical_json, load_map_file,
                      parse_scalar_list, resolve_algebra, scalar_list)
from .jordan import MAX_ARITY, audit_catalog, q_star, require_audit_range
from .maps import (MapCheckReport, check_jordan_condition,
                   check_star_ring_isomorphism, require_condition_arity)
from .peirce import (IJ_PAIRS, PeirceError, PeirceSystem,
                     StarAlgebraLawError, check_peirce_relations, spade_pair)
from .scalars import Scalar, ScalarError


class CliInputError(Exception):
    pass


# -- argument parsing helpers -----------------------------------------------


def require_samples(args) -> None:
    """A run on no samples would report a pass without evidence."""
    if args.samples < 1:
        raise CliInputError(f"--samples must be >= 1, got {args.samples}")


def pick_idempotent(a: Algebra, idem: dict[str, list[Scalar]],
                    text: str, what: str) -> Element:
    """NAME from the algebra's idempotent table, or inline COORDS."""
    if "," in text:
        return a.element(parse_scalar_list(text.split(","), what, a.dim))
    if text in idem:
        return a.element(idem[text])
    known = ", ".join(sorted(idem)) or "none"
    raise CliInputError(
        f"{what}: unknown idempotent name {text!r} (known: {known})")


def build_peirce(source: str, a: Algebra, idem: dict[str, list[Scalar]],
                 text: str, what: str = "--e1") -> PeirceSystem:
    """e1 as the option *what* names it; a unit or involution law that
    fails is a defect of the algebra, so its error names *source*, not the
    option."""
    e1 = pick_idempotent(a, idem, text, what)
    try:
        return PeirceSystem(a, e1)
    except StarAlgebraLawError as exc:
        raise CliInputError(f"{source}: {exc}") from exc
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
        return {name: _encode(getattr(x, name))
                for name in x.__dataclass_fields__}
    if isinstance(x, (tuple, list)):
        return [_encode(v) for v in x]
    if isinstance(x, dict):
        return {k: _encode(v) for k, v in sorted(x.items())}
    return x


# -- subcommand implementations ---------------------------------------------


def _cmd_gen(args) -> tuple[int, dict]:
    a, idem = resolve_algebra(args.spec)
    return 0, algebra_to_dict(a, idem)


def _cmd_check(args) -> tuple[int, dict]:
    a, _ = resolve_algebra(args.algebra)
    rep = check_axioms(a)
    doc = {
        "command": "check",
        "algebra": a.name,
        "dim": a.dim,
        "basis_labels": list(a.basis_labels),
        **_encode(rep),
    }
    return (0 if rep.ok else 1), doc


def _cmd_peirce(args) -> tuple[int, dict]:
    require_samples(args)
    a, idem = resolve_algebra(args.algebra)
    p = build_peirce(args.algebra, a, idem, args.e1)
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
        **_encode(rep),
    }
    return (0 if rep.ok else 1), doc


def _cmd_spade(args) -> tuple[int, dict]:
    a, idem = resolve_algebra(args.algebra)
    p = build_peirce(args.algebra, a, idem, args.e, what="--e")
    rep = spade_pair(p)
    doc = {
        "command": "spade",
        "algebra": a.name,
        "e1": _encode(p.e1),
        "e2": _encode(p.e2),
        **_encode(rep),
    }
    return (0 if rep.ok else 1), doc


def _cmd_qprod(args) -> tuple[int, dict]:
    chunks = [t for t in args.args.split(";") if t.strip()]
    if len(chunks) > MAX_ARITY:
        raise CliInputError(
            f"--args: at most {MAX_ARITY} vectors, got {len(chunks)}")
    a, _ = resolve_algebra(args.algebra)
    elems = [a.element(parse_scalar_list(t.split(","), f"--args[{k}]", a.dim))
             for k, t in enumerate(chunks)]
    result = q_star(elems)
    doc = {
        "command": "qprod",
        "algebra": a.name,
        "n": len(elems),
        "args": _encode(elems),
        "result": _encode(result),
    }
    return 0, doc


def _cmd_lemmas(args) -> tuple[int, dict]:
    require_samples(args)
    require_audit_range(args.n_min, args.n_max)
    a, idem = resolve_algebra(args.algebra)
    p = build_peirce(args.algebra, a, idem, args.e1)
    rep = audit_catalog(p, args.n_min, args.n_max, args.samples, args.seed)
    doc = {
        "command": "lemmas",
        "e1": _encode(p.e1),
        "algebra": a.name,
        "n_min": args.n_min, "n_max": args.n_max,
        "samples": args.samples, "seed": args.seed,
        **_encode(rep),
    }
    return (0 if rep.derived_all_ok else 1), doc


def _cmd_mapcheck(args) -> tuple[int, dict]:
    require_samples(args)
    require_condition_arity(args.n)
    phi, dom_idem = load_map_file(args.mapfile)
    p = build_peirce(f"{args.mapfile}: domain", phi.domain, dom_idem,
                     args.e1)
    try:
        rep = MapCheckReport(
            check_jordan_condition(phi, p, args.n, args.samples, args.seed),
            check_star_ring_isomorphism(phi, p, args.samples,
                                        args.seed).checks)
    except PeirceError as exc:
        # only the codomain, or the image system built on it, raises it here
        raise CliInputError(f"{args.mapfile}: codomain: {exc}") from exc
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
        **_encode(rep),
    }
    return (1 if rep.refuted else 0), doc


# -- entry points ------------------------------------------------------------


_ALGEBRA = (("algebra",), {"help": "algebra file or builtin spec"})
_E1 = (("--e1",), {"default": "e1", "help": "idempotent NAME or COORDS"})


def _int(flag: str, default: int, **kwargs) -> tuple[tuple, dict]:
    return (flag,), {"type": int, "default": default, **kwargs}


# name: (help, handler, arguments as (flags, keywords)), in listing order
SUBCOMMANDS = {
    "gen": ("emit a builtin algebra as JSON", _cmd_gen, [
        (("spec",), {"help": "zorn | matrix:K | cd:G1,G2,... | dsum:A,B"})]),
    "check": ("run the axiom suite on an algebra", _cmd_check, [_ALGEBRA]),
    "peirce": ("Peirce decomposition relation checks", _cmd_peirce, [
        _ALGEBRA, _E1, _int("--samples", 200), _int("--seed", 0)]),
    "spade": ("annihilator condition x(Ae)=0 => x=0 for e and 1-e",
              _cmd_spade, [
                  _ALGEBRA, (("--e",), {"default": "e1",
                                        "help": "idempotent NAME or COORDS"})]),
    "qprod": ("evaluate one left-nested *-Jordan product", _cmd_qprod, [
        _ALGEBRA, (("--args",), {"required": True,
                                 "help": "semicolon-separated coordinate "
                                         "vectors"})]),
    "lemmas": ("audit the identity catalog", _cmd_lemmas, [
        _ALGEBRA, _E1, _int("--n-min", 2), _int("--n-max", 5),
        _int("--samples", 100), _int("--seed", 0)]),
    "mapcheck": ("falsification checks for a map file", _cmd_mapcheck, [
        (("mapfile",), {}),
        _int("--n", 3, help="arity for the nested-product condition"),
        _int("--samples", 500), _int("--seed", 0),
        (("--e1",), {"default": "e1",
                     "help": "domain idempotent NAME or COORDS"})]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of *command* alone.

    Alone, the subcommand argument keeps the full choice list as its
    metavar, so the top-level usage in an error reads as it does with every
    subcommand built.
    """
    parser = argparse.ArgumentParser(
        prog="altstar",
        description="Exact checks for alternative *-algebras: axioms, "
                    "Peirce decompositions, *-Jordan products, and map "
                    "falsification.")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(SUBCOMMANDS) + "}")
    for name in (command,) if command else SUBCOMMANDS:
        help_, func, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def run_cli(argv: Sequence[str]) -> tuple[int, dict]:
    """Exit code plus the report document.  Only the parser of the
    subcommand that argv names is built; -h, an unknown name or no
    arguments build them all."""
    argv = list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS
                          else None)
    args = parser.parse_args(argv)
    return args.func(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, doc = run_cli(argv)
    except (CliInputError, AlgebraError, ScalarError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(canonical_json(doc))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
