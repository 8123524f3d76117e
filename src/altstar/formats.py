"""On-disk JSON formats and the algebra spec grammar.

Algebra files carry the full multiplication data (structure constants with
explicit indices), the unit, the star matrix, and optionally a table of
named idempotents.  Map files reference their domain/codomain by spec
string and carry the linear part plus the pointwise patch table.

All emitters are byte-deterministic: fixed key order, indent=2, canonical
scalar literals, trailing newline.
"""

from __future__ import annotations

import json
import sys
from typing import Optional, Sequence

from .algebra import Algebra, AlgebraError
from .constructions import (ConstructionError, cayley_dickson, direct_sum,
                            matrix_algebra, zorn_algebra)
from .maps import AlgebraMap
from .scalars import Scalar, ZERO, format_scalar, parse_scalar


class FormatError(AlgebraError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- scalar/vector helpers --------------------------------------------------


def scalar_list(coords: Sequence[Scalar]) -> list[str]:
    return [format_scalar(c) for c in coords]


def scalar_matrix(rows: Sequence[Sequence[Scalar]]) -> list[list[str]]:
    return [scalar_list(r) for r in rows]


def parse_scalar_list(items, what: str, dim: int) -> list[Scalar]:
    if not isinstance(items, list) or not all(isinstance(t, str)
                                              for t in items):
        raise FormatError(f"{what} must be a list of scalar literals")
    if len(items) != dim:
        raise FormatError(f"{what}: expected {dim} scalars, got {len(items)}")
    return [parse_scalar(t, f"{what}[{k}]") for k, t in enumerate(items)]


# -- algebra files ----------------------------------------------------------


def algebra_to_dict(a: Algebra,
                    idempotents: Optional[dict[str, Sequence[Scalar]]] = None
                    ) -> dict:
    entries = sorted(a.structure_entries(), key=lambda e: (e[0], e[1], e[2]))
    d = {
        "name": a.name,
        "dim": a.dim,
        "basis_labels": list(a.basis_labels),
        "unit": scalar_list(a.unit.coords),
        "star": scalar_matrix(a.star_matrix()),
        "structure": [{"i": i, "j": j, "k": k, "c": format_scalar(c)}
                      for i, j, k, c in entries],
    }
    if idempotents:
        d["idempotents"] = {name: scalar_list(coords)
                            for name, coords in idempotents.items()}
    return d


def _req(d: dict, key: str, kind, what: str):
    if key not in d:
        raise FormatError(f"{what}: missing field '{key}'")
    v = d[key]
    if kind is int and isinstance(v, bool):
        raise FormatError(f"{what}: field '{key}' must be an integer")
    if not isinstance(v, kind):
        raise FormatError(f"{what}: field '{key}' has the wrong type")
    return v


def _structure_entry(entry, t: int, what: str) -> tuple[int, int, int, str]:
    if not isinstance(entry, dict):
        raise FormatError(f"{what}: structure[{t}] must be an object")
    ew = f"structure[{t}]"
    return (_req(entry, "i", int, ew), _req(entry, "j", int, ew),
            _req(entry, "k", int, ew), _req(entry, "c", str, ew))


def algebra_from_dict(d: dict) -> tuple[Algebra, dict[str, list[Scalar]]]:
    if not isinstance(d, dict):
        raise FormatError("algebra file: top level must be an object")
    what = "algebra file"
    name = _req(d, "name", str, what)
    dim = _req(d, "dim", int, what)
    if dim < 1:
        raise FormatError(f"{what}: dim must be positive, got {dim}")
    if dim > MAX_DIM:
        raise FormatError(f"{what}: dim must be at most {MAX_DIM}, got {dim}")
    labels = _req(d, "basis_labels", list, what)
    if not all(isinstance(t, str) for t in labels):
        raise FormatError(f"{what}: basis_labels must be strings")
    unit = parse_scalar_list(_req(d, "unit", list, what), "unit", dim)
    star_rows = _req(d, "star", list, what)
    if len(star_rows) != dim:
        raise FormatError(f"{what}: star must have {dim} rows")
    star = [parse_scalar_list(r, f"star[{i}]", dim)
            for i, r in enumerate(star_rows)]
    structure: dict[tuple[int, int, int], Scalar] = {}
    for t, entry in enumerate(_req(d, "structure", list, what)):
        # a well-formed entry is read without making its error texts; any
        # other is read again by _structure_entry, which names the fault
        try:
            i, j, k, c = entry["i"], entry["j"], entry["k"], entry["c"]
            plain = type(i) is type(j) is type(k) is int and type(c) is str
        except (KeyError, TypeError):
            plain = False
        if not plain:
            i, j, k, c = _structure_entry(entry, t, what)
        c = parse_scalar(c, f"structure[{t}].c")
        if (i, j, k) in structure:
            raise FormatError(f"{what}: duplicate structure entry "
                              f"({i},{j},{k})")
        structure[(i, j, k)] = c
    try:
        a = Algebra(name, dim, labels, structure, unit, star)
    except AlgebraError as exc:
        raise FormatError(f"{what}: {exc}") from exc
    idem: dict[str, list[Scalar]] = {}
    if "idempotents" in d:
        table = _req(d, "idempotents", dict, what)
        for iname, coords in table.items():
            idem[iname] = parse_scalar_list(coords,
                                            f"idempotents.{iname}", dim)
    return a, idem


def _read_json(path: str, kind: str):
    """The JSON document in the *kind* file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {kind} file {path!r}: {exc}") \
            from exc
    # a decode error, bytes that are not UTF-8 or nesting past the
    # recursion limit
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"{kind} file {path!r} is not valid JSON: {exc}") \
            from exc
    except ValueError:  # an integer past the digit limit of Python's int()
        raise FormatError(f"{kind} file {path!r} is not valid JSON: a number "
                          f"has more than {sys.get_int_max_str_digits()} "
                          "digits") from None


def load_algebra_file(path: str) -> tuple[Algebra, dict[str, list[Scalar]]]:
    return algebra_from_dict(_read_json(path, "algebra"))


# -- algebra spec grammar ---------------------------------------------------
#
#   zorn | matrix:K | cd:G1,G2,... | dsum:SPEC_A,SPEC_B | <path to JSON file>
#
# Builtins are tried first; anything that does not parse as a builtin is
# treated as a file path.  dsum splits its payload on the first comma, so
# its halves must themselves be comma-free specs (zorn, matrix:K, a file).
#
# matrix:K builds K^3 structure entries and `check` scans about dim^3/2
# basis triples per alternative law, so every algebra, builtin or file, is
# bounded before anything is allocated.
MAX_MATRIX_SIZE = 8
MAX_DIM = MAX_MATRIX_SIZE ** 2


def _idempotents(a: Algebra, k: int) -> dict[str, list[Scalar]]:
    """A builtin's table: e1 is the unit's part on the first k coordinates
    and e2 = 1 - e1 the rest.  That is the first basis vector of zorn and
    matrix:K (k = 1) and the left block unit of a dsum."""
    u = a.unit.coords
    return {"e1": [c if t < k else ZERO for t, c in enumerate(u)],
            "e2": [ZERO if t < k else c for t, c in enumerate(u)]}


def resolve_algebra(spec: str) -> tuple[Algebra, dict[str, list[Scalar]]]:
    """Spec string or file path -> (algebra, named idempotent coords)."""
    spec = spec.strip()
    if not spec:
        raise FormatError("empty algebra spec")
    if spec == "zorn":
        a = zorn_algebra()
        return a, _idempotents(a, 1)
    head, _, payload = spec.partition(":")
    if head == "matrix":
        try:
            k = int(payload)
        except ValueError:
            raise FormatError(f"matrix spec needs an integer size, "
                              f"got {payload!r}") from None
        if k > MAX_MATRIX_SIZE:
            raise FormatError(f"matrix:K supports K <= {MAX_MATRIX_SIZE} "
                              f"(dim {MAX_MATRIX_SIZE ** 2}), got {k}")
        a = matrix_algebra(k)
        return a, (_idempotents(a, 1) if k >= 2 else {})
    if head == "cd":
        if not payload:
            raise FormatError("cd spec needs a comma-separated scalar list")
        gammas = [parse_scalar(t, f"cd gamma[{n}]")
                  for n, t in enumerate(payload.split(","))]
        try:
            return cayley_dickson(gammas), {}
        except ConstructionError as exc:
            raise FormatError(str(exc)) from exc
    if head == "dsum":
        left_spec, sep, right_spec = payload.partition(",")
        if not sep or not left_spec or not right_spec:
            raise FormatError("dsum spec needs two comma-separated parts")
        for part in (left_spec, right_spec):
            if part.strip().split(":", 1)[0] in ("cd", "dsum"):
                raise FormatError(
                    "dsum parts must be comma-free specs (zorn, matrix:K, "
                    "or a file path)")
        left, _ = resolve_algebra(left_spec)
        right, _ = resolve_algebra(right_spec)
        if left.dim + right.dim > MAX_DIM:
            raise FormatError(f"dsum dimension must be at most {MAX_DIM}, "
                              f"got {left.dim} + {right.dim}")
        a = direct_sum(left, right)
        return a, _idempotents(a, left.dim)
    return load_algebra_file(spec)


# -- map files ---------------------------------------------------------------


def map_to_dict(phi: AlgebraMap, domain_spec: str, codomain_spec: str) -> dict:
    return {
        "name": phi.name,
        "domain": domain_spec,
        "codomain": codomain_spec,
        "matrix": scalar_matrix(phi.linear_part),
        "conjugates_scalars": phi.conjugates_scalars,
        "patches": [{"in": scalar_list(x.coords),
                     "out": scalar_list(y.coords)}
                    for x, y in phi.patches.items()],
    }


def map_from_dict(d: dict) -> tuple[AlgebraMap, dict[str, list[Scalar]]]:
    """Build the map; also return the domain's named idempotents."""
    if not isinstance(d, dict):
        raise FormatError("map file: top level must be an object")
    what = "map file"
    name = d.get("name", "map")
    if not isinstance(name, str):
        raise FormatError(f"{what}: field 'name' has the wrong type")
    dom_spec = _req(d, "domain", str, what)
    cod_spec = _req(d, "codomain", str, what)
    domain, dom_idem = resolve_algebra(dom_spec)
    # equal specs name one algebra: build it once
    codomain = (domain if cod_spec == dom_spec
                else resolve_algebra(cod_spec)[0])
    rows = _req(d, "matrix", list, what)
    if len(rows) != codomain.dim:
        raise FormatError(f"{what}: matrix must have {codomain.dim} rows")
    matrix = [parse_scalar_list(r, f"matrix[{i}]", domain.dim)
              for i, r in enumerate(rows)]
    conj = d.get("conjugates_scalars", False)
    if not isinstance(conj, bool):
        raise FormatError(f"{what}: field 'conjugates_scalars' must be a "
                          "boolean")
    entries = d.get("patches", [])
    if not isinstance(entries, list):
        raise FormatError(f"{what}: field 'patches' must be a list")
    patches = {}
    first_index = {}  # patch input -> index of its entry
    for t, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"{what}: patches[{t}] must be an object")
        ew = f"patches[{t}]"
        x = domain.element(parse_scalar_list(_req(entry, "in", list, ew),
                                             f"{ew}.in", domain.dim))
        y = codomain.element(parse_scalar_list(_req(entry, "out", list, ew),
                                               f"{ew}.out", codomain.dim))
        if x in first_index:
            raise FormatError(f"{what}: duplicate patch input in "
                              f"patches[{first_index[x]}] and {ew}")
        first_index[x] = t
        patches[x] = y
    try:
        phi = AlgebraMap(domain, codomain, matrix, conj, patches, name)
    except AlgebraError as exc:
        raise FormatError(f"{what}: {exc}") from exc
    return phi, dom_idem


def load_map_file(path: str) -> tuple[AlgebraMap, dict[str, list[Scalar]]]:
    return map_from_dict(_read_json(path, "map"))
