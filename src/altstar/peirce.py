"""Peirce decomposition relative to a symmetric idempotent, and the
left-annihilator condition on the column spaces A·e_i.

With e1 a symmetric idempotent, e2 = 1 - e1, and A_ij = e_i (A e_j), an
alternative algebra splits as A = A11 + A12 + A21 + A22 (direct sum).  The
component relations checked here:

  (i)   A_ij * A_jl  is contained in  A_il
  (ii)  A_ij * A_ij  is contained in  A_ji   (may be nonzero for i != j)
  (iii) A_ij * A_kl = 0  when j != k and (i,j) != (k,l)
  (iv)  x*x = 0  for x in A_12 or A_21
  (v)   star maps A_ij into A_ji

Each projection x -> e_i (x e_j) is linear.  PeirceSystem checks the unit
and involution laws of ``check``, so e2 is a symmetric idempotent, and
builds all four projections of a basis vector b from e1 alone: from e1 b,
b e1 and e1 (b e1) by subtraction.  It stores each projection once as a
matrix from the images of the basis, compiled to an IntMatrix, so a
projection, a decomposition or a membership test costs integer
matrix-vector products and no algebra product.  The build proves (v);
(i)-(iv) are one ``first_witnesses`` scan whose case is one sample's draws.

The annihilator condition ("spade") for e_j: x * (a e_j) = 0 for all a
implies x = 0; note the parenthesization, the products are x(ae), never
(xa)e.  It is decided exactly on a PeirceSystem, whose component bases of
A_1j and A_2j span A e_j, via the nullspace of the induced linear map.
spade_pair decides both sides into a SpadeReport, whose ok holds when
every side does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from . import linalg
from .algebra import (Algebra, AlgebraError, CheckResult, Element,
                      IntMatrix, Witness, _witness, first_witnesses)
from .sampling import derive_rng, random_combination
from .scalars import I, half_power

IJ_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


class PeirceError(AlgebraError):
    pass


class StarAlgebraLawError(PeirceError):
    """The algebra fails a unit or involution law, whatever e1 is."""


@dataclass(frozen=True)
class IdempotentInfo:
    is_idempotent: bool
    is_symmetric: bool
    is_trivial: bool


def classify_idempotent(a: Algebra, e: Element) -> IdempotentInfo:
    idem = (e * e - e).is_zero()
    sym = (e.star() - e).is_zero()
    trivial = e.is_zero() or (e - a.unit).is_zero()
    return IdempotentInfo(idem, sym, trivial)


def find_symmetric_idempotents(a: Algebra) -> list[Element]:
    """Nontrivial symmetric idempotents among structured candidates.

    Candidates: basis vectors, (1 +- b)/2 and (1 +- i*b)/2 for basis b.
    Deterministic order, deduplicated.
    """
    half = half_power(1)
    candidates: list[Element] = []
    for b in a.basis():
        candidates.append(b)
        candidates.append((a.unit + b).scale(half))
        candidates.append((a.unit - b).scale(half))
        candidates.append((a.unit + b.scale(I)).scale(half))
        candidates.append((a.unit - b.scale(I)).scale(half))
    out: list[Element] = []
    seen = set()
    for e in candidates:
        if e in seen:
            continue
        seen.add(e)
        info = classify_idempotent(a, e)
        if info.is_idempotent and info.is_symmetric and not info.is_trivial:
            out.append(e)
    return out


def require_star_algebra_laws(a: Algebra) -> None:
    """Raise StarAlgebraLawError at the first law of check_unit and
    check_involution, in check's order, that the algebra fails; the laws
    are decided once per Algebra object."""
    c = a._failed_load_law
    if c is not None:
        args = ", ".join(map(repr, c.witness.args))
        raise StarAlgebraLawError(f"the algebra fails {c.name} at ({args})")


class PeirceSystem:
    """A validated pair (e1, e2 = 1 - e1) with the four projection
    matrices and component bases.

    The build checks, in order: the unit and involution laws
    (require_star_algebra_laws); e1 idempotent, symmetric and nontrivial;
    Peirce compatibility on the basis; and that the components form a
    direct sum.  The first build on an algebra makes 6 dim + 1 products
    and 2 dim + 2 stars, a later one 4 dim + 1 products and 1 star.
    """

    def __init__(self, algebra: Algebra, e1: Element):
        # e2 = 1 - e1 is a symmetric idempotent only for a two-sided unit
        # that star fixes; with the involution laws and Peirce compatibility,
        # (e_i (x e_j))* = e_j (x* e_i), so star maps A_ij onto A_ji
        require_star_algebra_laws(algebra)
        u = algebra.unit
        info = classify_idempotent(algebra, e1)
        if not info.is_idempotent:
            raise PeirceError("e1 is not idempotent")
        if not info.is_symmetric:
            raise PeirceError("e1 is not star-symmetric")
        if info.is_trivial:
            raise PeirceError("e1 must differ from 0 and 1")
        self.algebra = algebra
        self.e1 = e1
        self.e2 = u - e1

        # Each projection x -> e_i (x e_j) is linear, so it is stored once as
        # the matrix of the images of the basis.  With e2 = 1 - e1 and the
        # unit two-sided, each image of b is a sum of b, L = e1 b, R = b e1
        # and P = e1 (b e1), and the four laws (e_i b) e_j = e_i (b e_j)
        # reduce to (e1 b) e1 = P, so that law alone is checked on the basis.
        images = []
        for b in algebra.basis():
            left, right = e1 * b, b * e1
            p11 = e1 * right
            if not (left * e1 - p11).is_zero():
                raise PeirceError(
                    "idempotent fails Peirce compatibility "
                    f"(e_i b) e_j != e_i (b e_j) at basis {b!r}")
            images.append((p11, left - p11, right - p11,
                           b - left - right + p11))
        projected = dict(zip(IJ_PAIRS, zip(*images)))

        columns = {ij: linalg.from_columns([x.coords for x in cols])
                   for ij, cols in projected.items()}
        self._matrices = {ij: IntMatrix(m) for ij, m in columns.items()}
        # each component basis is the pivot columns of its matrix
        bases = {ij: [projected[ij][t] for t in linalg.rref(m)[1]]
                 for ij, m in columns.items()}
        self.component_bases = bases
        # the four projections of b sum to b, so the components span the
        # algebra; they form a direct sum exactly when their dimensions
        # add up to dim, and otherwise they overlap
        total = sum(len(v) for v in bases.values())
        if total != algebra.dim:
            raise PeirceError(
                f"Peirce components overlap: their dimensions sum to {total} "
                f"> dim {algebra.dim}, so the sum is not direct")

    def idempotent(self, i: int) -> Element:
        return self.e1 if i == 1 else self.e2

    def project(self, x: Element, ij: tuple[int, int]) -> Element:
        """e_i (x e_j), as one matrix-vector product."""
        if x.algebra is not self.algebra:
            raise PeirceError("element does not live in the Peirce algebra")
        return self._matrices[ij].apply(x, self.algebra)

    def component_dims(self) -> dict[tuple[int, int], int]:
        return {ij: len(self.component_bases[ij]) for ij in IJ_PAIRS}


def peirce_decompose(p: PeirceSystem,
                     x: Element) -> dict[tuple[int, int], Element]:
    """Split x into its four components e_i (x e_j), keyed in IJ_PAIRS order.

    Each component is one matrix-vector product with a projection matrix
    that PeirceSystem computed once; no algebra product is made.
    """
    return {ij: p.project(x, ij) for ij in IJ_PAIRS}


def component_of(p: PeirceSystem, x: Element, ij: tuple[int, int]) -> bool:
    """True iff x lies in A_ij, decided by its stored projection matrix."""
    # PeirceSystem checked that the unit is two-sided, so the four
    # projections recombine to x, and that the component dimensions add up
    # to dim, so A11 + A12 + A21 + A22 is a direct sum: x lies in A_ij
    # exactly when its A_ij projection is x.
    return p.project(x, ij) == x


def random_component(p: PeirceSystem, ij: tuple[int, int], rng) -> Element:
    basis = p.component_bases[ij]
    if not basis:
        raise PeirceError(f"A_{ij[0]}{ij[1]} is zero-dimensional")
    return random_combination(basis, rng)


def _relation_table() -> tuple[tuple, ...]:
    """(check name, x, y, target) for relations (i)-(v), in report order.

    x and y are sample draws (component, 0 or 1), and y is None for the
    star law; the product or star must lie in target, or vanish if None.
    """
    rows = []
    for i, j in IJ_PAIRS:
        for k, l in IJ_PAIRS:
            # a product within one component takes its second draw as y
            x, y = ((i, j), 0), ((k, l), int((k, l) == (i, j)))
            if j == k:
                rows.append((f"(i) A{i}{j}*A{k}{l} in A{i}{l}", x, y, (i, l)))
            elif (i, j) == (k, l):
                rows.append((f"(ii) A{i}{j}*A{i}{j} in A{j}{i}", x, y, (j, i)))
            else:
                rows.append((f"(iii) A{i}{j}*A{k}{l} = 0", x, y, None))
    for i, j in ((1, 2), (2, 1)):
        x = ((i, j), 0)
        rows.append((f"(iv) squares in A{i}{j} vanish", x, x, None))
    for i, j in IJ_PAIRS:
        rows.append((f"(v) star(A{i}{j}) in A{j}{i}", ((i, j), 0), None,
                     (j, i)))
    return tuple(rows)


_RELATIONS = _relation_table()


@dataclass(frozen=True)
class PeirceRelationsReport:
    checks: tuple[CheckResult, ...]
    offdiag_product_witness: Optional[Witness]  # nonzero x12*y12 if seen
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", all(c.passed for c in self.checks))


def check_peirce_relations(p: PeirceSystem, samples: int,
                           seed: int) -> PeirceRelationsReport:
    """Sampled membership checks for relations (i)-(iv) above; (v) passes.

    Membership is decided exactly, as in component_of: the residual of x
    in A_ij is x - e_i (x e_j), one product with a projection matrix.  The
    (v) checks pass unsampled: (e_i (x e_j))* = e_j (x* e_i) on every built
    system.  The report also carries the first nonzero A12*A12 product
    encountered, which witnesses the genuinely alternative (nonassociative)
    case.
    """
    if samples < 1:
        raise PeirceError(f"samples must be >= 1, got {samples}")
    dims = p.component_dims()

    def law(x, y, target, draws: dict) -> Optional[Witness]:
        args = (draws[x], draws[y])
        # a product is kept beside the draws it is made of, so the
        # off-diagonal witness reuses the product of (ii) A12*A12
        if (x, y) not in draws:
            draws[x, y] = args[0] * args[1]
        value = draws[x, y]
        if target is not None:
            value = value - p.project(value, target)
        return _witness(args, value)

    # a relation on a zero-dimensional component holds vacuously
    laws = {name: partial(law, x, y, target)
            for name, x, y, target in _RELATIONS
            if y is not None and dims[x[0]] and dims[y[0]]}
    if dims[1, 2]:
        # the first nonzero product of (ii) A12*A12
        laws["offdiag"] = partial(law, ((1, 2), 0), ((1, 2), 1), None)
    # a sample draws twice from each nonzero component
    samples_drawn = ({(ij, k): random_component(p, ij, rng)
                      for ij in IJ_PAIRS if dims[ij] for k in (0, 1)}
                     for rng in (derive_rng(seed, "peirce", s)
                                 for s in range(samples)))
    found = first_witnesses(samples_drawn, laws)
    witness = {name: w for name, (_, w) in found.items()}
    checks = tuple(CheckResult(name, witness.get(name) is None,
                               witness.get(name)) for name, *_ in _RELATIONS)
    return PeirceRelationsReport(checks, witness.get("offdiag"))


@dataclass(frozen=True)
class SpadeResult:
    holds: bool
    witness: Optional[Element]  # nonzero x with x*(a e) = 0 for all a


def check_spade(p: PeirceSystem, j: int) -> SpadeResult:
    """Exact decision of: x (A e_j) = 0 implies x = 0.

    The generators g of A e_j are the component bases of A_1j and A_2j, so
    no generator is re-made.  Builds the matrix of x -> (x g)_g and computes
    its nullspace.  A nonzero nullspace vector x is returned as the witness
    after verifying the property itself: x g = 0 for each generator g.
    """
    # PeirceSystem checked that the unit is two-sided (check_unit), so
    # b e_j = e_1 (b e_j) + e_2 (b e_j) and A e_j = A_1j + A_2j
    a = p.algebra
    gens = p.component_bases[(1, j)] + p.component_bases[(2, j)]
    # one row block per generator g: the matrix of x -> x g
    rows = [row for g in gens
            for row in linalg.from_columns([(b * g).coords
                                            for b in a.basis()])]
    null = linalg.nullspace(rows)
    if not null:
        return SpadeResult(True, None)
    x = a.element(null[0])
    if not all((x * g).is_zero() for g in gens):
        raise PeirceError("internal error: spade witness fails to verify")
    return SpadeResult(False, x)


@dataclass(frozen=True)
class SpadeReport:
    spade: dict[str, bool]  # keyed "e1" and "e2"
    witnesses: dict[str, Optional[Element]]
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", all(self.spade.values()))


def spade_pair(p: PeirceSystem) -> SpadeReport:
    """The annihilator condition for e1 and for e2."""
    sides = {f"e{j}": check_spade(p, j) for j in (1, 2)}
    return SpadeReport({e: r.holds for e, r in sides.items()},
                       {e: r.witness for e, r in sides.items()})
