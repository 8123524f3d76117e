"""Finite-dimensional nonassociative *-algebras over the Gaussian rationals.

An algebra is a basis b_0..b_{dim-1}, a structure tensor c with
b_i * b_j = sum_k c[i][j][k] b_k, a distinguished two-sided unit, and a
conjugate-linear involution ``star`` given by a matrix S applied to the
entrywise-conjugated coordinate vector.

The axiom checkers verify the *linearized* alternative laws over all basis
triples; over a field of characteristic zero that is equivalent to the
alternative laws themselves (substitute y = x to recover them, and the
linearization of a quadratic identity is sum-of-substitutions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import linalg
from .scalars import ONE, ZERO, Scalar


class AlgebraError(ValueError):
    pass


class Element:
    """Coordinate vector tied to its parent algebra; immutable and hashable."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "Algebra", coords: Sequence[Scalar]):
        if len(coords) != algebra.dim:
            raise AlgebraError(
                f"coordinate length {len(coords)} != dim {algebra.dim}")
        self.algebra = algebra
        self.coords = tuple(coords)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, o: "Element") -> "Element":
        _same_algebra(self, o)
        return Element(self.algebra,
                       [a + b for a, b in zip(self.coords, o.coords)])

    def __sub__(self, o: "Element") -> "Element":
        _same_algebra(self, o)
        return Element(self.algebra,
                       [a - b for a, b in zip(self.coords, o.coords)])

    def __neg__(self) -> "Element":
        return Element(self.algebra, [-a for a in self.coords])

    def __mul__(self, o: "Element") -> "Element":
        return self.algebra.multiply(self, o)

    def scale(self, s: Scalar) -> "Element":
        return Element(self.algebra, [s * a for a in self.coords])

    def star(self) -> "Element":
        return self.algebra.star(self)

    def __eq__(self, o: object) -> bool:
        return (isinstance(o, Element) and self.algebra is o.algebra
                and self.coords == o.coords)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.coords))

    def __repr__(self) -> str:
        terms = [f"{c}*{self.algebra.basis_labels[k]}"
                 for k, c in enumerate(self.coords) if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


def _same_algebra(x: Element, y: Element) -> None:
    if x.algebra is not y.algebra:
        raise AlgebraError("algebra mismatch between operands")


class Algebra:
    """Structure-constant algebra with unit and conjugate-linear star."""

    def __init__(self, name: str, dim: int, basis_labels: Sequence[str],
                 structure: Mapping[tuple[int, int, int], Scalar],
                 unit_coords: Sequence[Scalar],
                 star_matrix: Sequence[Sequence[Scalar]]):
        if dim <= 0:
            raise AlgebraError("dim must be positive")
        if len(basis_labels) != dim or len(set(basis_labels)) != dim:
            raise AlgebraError("need dim distinct basis labels")
        self.name = name
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        rows: list[list[list[tuple[int, Scalar]]]] = [
            [[] for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), c in structure.items():
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise AlgebraError(f"structure index ({i},{j},{k}) out of range")
            if not c.is_zero():
                rows[i][j].append((k, c))
        for i in range(dim):
            for j in range(dim):
                rows[i][j].sort(key=lambda e: e[0])
        # products iterate only the nonzero support of each basis pair
        self._rows = tuple(tuple(tuple(cell) for cell in row) for row in rows)
        self._star_matrix = tuple(tuple(row) for row in star_matrix)
        if len(self._star_matrix) != dim or any(len(r) != dim
                                                for r in self._star_matrix):
            raise AlgebraError("star matrix must be dim x dim")
        self.unit = Element(self, unit_coords)
        self._basis = tuple(
            Element(self, [ONE if t == k else ZERO for t in range(dim)])
            for k in range(dim))

    # -- constructors ------------------------------------------------------

    def element(self, coords: Sequence[Scalar]) -> Element:
        return Element(self, coords)

    def zero(self) -> Element:
        return Element(self, [ZERO] * self.dim)

    def basis_element(self, k: int) -> Element:
        return self._basis[k]

    def basis(self) -> tuple[Element, ...]:
        return self._basis

    # -- core operations ---------------------------------------------------

    def structure_constant(self, i: int, j: int, k: int) -> Scalar:
        for kk, c in self._rows[i][j]:
            if kk == k:
                return c
        return ZERO

    def structure_entries(self) -> Iterable[tuple[int, int, int, Scalar]]:
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in self._rows[i][j]:
                    yield i, j, k, c

    def multiply(self, x: Element, y: Element) -> Element:
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraError("algebra mismatch in multiply")
        out = [ZERO] * self.dim
        rows = self._rows
        for i, xi in enumerate(x.coords):
            if xi.is_zero():
                continue
            row = rows[i]
            for j, yj in enumerate(y.coords):
                if yj.is_zero():
                    continue
                f = xi * yj
                for k, c in row[j]:
                    out[k] = out[k] + f * c
        return Element(self, out)

    def star(self, x: Element) -> Element:
        if x.algebra is not self:
            raise AlgebraError("algebra mismatch in star")
        return Element(self, linalg.mat_vec(self._star_matrix,
                                            [c.conj() for c in x.coords]))

    def star_matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._star_matrix

    def associator(self, x: Element, y: Element, z: Element) -> Element:
        return (x * y) * z - x * (y * z)

    def __repr__(self) -> str:
        return f"Algebra({self.name!r}, dim={self.dim})"


# -- axiom reports ---------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Inputs that reproduce a violation, with the nonzero residual."""
    args: tuple[Element, ...]
    residual: Element


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[Witness] = None


@dataclass(frozen=True)
class AxiomReport:
    algebra_name: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_alternative(a: Algebra) -> AxiomReport:
    """Linearized left/right alternative and flexible laws over basis triples.

    One scan in product order: each law adds assoc(x, y, z) to the
    associator of its own permutation of the triple, and keeps the first
    triple where the sum is nonzero.
    """
    partners = (("left_alternative_linearized", (1, 0, 2)),
                ("right_alternative_linearized", (0, 2, 1)),
                ("flexible_linearized", (2, 1, 0)))
    found: dict[str, Witness] = {}
    for t in itertools.product(a.basis(), repeat=3):
        if len(found) == len(partners):
            break
        base = a.associator(*t)
        for name, perm in partners:
            if name not in found:
                r = base + a.associator(*(t[k] for k in perm))
                if not r.is_zero():
                    found[name] = Witness(t, r)
    return AxiomReport(a.name, tuple(
        CheckResult(name, name not in found, found.get(name))
        for name, _ in partners))


def check_unit(a: Algebra) -> AxiomReport:
    results = []
    w = None
    for b in a.basis():
        left = a.unit * b - b
        if not left.is_zero():
            w = Witness((a.unit, b), left)
            break
        right = b * a.unit - b
        if not right.is_zero():
            w = Witness((b, a.unit), right)
            break
    results.append(CheckResult("two_sided_unit", w is None, w))
    return AxiomReport(a.name, tuple(results))


def check_involution(a: Algebra) -> AxiomReport:
    """star is involutive, unit-fixing and an anti-automorphism on products.

    Conjugate-linearity holds by construction (star is a fixed matrix applied
    to conjugated coordinates), so it is not re-checked here.
    """
    basis = a.basis()
    results = []

    w = None
    for b in basis:
        r = b.star().star() - b
        if not r.is_zero():
            w = Witness((b,), r)
            break
    results.append(CheckResult("involutive", w is None, w))

    r = a.unit.star() - a.unit
    results.append(CheckResult(
        "unit_fixed", r.is_zero(),
        None if r.is_zero() else Witness((a.unit,), r)))

    w = None
    for x in basis:
        for y in basis:
            r = (x * y).star() - y.star() * x.star()
            if not r.is_zero():
                w = Witness((x, y), r)
                break
        if w is not None:
            break
    results.append(CheckResult("anti_automorphism", w is None, w))
    return AxiomReport(a.name, tuple(results))


def check_axioms(a: Algebra) -> AxiomReport:
    """Unit, alternativity and involution checks in one report."""
    checks = (check_unit(a).checks + check_alternative(a).checks
              + check_involution(a).checks)
    return AxiomReport(a.name, checks)
