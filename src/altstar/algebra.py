"""Finite-dimensional nonassociative *-algebras over the Gaussian rationals.

An algebra is a basis b_0..b_{dim-1}, a structure tensor c with
b_i * b_j = sum_k c[i][j][k] b_k, a distinguished two-sided unit, and a
conjugate-linear involution ``star`` given by a matrix S applied to the
entrywise-conjugated coordinate vector.

An Element stores its coordinates as Gaussian-integer numerators over one
shared denominator: coordinate k is (re[k] + i im[k]) / den.  The form is
canonical (den > 0 and gcd(den, *re, *im) = 1), so equal values have equal
fields and equal hashes.  The structure tensor and every linear map on
elements (star, Peirce projections, map cores) are compiled once to sparse
integer entries over one common denominator, so products, stars, sums and
projections run on plain ints and normalise each result with one gcd.
``Algebra._add_products`` sums products and one column loop
(``IntMatrix._numerators``) applies matrices.  On a sparse tensor a product
loops over the nonzero x_i and the flat entry list of row i, the entries
(j, k, c) of the cells b_i b_j made once (``Algebra._flat``).  The
*-Jordan pair {x, y} = x y + y x* (``Algebra.jordan_pair``) runs on
unnormalised numerators and normalises once; on a sparse tensor it sums
both products in one pass over the flat entry list.
Scalars appear only at the edges: construction from coordinates, the
``coords`` view, and the structure accessors.

Packed cells.  At a slot width w, a power of two and at least 64, the
cell b_i b_j = sum_k c_ijk b_k packs (Kronecker substitution) to two
ints, sum_k re(c_ijk) 2^(w k) and the same of im(c_ijk); an algebra packs
once per width.  Sums of packed cells times ints are exact, and while
every slot s_k has |s_k| < 2^(w - 1) the sum is 0 iff every slot is and
``_unpack`` reads the slots back.  With C the largest numerator of the
tensor and bits() the bit length, w is the least width such that:
  * for a product x y on a dense tensor (at least two entries per
    nonempty cell on average, decided from the tensor), which sums
    x^i y^j cell(i, j) over the nx ny nonzero pairs and unpacks once,
    w >= bits(X) + bits(Y) + bits(C) + bits(nx ny) + 3: with X, Y the
    largest numerators of x, y, a term's slots are at most 2 X Y 2 C.
    Other tensors, such as the builtins and their direct sums with one
    entry per nonempty cell, loop over the flat entry list instead.
  * for the alternative laws, on every algebra, w >= bits(dim)
    + 2 bits(C) + 4: a residual is two to four passes of at most dim
    terms c cell, |c| <= C for a cell and 2 C for a symmetric cell, and
    |c| <= 4 C over a law's passes, so its slots are at most 8 dim C^2.
    It is tested for 0 packed; only a witness is unpacked.

The axiom checkers verify the *linearized* alternative laws on basis
triples; over a field of characteristic zero that is equivalent to the
alternative laws themselves (substitute y = x to recover them, and the
linearization of a quadratic identity is sum-of-substitutions).  Every law
is one scan of ``first_witnesses``, the engine that also serves the Peirce
relations, the identity catalog and the map checks.  A linearized law,
whose residual is symmetric under its swap of two slots, scans only the
triples t <= swap(t).  Its residual on a basis triple is summed straight
from the tensor cells b_i b_j, with the symmetric cells
b_i b_j + b_j b_i made once per check, and an Element is built only for
a witness; the basis stars are made once per check.  The law
(x y)* = y* x* is decided the same way, on the pairs (b_i, b_j*) from the
cells and the star matrix's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product
from math import gcd, lcm
from operator import add, or_
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .scalars import ONE, ZERO, Scalar, numerators, scalars_over


class AlgebraError(ValueError):
    pass


class Element:
    """Coordinate vector tied to its parent algebra; immutable and hashable.

    Coordinate k is (re[k] + i im[k]) / den, in the canonical form described
    in the module docstring.
    """

    __slots__ = ("algebra", "re", "im", "den", "_hash")

    def __init__(self, algebra: "Algebra", coords: Sequence[Scalar]):
        if len(coords) != algebra.dim:
            raise AlgebraError(
                f"coordinate length {len(coords)} != dim {algebra.dim}")
        # each Scalar is in lowest terms, so over the lcm of the
        # denominators no prime divides every numerator and den
        re, im, self.den = numerators(coords)
        self.algebra = algebra
        self.re = tuple(re)
        self.im = tuple(im)
        self._hash = None

    @property
    def coords(self) -> tuple[Scalar, ...]:
        """The coordinates as Scalars, built on demand for the edges."""
        return tuple(scalars_over(self.re, self.im, self.den))

    def is_zero(self) -> bool:
        return not (any(self.re) or any(self.im))

    def __add__(self, o: "Element") -> "Element":
        return _sum(self, o, 1)

    def __sub__(self, o: "Element") -> "Element":
        return _sum(self, o, -1)

    def __neg__(self) -> "Element":
        return _raw(self.algebra, tuple(-a for a in self.re),
                    tuple(-b for b in self.im), self.den)

    def __mul__(self, o: "Element") -> "Element":
        return self.algebra.multiply(self, o)

    def scale(self, s: Scalar) -> "Element":
        p, q = s.a, s.b
        return _element(self.algebra,
                        [p * a - q * b for a, b in zip(self.re, self.im)],
                        [p * b + q * a for a, b in zip(self.re, self.im)],
                        s.d * self.den)

    def star(self) -> "Element":
        return self.algebra.star(self)

    def __eq__(self, o: object) -> bool:
        return (isinstance(o, Element) and self.algebra is o.algebra
                and self.den == o.den and self.re == o.re
                and self.im == o.im)

    def __hash__(self) -> int:
        # an Element is immutable, so its hash is computed on first use
        h = self._hash
        if h is None:
            h = self._hash = hash((id(self.algebra), self.den, self.re,
                                   self.im))
        return h

    def __repr__(self) -> str:
        terms = [f"{c}*{self.algebra.basis_labels[k]}"
                 for k, c in enumerate(self.coords) if not c.is_zero()]
        return " + ".join(terms) if terms else "0"


def _raw(algebra: "Algebra", re: tuple, im: tuple, den: int) -> Element:
    """An element from fields already in canonical form."""
    x = object.__new__(Element)
    x.algebra = algebra
    x.re = re
    x.im = im
    x.den = den
    x._hash = None
    return x


def _element(algebra: "Algebra", re: list, im: list, den: int) -> Element:
    """An element from int numerators over den > 0, reduced by one gcd."""
    if den != 1:
        g = gcd(den, *re, *im)
        if g != 1:
            re = [a // g for a in re]
            im = [b // g for b in im]
            den //= g
    return _raw(algebra, tuple(re), tuple(im), den)


def _width(bits: int) -> int:
    """The slot width for values of magnitude below 2**(bits - 1): the
    least power of two that is at least bits and at least 64."""
    return max(64, 1 << (bits - 1).bit_length())


def _absmax(*vectors: Sequence[int]) -> int:
    """The largest magnitude of the ints in *vectors*, all nonempty."""
    return max(max(max(v), -min(v)) for v in vectors)


def _dot(coeffs: Iterable[tuple[int, int, int]],
         cells: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """sum_m c^m cells[m], for packed cells and the nonzero coefficients
    c^m = re + i im given as (m, re, im)."""
    re = im = 0
    for m, p, q in coeffs:
        c, d = cells[m]
        re += p * c - q * d
        im += p * d + q * c
    return re, im


def _unpack(v: int, w: int, bias: int, n: int) -> list[int]:
    """The n signed w-bit slots of v = sum_k s_k 2**(w k), where every
    |s_k| < 2**(w - 1); bias has 2**(w - 1) in each slot, so v + bias has
    the digits s_k + 2**(w - 1) in base 2**w."""
    v += bias
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    return [((v >> s) & mask) - half for s in range(0, w * n, w)]


def _sum(x: Element, y: Element, sign: int) -> Element:
    """x + sign * y over the least common denominator."""
    if x.algebra is not y.algebra:
        raise AlgebraError("algebra mismatch between operands")
    g = gcd(x.den, y.den)
    fx, fy = y.den // g, sign * (x.den // g)
    return _element(x.algebra, [a * fx + b * fy for a, b in zip(x.re, y.re)],
                    [a * fx + b * fy for a, b in zip(x.im, y.im)],
                    x.den * fx)


class IntMatrix:
    """A matrix of Scalar rows, or of integer columns (``of_columns``),
    compiled once to sparse Gaussian-integer columns.

    Entry (k, t) is (re + i im) / den with one common den; column t keeps
    only its nonzero entries as (k, re, im).  ``apply`` is the one kernel
    for linear maps on elements: star, Peirce projections and map cores;
    ``rows`` hands the dense numerators to ``linalg``'s kernel.
    """

    __slots__ = ("nrows", "ncols", "_cols", "_den")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self._compile(len(rows), [numerators(col) for col in zip(*rows)])

    @classmethod
    def of_columns(cls, nrows: int, cols: Sequence[
            tuple[Sequence[int], Sequence[int], int]]) -> "IntMatrix":
        """The matrix whose column t is (re + i im) / d, for
        cols[t] = (re, im, d)."""
        m = object.__new__(cls)
        m._compile(nrows, cols)
        return m

    def _compile(self, nrows: int, cols: Sequence[
            tuple[Sequence[int], Sequence[int], int]]) -> None:
        den = lcm(*(d for _, _, d in cols))
        self.nrows = nrows
        self.ncols = len(cols)
        self._cols = tuple(
            tuple((k, a * f, b * f) for k, a, b in zip(range(nrows), re, im)
                  if a or b)
            for re, im, f in ((re, im, den // d) for re, im, d in cols))
        self._den = den

    def apply(self, x: Element, out: "Algebra",
              conjugate: bool = False) -> Element:
        """This matrix times the coordinates of x (entrywise conjugated
        first if *conjugate*), as an element of *out*."""
        ore, oim = self._numerators(x.re, x.im, conjugate)
        return _element(out, ore, oim, x.den * self._den)

    def _numerators(self, xre: Sequence[int], xim: Sequence[int],
                    conjugate: bool) -> tuple[list[int], list[int]]:
        """The numerators of this matrix times (xre + i xim) (conjugated
        first if *conjugate*), over den times their denominator; not
        normalised."""
        ore = [0] * self.nrows
        oim = [0] * self.nrows
        cols = self._cols
        for t in compress(range(self.ncols), map(or_, xre, xim)):
            a = xre[t]
            b = -xim[t] if conjugate else xim[t]
            for k, c, d in cols[t]:
                ore[k] += a * c - b * d
                oim[k] += a * d + b * c
        return ore, oim

    def rows(self) -> list[tuple[list[int], list[int]]]:
        """The rows as dense numerators (re, im), over den."""
        re = [[0] * self.ncols for _ in range(self.nrows)]
        im = [[0] * self.ncols for _ in range(self.nrows)]
        for t, col in enumerate(self._cols):
            for k, c, d in col:
                re[k][t] = c
                im[k][t] = d
        return list(zip(re, im))

    def scalar_rows(self) -> tuple[tuple[Scalar, ...], ...]:
        return tuple(tuple(scalars_over(re, im, self._den))
                     for re, im in self.rows())


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
        for i, j, k in structure:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise AlgebraError(f"structure index ({i},{j},{k}) out of range")
        # c[i][j][k] = (re + i im) / den with one common den; products
        # iterate only the nonzero support (k, re, im) of each basis pair
        res, ims, den = numerators(list(structure.values()))
        rows: list[list[list[tuple[int, int, int]]]] = [
            [[] for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), a, b in zip(structure, res, ims):
            if a or b:
                rows[i][j].append((k, a, b))
        self._rows = tuple(tuple(tuple(sorted(cell)) for cell in row)
                           for row in rows)
        # row i's entries (j, k, re, im) in one list, for sparse products
        self._flat = tuple(tuple((j, *e) for j, cell in enumerate(row)
                                 for e in cell) for row in self._rows)
        self._den = den
        # the bits of the largest coefficient numerator, and whether the
        # tensor is dense: at least two entries per nonempty cell on average
        entries = [e for row in rows for cell in row for e in cell]
        self._cbits = max((max(abs(p), abs(q)).bit_length()
                           for _, p, q in entries), default=0)
        nonempty = sum(1 for row in rows for cell in row if cell)
        self._dense = len(entries) >= 2 * nonempty > 0
        self._packings: dict[int, tuple[tuple, int]] = {}
        if len(star_matrix) != dim or any(len(r) != dim for r in star_matrix):
            raise AlgebraError("star matrix must be dim x dim")
        self._star = IntMatrix(star_matrix)
        self.unit = Element(self, unit_coords)
        self._zero = Element(self, [ZERO] * dim)
        self._basis = tuple(
            Element(self, [ONE if t == k else ZERO for t in range(dim)])
            for k in range(dim))

    # -- constructors ------------------------------------------------------

    def element(self, coords: Sequence[Scalar]) -> Element:
        return Element(self, coords)

    def zero(self) -> Element:
        return self._zero

    def basis_element(self, k: int) -> Element:
        return self._basis[k]

    def basis(self) -> tuple[Element, ...]:
        return self._basis

    # -- core operations ---------------------------------------------------

    def structure_entries(self) -> Iterable[tuple[int, int, int, Scalar]]:
        for i in range(self.dim):
            for j in range(self.dim):
                for k, a, b in self._rows[i][j]:
                    yield i, j, k, Scalar(a, b, self._den)

    def multiply(self, x: Element, y: Element) -> Element:
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraError("algebra mismatch in multiply")
        n = self.dim
        ore = [0] * n
        oim = [0] * n
        self._add_products(ore, oim, x.re, x.im, y.re, y.im)
        return _element(self, ore, oim, x.den * y.den * self._den)

    def jordan_pair(self, x: Element, y: Element) -> Element:
        """{x, y} = x y + y x* in one integer pass with one normalisation.

        x* is the star matrix on x's conjugated numerators, over
        x.den sden and not normalised, so the sum is over
        x.den y.den den sden and is reduced by one gcd.  On a sparse
        tensor both products run in one pass over the flat entry list:
        entry (i, j, k, c) adds (sden x_i y_j + y_i x*_j) c to slot k.  A
        dense tensor sums x y on packed cells, scales it by sden and adds
        y x* into the same lists.
        """
        if x.algebra is not self or y.algebra is not self:
            raise AlgebraError("algebra mismatch in multiply")
        star = self._star
        s = star._den
        sre, sim = star._numerators(x.re, x.im, True)
        n = self.dim
        ore = [0] * n
        oim = [0] * n
        xre, xim, yre, yim = x.re, x.im, y.re, y.im
        if self._dense:
            self._add_products(ore, oim, xre, xim, yre, yim)
            if s != 1:
                ore = [s * v for v in ore]
                oim = [s * v for v in oim]
            self._add_products(ore, oim, yre, yim, sre, sim)
        else:
            if s != 1:
                xre = [s * v for v in xre]
                xim = [s * v for v in xim]
            for a, b, e, f, row in zip(xre, xim, yre, yim, self._flat):
                if not (a or b or e or f):
                    continue
                for j, k, p, q in row:
                    c = yre[j]
                    d = yim[j]
                    g = sre[j]
                    h = sim[j]
                    fr = a * c - b * d + e * g - f * h
                    fi = a * d + b * c + e * h + f * g
                    ore[k] += fr * p - fi * q
                    oim[k] += fr * q + fi * p
        return _element(self, ore, oim, x.den * y.den * self._den * s)

    def _add_products(self, ore: list, oim: list, xre: Sequence[int],
                      xim: Sequence[int], yre: Sequence[int],
                      yim: Sequence[int]) -> None:
        """Add the numerators of x y into ore, oim: over the product of x's
        and y's denominators and den, for numerators xre + i xim and
        yre + i yim.  A sparse tensor loops over the nonzero x_i and the
        flat entries (j, k, c) of row i, adding x_i y_j c to slot k; a
        dense one is summed on packed cells."""
        if not self._dense:
            for a, b, row in zip(xre, xim, self._flat):
                if not (a or b):
                    continue
                for j, k, p, q in row:
                    c = yre[j]
                    d = yim[j]
                    fr = a * c - b * d
                    fi = a * d + b * c
                    ore[k] += fr * p - fi * q
                    oim[k] += fr * q + fi * p
            return
        n = self.dim
        # the nonzero coordinates: a | b == 0 iff a == b == 0
        ys = [(j, yre[j], yim[j])
              for j in compress(range(n), map(or_, yre, yim))]
        xs = list(compress(range(n), map(or_, xre, xim)))
        if not (xs and ys):
            return
        w = _width(_absmax(xre, xim).bit_length()
                   + _absmax(yre, yim).bit_length() + self._cbits
                   + (len(xs) * len(ys)).bit_length() + 3)
        cells, bias = self._packing(w)
        re = im = 0
        for i in xs:
            # x^i (sum_j y^j cell(i, j))
            a = xre[i]
            b = xim[i]
            r, s = _dot(ys, cells[i])
            re += a * r - b * s
            im += a * s + b * r
        ore[:] = map(add, ore, _unpack(re, w, bias, n))
        oim[:] = map(add, oim, _unpack(im, w, bias, n))

    def _packing(self, w: int) -> tuple[tuple, int]:
        """The cells packed at slot width w, over den, and the bias
        that ``_unpack`` takes; made once per width."""
        packed = self._packings.get(w)
        if packed is None:
            cells = tuple(tuple((sum(p << w * k for k, p, _ in cell),
                                 sum(q << w * k for k, _, q in cell))
                                for cell in row) for row in self._rows)
            bias = sum(1 << (w * k + w - 1) for k in range(self.dim))
            packed = self._packings[w] = (cells, bias)
        return packed

    def star(self, x: Element) -> Element:
        if x.algebra is not self:
            raise AlgebraError("algebra mismatch in star")
        return self._star.apply(x, self, conjugate=True)

    def star_matrix(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._star.scalar_rows()

    def associator(self, x: Element, y: Element, z: Element) -> Element:
        return (x * y) * z - x * (y * z)

    @cached_property
    def _failed_load_law(self) -> Optional[CheckResult]:
        # the first law that check_unit, then check_involution, fails; an
        # Algebra does not change after construction, so it is decided once
        return next((c for check in (check_unit, check_involution)
                     for c in check(self).checks if not c.passed), None)

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
    checks: tuple[CheckResult, ...]
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", all(c.passed for c in self.checks))

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def first_witnesses(cases: Iterable, laws: Mapping[str, Callable]
                    ) -> dict[str, tuple[int, object]]:
    """(run, first witness) of each law over the cases, taken in order.

    A law maps a case to a witness, or to None where it holds.  A case runs
    the laws that have no witness yet, and no case is taken once every law
    has one.  run counts the cases up to the witness, or all those taken.
    """
    found: dict[str, tuple[int, object]] = {}
    pending = list(laws.items())
    run = 0
    for case in cases if pending else ():
        run += 1
        for name, law in pending:
            w = law(case)
            if w is not None:
                found[name] = (run, w)
        if len(found) + len(pending) > len(laws):  # a law got its witness
            pending = [(n, law) for n, law in pending if n not in found]
            if not pending:
                break
    return {name: found.get(name, (run, None)) for name in laws}


def _witness(args: tuple, residual: Element) -> Optional[Witness]:
    """The residual at args as a witness, or None where it vanishes."""
    return None if residual.is_zero() else Witness(args, residual)


def _report(*scans: Mapping[str, tuple]) -> AxiomReport:
    """One CheckResult per law, in order; a law passes without a witness."""
    return AxiomReport(tuple(CheckResult(name, w is None, w)
                             for found in scans
                             for name, (_, w) in found.items()))


def _cell_sum(x: tuple, y: tuple) -> tuple:
    """The sum of two tensor cells, with its zero entries dropped.

    A cell is the nonzero coefficients (k, re, im) of one basis product
    b_i b_j, as in ``Algebra._rows``.
    """
    acc: dict[int, tuple[int, int]] = {}
    for k, p, q in x + y:
        r, s = acc.get(k, (0, 0))
        acc[k] = (r + p, s + q)
    return tuple((k, p, q) for k, (p, q) in sorted(acc.items()) if p or q)


def check_alternative(a: Algebra) -> AxiomReport:
    """Linearized left/right alternative and flexible laws over basis triples.

    Each law swaps two slots of a triple t and has the residual
    assoc(t) + assoc(swap(t)).  The residual at swap(t) equals the one at
    t, so each law scans only the triples with t <= swap(t) (the first
    swapped slot at most the second), in product order, and its first
    witness is the first failing triple of all.

    A residual is summed straight from the tensor cells: with
    cell(i, j) the coefficients of b_i b_j, (c) b_k sums c^m cell(m, k)
    and b_i (c) sums c^m cell(i, m), over numerators on den^2.  With the
    symmetric cells S_ij = cell(i, j) + cell(j, i), made once per check,
    left and right are three such passes each:

        left(i, j, k)  = (S_ij) b_k - b_i (b_j b_k) - b_j (b_i b_k)
        right(i, j, k) = (b_i b_j) b_k + (b_i b_k) b_j - b_i (S_jk)

    and flexible, (b_i b_j) b_k + (b_k b_j) b_i - b_i (b_j b_k)
    - b_k (b_j b_i), is four, on packed cells (module docstring).  No
    Element is made except for a witness.

    The flexible law is scanned only when the left or the right law fails:
    the swaps (0 1) and (1 2) generate S3, so an associator that changes
    sign under both changes sign under (0 2) as well (Schafer, ch. III).
    """
    n, rows, basis = a.dim, a._rows, a.basis()
    w = _width(4 + n.bit_length() + 2 * a._cbits)
    packed, bias = a._packing(w)
    cols = [[packed[m][k] for m in range(n)] for k in range(n)]
    sym = [[_cell_sum(rows[i][j], rows[j][i]) for j in range(n)]
           for i in range(n)]
    # the cells and the symmetric cells with every coefficient negated
    neg, negsym = ([[tuple((m, -p, -q) for m, p, q in cell) for cell in row]
                    for row in t] for t in (rows, sym))
    den = a._den * a._den

    def residual(*passes: tuple[tuple, Sequence[tuple]]
                 ) -> tuple[int, int]:
        # pass (c, cells) adds sum_m c^m cells[m], as _dot does; inlined,
        # since a call per pass makes the scan about 10 % slower
        re = im = 0
        for coeffs, cells in passes:
            for m, p, q in coeffs:
                c, d = cells[m]
                re += p * c - q * d
                im += p * d + q * c
        return re, im

    def left(i: int, j: int, k: int):
        return residual((sym[i][j], cols[k]), (neg[j][k], packed[i]),
                        (neg[i][k], packed[j]))

    def right(i: int, j: int, k: int):
        return residual((rows[i][j], cols[k]), (rows[i][k], cols[j]),
                        (negsym[j][k], packed[i]))

    def flexible(i: int, j: int, k: int):
        return residual((rows[i][j], cols[k]), (rows[k][j], cols[i]),
                        (neg[j][k], packed[i]), (neg[j][i], packed[k]))

    def scan(name: str, sums: Callable, lo: int, hi: int) -> dict:
        # the law swaps slots lo < hi, so t <= swap(t) iff t[lo] <= t[hi]
        def law(t: tuple[int, int, int]) -> Optional[Witness]:
            re, im = sums(*t)
            if re or im:
                return Witness(tuple(basis[k] for k in t),
                               _element(a, _unpack(re, w, bias, n),
                                        _unpack(im, w, bias, n), den))
            return None

        return first_witnesses((t for t in product(range(n), repeat=3)
                                if t[lo] <= t[hi]), {name: law})

    found = (scan("left_alternative_linearized", left, 0, 1),
             scan("right_alternative_linearized", right, 1, 2))
    holds = _report(*found).ok
    return _report(*found,
                   {"flexible_linearized": (0, None)} if holds
                   else scan("flexible_linearized", flexible, 0, 2))


def check_unit(a: Algebra) -> AxiomReport:
    """u b = b, then b u = b, for each basis vector b in order.

    On packed cells (module docstring), over u.den den: u b_k is
    sum_i u^i cell(i, k), b_k u is sum_j u^j cell(k, j), and b_k is
    u.den den at slot k.  With U the largest numerator of u, their slots
    are at most 2 dim U C and u.den den, so the width has
    w >= bits(dim) + bits(U) + bits(C) + 2 and w > bits(u.den den).  No
    Element is made except for a witness.
    """
    n, u, basis = a.dim, a.unit, a.basis()
    one = u.den * a._den
    w = _width(max(n.bit_length() + _absmax(u.re, u.im).bit_length()
                   + a._cbits + 2, one.bit_length() + 1))
    cells, bias = a._packing(w)
    us = [(i, u.re[i], u.im[i])
          for i in compress(range(n), map(or_, u.re, u.im))]

    def law(case: tuple[int, bool]) -> Optional[Witness]:
        k, left = case
        re, im = _dot(us, [row[k] for row in cells] if left else cells[k])
        if re == one << (w * k) and not im:
            return None
        ore = _unpack(re, w, bias, n)
        ore[k] -= one
        return Witness((u, basis[k]) if left else (basis[k], u),
                       _element(a, ore, _unpack(im, w, bias, n), one))

    cases = ((k, left) for k in range(n) for left in (True, False))
    return _report(first_witnesses(cases, {"two_sided_unit": law}))


def _anti_automorphic(a: Algebra) -> bool:
    """Whether (x y)* = y* x* on all of A, for a star that is involutive.

    The law is conjugate-linear in x and in y, and {b_j*} is a basis when
    star is involutive, so it holds iff it holds on the pairs (b_i, b_j*):
    (b_i b_j*)* = b_j** b_i* = b_j b_i*.  With T_ij = b_i b_j*, that is
    star(T_ij) = T_ji, and swapping i and j gives the same condition, so
    only i <= j is checked.  T_ij sums c cell(i, k) over the entries
    (k, c) of star column j, over sden den; star(T_ij) is over sden^2 den,
    so it is compared with sden T_ji.  T_ij and T_ji are made per pair.
    """
    n, rows = a.dim, a._rows
    cols, sden = a._star._cols, a._star._den

    def left_star(i: int, j: int) -> tuple[list[int], list[int]]:
        # the numerators of b_i b_j* over sden den
        re = [0] * n
        im = [0] * n
        row = rows[i]
        for k, c, d in cols[j]:
            for m, p, q in row[k]:
                re[m] += c * p - d * q
                im[m] += c * q + d * p
        return re, im

    for i in range(n):
        for j in range(i, n):
            tre, tim = left_star(i, j)
            ure, uim = left_star(j, i) if j != i else (tre, tim)
            sre, sim = a._star._numerators(tre, tim, True)  # star(T_ij)
            if sden != 1:
                ure = [sden * u for u in ure]
                uim = [sden * u for u in uim]
            if sre != ure or sim != uim:
                return False
    return True


def check_involution(a: Algebra) -> AxiomReport:
    """star is involutive, unit-fixing and an anti-automorphism on products.

    The star of each basis vector is made once, and involutive reads the
    star of b*.  Conjugate-linearity holds by construction (star is a
    fixed matrix applied to conjugated coordinates), so it is not
    re-checked here.

    anti_automorphism is decided on the structure tensor and the star
    matrix (``_anti_automorphic``): once star is involutive, the law holds
    iff (b_i b_j*)* = b_j b_i* for i <= j, with no Element and no product.
    Its witness comes from the scan of (b_i b_j)* - b_j* b_i* over the
    basis pairs in product order, which runs only where star is not
    involutive (the equivalence needs it) or the tensor refutes the law.
    """
    basis = a.basis()
    stars = [b.star() for b in basis]

    def involutive(k: int) -> Optional[Witness]:
        return _witness((basis[k],), stars[k].star() - basis[k])

    def anti_automorphism(ij: tuple[int, int]) -> Optional[Witness]:
        i, j = ij
        return _witness((basis[i], basis[j]),
                        (basis[i] * basis[j]).star() - stars[j] * stars[i])

    found = first_witnesses(range(a.dim), {"involutive": involutive})
    holds = _report(found).ok and _anti_automorphic(a)
    u = a.unit
    return _report(
        found,
        {"unit_fixed": (1, _witness((u,), u.star() - u))},
        {"anti_automorphism": (0, None)} if holds
        else first_witnesses(product(range(a.dim), repeat=2),
                             {"anti_automorphism": anti_automorphism}))


def check_axioms(a: Algebra) -> AxiomReport:
    """Unit, alternativity and involution checks in one report."""
    checks = (check_unit(a).checks + check_alternative(a).checks
              + check_involution(a).checks)
    return AxiomReport(checks)
