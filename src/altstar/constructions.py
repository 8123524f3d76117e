"""Stock algebras: matrix algebras, the Zorn vector-matrix algebra,
Cayley-Dickson doublings, and direct sums.

Each constructor checks its parameters, not the laws of what it builds:
whether an algebra has a two-sided unit, an involution and alternativity
is decided by check_axioms.  The builtins satisfy the unit and involution
laws for every parameter they accept, direct_sum inherits them from its
parts, and change_of_basis from its input.
"""

from __future__ import annotations

from typing import Sequence

from . import linalg
from .algebra import Algebra, AlgebraError, Element, IntMatrix
from .scalars import MINUS_ONE, ONE, ZERO, Scalar, numerators


class ConstructionError(AlgebraError):
    pass


def matrix_algebra(k: int) -> Algebra:
    """k x k matrices, basis E_pq row-major, star = conjugate transpose."""
    if k < 1:
        raise ConstructionError("matrix_algebra needs k >= 1")
    dim = k * k

    def idx(p: int, q: int) -> int:
        return p * k + q

    structure = {}
    for p in range(k):
        for q in range(k):
            for r in range(k):
                # E_pq E_qr = E_pr
                structure[(idx(p, q), idx(q, r), idx(p, r))] = ONE
    unit = [ZERO] * dim
    for p in range(k):
        unit[idx(p, p)] = ONE
    star = [[ZERO] * dim for _ in range(dim)]
    for p in range(k):
        for q in range(k):
            star[idx(q, p)][idx(p, q)] = ONE
    labels = [f"E{p + 1}{q + 1}" for p in range(k) for q in range(k)]
    return Algebra(f"matrix:{k}", dim, labels, structure, unit, star)


# Zorn vector matrices [[a, v], [w, b]] with a, b scalars and v, w 3-vectors:
#   [[a,v],[w,b]] [[a',v'],[w',b']] =
#     [[aa' + v.w',  av' + b'v - w x w'], [a'w + bw' + v x v',  bb' + w.v']]
# Basis order: e1, e2, u1..u3 (upper 3-vector), w1..w3 (lower 3-vector).
_EPS = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
        (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}


def zorn_algebra() -> Algebra:
    dim = 8
    E1, E2 = 0, 1

    def u(i: int) -> int:
        return 2 + i

    def w(i: int) -> int:
        return 5 + i

    s = {}
    s[(E1, E1, E1)] = ONE
    s[(E2, E2, E2)] = ONE
    for i in range(3):
        s[(E1, u(i), u(i))] = ONE      # e1 is a left unit on the upper block
        s[(u(i), E2, u(i))] = ONE
        s[(E2, w(i), w(i))] = ONE
        s[(w(i), E1, w(i))] = ONE
        s[(u(i), w(i), E1)] = ONE      # dot products to the diagonal
        s[(w(i), u(i), E2)] = ONE
    for (i, j, k), sign in _EPS.items():
        s[(u(i), u(j), w(k))] = ONE if sign > 0 else MINUS_ONE
        s[(w(i), w(j), u(k))] = MINUS_ONE if sign > 0 else ONE
    unit = [ONE, ONE] + [ZERO] * 6
    star = [[ZERO] * dim for _ in range(dim)]
    star[E1][E1] = ONE
    star[E2][E2] = ONE
    for i in range(3):
        star[w(i)][u(i)] = ONE         # star swaps the two 3-vectors
        star[u(i)][w(i)] = ONE
    labels = ["e1", "e2", "u1", "u2", "u3", "w1", "w2", "w3"]
    return Algebra("zorn", dim, labels, s, unit, star)


def _doubling_coefficient(gammas: Sequence[Scalar], i: int, j: int) -> Scalar:
    """c in b_i b_j = c b_{i XOR j}, walking the doubling levels from the top.

    Basis vector n + k of a level with n old vectors is (0, b_k), so each
    level either keeps both factors in the old half or moves one cell of
    the old table, as in the product formula of cayley_dickson.
    """
    c = ONE
    for level in reversed(range(len(gammas))):
        n = 1 << level
        if i >= n and j >= n:
            # (0,b)(0,d) = (g*sigma(d)*b, 0)
            i, j = j - n, i - n
            c = c * gammas[level] if i == 0 else -(c * gammas[level])
        elif j >= n:
            # (a,0)(0,d) = (0, da)
            i, j = j - n, i
        elif i >= n:
            # (0,b)(c,0) = (0, b*sigma(c))
            i = i - n
            c = c if j == 0 else -c
    return c


def cayley_dickson(gammas: Sequence[Scalar]) -> Algebra:
    """Iterated doubling over the Gaussian rationals.

    Product at each level: (a,b)(c,d) = (ac + g*sigma(d)*b, da + b*sigma(c)),
    conjugation sigma(a,b) = (sigma(a), -b); the doubling unit squares to g.
    Levels 0..4 (dims 1..16).  Each g must be a nonzero real rational,
    otherwise the exported conjugate-linear star fails to be multiplicative
    against the structure constants.
    """
    levels = len(gammas)
    if levels > 4:
        raise ConstructionError("cayley_dickson supports at most 4 levels")
    for g in gammas:
        if g.is_zero():
            raise ConstructionError("cayley_dickson gamma must be nonzero")
        if g.b != 0:
            raise ConstructionError("cayley_dickson gamma must be real")

    dim = 1 << levels
    structure = {(i, j, i ^ j): _doubling_coefficient(gammas, i, j)
                 for i in range(dim) for j in range(dim)}
    unit = [ONE] + [ZERO] * (dim - 1)
    # sigma is +1 on b_0 and -1 on every other basis vector
    star = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim):
        star[k][k] = ONE if k == 0 else MINUS_ONE
    labels = ["1"] + [f"g{k}" for k in range(1, dim)]
    name = "cd:" + ",".join(str(g) for g in gammas) if gammas else "cd:"
    return Algebra(name, dim, labels, structure, unit, star)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    """Componentwise product and star on the concatenated coordinates."""
    dim = a.dim + b.dim
    structure = {}
    for i, j, k, c in a.structure_entries():
        structure[(i, j, k)] = c
    for i, j, k, c in b.structure_entries():
        structure[(a.dim + i, a.dim + j, a.dim + k)] = c
    unit = list(a.unit.coords) + list(b.unit.coords)
    star = [[ZERO] * dim for _ in range(dim)]
    for i, row in enumerate(a.star_matrix()):
        for j, c in enumerate(row):
            star[i][j] = c
    for i, row in enumerate(b.star_matrix()):
        for j, c in enumerate(row):
            star[a.dim + i][a.dim + j] = c
    labels = ([f"L.{t}" for t in a.basis_labels]
              + [f"R.{t}" for t in b.basis_labels])
    return Algebra(f"dsum:{a.name},{b.name}", dim, labels, structure, unit,
                   star)


def change_of_basis(a: Algebra, m: Sequence[Sequence[Scalar]],
                    name: str | None = None) -> Algebra:
    """Transport a to the basis whose old-coordinate vectors are m's columns.

    The integer elimination kernel inverts m over a common denominator
    straight into an IntMatrix; a singular m raises ConstructionError.  So
    the products, the unit and the stars of the new basis reach their new
    coordinates through integer kernels.
    """
    cols = [numerators(col) for col in zip(*m)]
    try:
        if any(len(row) != len(cols) for row in m):
            raise linalg.SingularMatrixError("matrix is not square")
        # the inverse of m's transpose has the columns of m^-1 as its rows
        minv = IntMatrix.of_columns(len(m), linalg.int_inverse(cols))
    except linalg.SingularMatrixError:
        raise ConstructionError("change of basis matrix is singular") \
            from None
    dim = a.dim

    def to_new(x: Element) -> tuple[Scalar, ...]:
        # only the coordinates are read, so a (same dim) carries them
        return minv.apply(x, a).coords

    new_basis_old = [a.element(col) for col in zip(*m)]
    structure = {}
    for i in range(dim):
        for j in range(dim):
            prod = to_new(new_basis_old[i] * new_basis_old[j])
            for k, c in enumerate(prod):
                if not c.is_zero():
                    structure[(i, j, k)] = c
    unit = to_new(a.unit)
    # column c of the new star matrix is the star of new basis vector c
    star = linalg.from_columns([to_new(b.star()) for b in new_basis_old])
    return Algebra(name or f"{a.name}~", dim, a.basis_labels, structure,
                   unit, star)
