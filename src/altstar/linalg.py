"""Exact linear algebra over the Gaussian rationals.

Plain Gaussian elimination on lists of Scalar rows.  Everything here is
deterministic: pivots are chosen as the first nonzero entry in column order,
so repeated runs produce identical echelon forms, nullspace bases and ranks.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import ONE, ZERO, Scalar

Matrix = list[list[Scalar]]


class SingularMatrixError(ValueError):
    pass


def rref(m: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not a[i][c].is_zero()), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(m)[1])


def nullspace(m: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Basis of the right nullspace; free variables set to 1 in column order."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return basis


def inverse(m: Sequence[Sequence[Scalar]]) -> Matrix:
    n = len(m)
    if any(len(row) != n for row in m):
        raise SingularMatrixError("matrix is not square")
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in red]


def is_invertible(m: Sequence[Sequence[Scalar]]) -> bool:
    return len(m) == 0 or (len(m) == len(m[0]) and rank(m) == len(m))


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> list[Scalar]:
    out = []
    for row in m:
        acc = ZERO
        for x, y in zip(row, v):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        out.append(acc)
    return out


def from_columns(cols: Sequence[Sequence[Scalar]]) -> Matrix:
    """The matrix whose k-th column is cols[k]."""
    return [list(row) for row in zip(*cols)]
