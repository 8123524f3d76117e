"""Exact linear algebra over the Gaussian rationals.

One fraction-free elimination kernel (Bareiss, Math. Comp. 22, 1968, with
a row-content gcd after each update) on Gaussian-integer rows (re, im),
entry t being re[t] + i im[t].  Scaling a row moves neither its row space
nor a nullspace, so a row of Gaussian rationals enters as its numerators.
``echelon`` reduces each row, in order, against the rows kept so far and
stops once the rank is the number of columns; a kept row has a positive
real pivot, content 1 and zeros in the pivot columns kept before it.
Back-reduction runs only for an RREF, a nonempty nullspace or an inverse.
The RREF of a row space is unique, so the pivots, the RREF and the
nullspace basis (free variables set to 1 in column order) are too.
``rref``, ``nullspace`` and ``inverse`` are the kernel's Scalar edges.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, lcm
from operator import itemgetter, or_
from typing import Iterable, Sequence

from .scalars import ZERO, Scalar, numerators, scalars_over

Matrix = list[list[Scalar]]
Row = tuple[list[int], list[int]]  # (re, im); any int sequences do
Vector = tuple[list[int], list[int], int]  # (re + i im) / den


class SingularMatrixError(ValueError):
    pass


def _primitive(re: Sequence[int], im: Sequence[int]) -> Row:
    g = gcd(*re, *im)
    if g > 1:
        return [a // g for a in re], [b // g for b in im]
    return re, im


def _eliminate(row: Row, c: int, kept: list) -> Row:
    """p row - row[c] k for the kept row [c, k] with real pivot p = k[c],
    made primitive: column c cleared."""
    (re, im), (_, kre, kim) = row, kept
    f, g, p = re[c], im[c], kre[c]
    return _primitive(
        [p * a - f * x + g * y for a, x, y in zip(re, kre, kim)],
        [p * b - f * y - g * x for b, x, y in zip(im, kre, kim)])


def echelon(rows: Iterable[Row], ncols: int) -> list[list]:
    """The rows kept by forward elimination, as [pivot column, re, im] in
    the order they were kept; their number is the rank."""
    kept: list[list] = []
    for row in rows:
        for k in kept:
            c = k[0]
            if row[0][c] or row[1][c]:
                row = _eliminate(row, c, k)
        re, im = row
        c = next(compress(range(ncols), map(or_, re, im)), None)
        if c is None:
            continue
        a, b = re[c], im[c]
        if b:
            # times the conjugate of the pivot, which becomes a^2 + b^2
            re, im = ([x * a + y * b for x, y in zip(re, im)],
                      [y * a - x * b for x, y in zip(re, im)])
        elif a < 0:
            re, im = [-x for x in re], [-y for y in im]
        kept.append([c, *_primitive(re, im)])
        if len(kept) == ncols:
            break
    return kept


def _reduced(kept: list[list]) -> list[list]:
    """Each pivot column cleared from the other kept rows, last kept
    first: the RREF rows times their pivots, sorted by pivot column."""
    for m in range(len(kept) - 1, 0, -1):
        c = kept[m][0]
        for row in kept[:m]:
            if row[1][c] or row[2][c]:
                row[1:] = _eliminate(row[1:], c, kept[m])
    return sorted(kept, key=itemgetter(0))


def int_nullspace(rows: Iterable[Row], ncols: int) -> list[Vector]:
    """The nullspace basis, not reduced: one vector per free column f, in
    order, with 1 at f and 0 at the other free columns."""
    kept = echelon(rows, ncols)
    if len(kept) == ncols:
        return []
    kept = _reduced(kept)
    den = lcm(*(re[c] for c, re, _ in kept))
    pivots = {c for c, _, _ in kept}
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vre, vim = [0] * ncols, [0] * ncols
            vre[f] = den
            for c, re, im in kept:
                s = den // re[c]
                vre[c], vim[c] = -s * re[f], -s * im[f]
            basis.append((vre, vim, den))
    return basis


def int_inverse(rows: Sequence[Vector]) -> list[Vector]:
    """The rows of M^-1 for the square M whose rows are *rows*."""
    n = len(rows)
    if any(len(re) != n or len(im) != n for re, im, _ in rows):
        raise SingularMatrixError("matrix is not square")
    # [M | I], row i scaled by its den d
    kept = echelon(((list(re) + [d if t == i else 0 for t in range(n)],
                     list(im) + [0] * n)
                    for i, (re, im, d) in enumerate(rows)), 2 * n)
    if any(c >= n for c, _, _ in kept):
        raise SingularMatrixError("matrix is singular")
    return [(re[n:], im[n:], re[c]) for c, re, im in _reduced(kept)]


def rref(m: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    cols = len(m[0]) if m else 0
    kept = _reduced(echelon((numerators(r)[:2] for r in m), cols))
    out = [scalars_over(re, im, re[c]) for c, re, im in kept]
    out += [[ZERO] * cols for _ in range(len(m) - len(kept))]
    return out, [c for c, _, _ in kept]


def nullspace(m: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Basis of the right nullspace; free variables set to 1 in column order."""
    return [scalars_over(*v) for v in int_nullspace(
        (numerators(r)[:2] for r in m), len(m[0]) if m else 0)]


def inverse(m: Sequence[Sequence[Scalar]]) -> Matrix:
    return [scalars_over(*v) for v in int_inverse(list(map(numerators, m)))]


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
