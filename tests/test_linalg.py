"""Exact linear algebra cross-checked against sympy."""

import random

import pytest
import sympy

from altstar import linalg
from altstar.scalars import ONE, Scalar, ZERO


def to_sympy(m):
    return sympy.Matrix([
        [sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)
         for c in row]
        for row in m])


def random_matrix(rng, rows, cols, sparse=0.3):
    return [[ZERO if rng.random() < sparse
             else Scalar(rng.randint(-4, 4), rng.randint(-2, 2),
                         rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


CASES = [(seed, rows, cols)
         for seed in range(6)
         for rows, cols in ((3, 3), (4, 4), (3, 5), (5, 3), (2, 6))]


@pytest.mark.parametrize("seed,rows,cols", CASES)
def test_rank_matches_sympy(seed, rows, cols):
    m = random_matrix(random.Random(seed), rows, cols)
    assert len(linalg.rref(m)[1]) == to_sympy(m).rank()


@pytest.mark.parametrize("seed,rows,cols", CASES)
def test_rref_pivots_match_sympy(seed, rows, cols):
    m = random_matrix(random.Random(seed), rows, cols)
    _, pivots = linalg.rref(m)
    _, spivots = to_sympy(m).rref()
    assert tuple(pivots) == tuple(spivots)


@pytest.mark.parametrize("seed,rows,cols", CASES)
def test_rref_idempotent(seed, rows, cols):
    m = random_matrix(random.Random(seed), rows, cols)
    r1, p1 = linalg.rref(m)
    r2, p2 = linalg.rref(r1)
    assert r1 == r2 and p1 == p2


@pytest.mark.parametrize("seed,rows,cols", CASES)
def test_nullspace_dimension_and_membership(seed, rows, cols):
    m = random_matrix(random.Random(seed), rows, cols)
    null = linalg.nullspace(m)
    assert len(null) == cols - len(linalg.rref(m)[1])
    for v in null:
        assert any(not c.is_zero() for c in v)
        assert all(c.is_zero() for c in linalg.mat_vec(m, v))


@pytest.mark.parametrize("seed", range(8))
def test_inverse_against_sympy(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4))
    m = random_matrix(rng, n, n, sparse=0.1)
    sm = to_sympy(m)
    if sm.det() == 0:
        assert linalg.nullspace(m)
        with pytest.raises(linalg.SingularMatrixError):
            linalg.inverse(m)
        return
    inv = linalg.inverse(m)
    assert to_sympy(inv) == sm.inv()
    eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    prod = [linalg.mat_vec(m, [inv[r][c] for r in range(n)])
            for c in range(n)]
    assert [[prod[c][r] for c in range(n)] for r in range(n)] == eye


def test_singular_matrix_detected():
    m = [[ONE, ONE], [ONE, ONE]]
    assert linalg.nullspace(m) == [[-ONE, ONE]]
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse(m)


def test_from_columns():
    cols = [[ONE, ZERO, Scalar(2)], [Scalar(0, 1), ONE, ZERO]]
    assert linalg.from_columns(cols) == [[ONE, Scalar(0, 1)], [ZERO, ONE],
                                         [Scalar(2), ZERO]]
    assert linalg.from_columns([]) == []


def test_mat_vec():
    m = [[ONE, Scalar(2)], [ZERO, Scalar(0, 1)]]
    v = [Scalar(3), Scalar(1, 0, 2)]
    assert linalg.mat_vec(m, v) == [Scalar(4), Scalar(0, 1, 2)]
