"""Exact linear algebra cross-checked against sympy and against the
Scalar Gauss-Jordan elimination that the integer kernel replaced."""

import random
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as hst
from sympy.polys.matrices import DomainMatrix

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
    # the pivots of m itself are pinned below, so the rank is read off the
    # transpose: row rank = column rank, on the other shape
    m = random_matrix(random.Random(seed), rows, cols)
    assert len(linalg.rref([list(c) for c in zip(*m)])[1]) \
        == to_sympy(m).rank()


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


# -- the reference: Gauss-Jordan elimination on Scalar rows ---------------


def _reciprocal(s):
    n = s.a * s.a + s.b * s.b
    return Scalar(s.a * s.d, -s.b * s.d, n)


def ref_rref(m):
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not a[i][c].is_zero()),
                     None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = _reciprocal(a[r][c])
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


def ref_nullspace(m):
    cols = len(m[0]) if m else 0
    a, pivots = ref_rref(m)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(v)
    return basis


def ref_inverse(m):
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = ref_rref(aug)
    if pivots[:n] != list(range(n)):
        raise linalg.SingularMatrixError("matrix is singular")
    return [row[n:] for row in red]


def sympy_rref(m):
    """sympy's exact RREF over the Gaussian rationals, as Scalars."""
    red, pivots = DomainMatrix.from_Matrix(to_sympy(m)).to_field().rref()
    return [[_from_sympy(x) for x in row]
            for row in red.to_Matrix().tolist()], list(pivots)


def _from_sympy(x):
    re, im = (sympy.Rational(t) for t in x.as_real_imag())
    d = sympy.ilcm(re.q, im.q)
    return Scalar(int(re * d), int(im * d), int(d))


# -- subjects --------------------------------------------------------------

BIG = 3 ** 40


# Gaussian rationals with mixed denominators, a third of them zero, and
# now and then a numerator within 100 of 3^40
entries = hst.one_of(
    hst.just(ZERO),
    hst.builds(Scalar, hst.integers(-5, 5), hst.integers(-3, 3),
               hst.integers(1, 6)),
    hst.builds(Scalar, hst.integers(BIG - 100, BIG + 100),
               hst.integers(-100, 100), hst.integers(1, 3)))


@hst.composite
def matrices(draw, max_rows=6, max_cols=6):
    rows = draw(hst.integers(1, max_rows))
    cols = draw(hst.integers(1, max_cols))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    # whole zero rows and columns
    for i in draw(hst.sets(hst.integers(0, rows - 1), max_size=2)):
        m[i] = [ZERO] * cols
    for j in draw(hst.sets(hst.integers(0, cols - 1), max_size=2)):
        for row in m:
            row[j] = ZERO
    return m


@hst.composite
def tall_rank_deficient(draw):
    # (rows x r)(r x cols) with r < cols < rows: every row lies in an
    # r-dimensional space, so the kernel never stops early
    cols = draw(hst.integers(2, 5))
    r = draw(hst.integers(1, cols - 1))
    rows = draw(hst.integers(cols + 1, 8))
    left = [[draw(entries) for _ in range(r)] for _ in range(rows)]
    right = [[draw(entries) for _ in range(cols)] for _ in range(r)]
    return [[_dot(row, col) for col in zip(*right)] for row in left]


def _dot(xs, ys):
    acc = ZERO
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


every_matrix = hst.one_of(matrices(), tall_rank_deficient())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(every_matrix)
def test_rref_and_pivots_match_the_reference_and_sympy(m):
    red, pivots = linalg.rref(m)
    assert (red, pivots) == ref_rref(m)
    assert (red, pivots) == sympy_rref(m)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(every_matrix)
def test_nullspace_matches_the_reference(m):
    null = linalg.nullspace(m)
    assert null == ref_nullspace(m)
    assert len(null) == len(m[0]) - to_sympy(m).rank()
    for v in null:
        assert all(c.is_zero() for c in linalg.mat_vec(m, v))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(hst.integers(1, 5).flatmap(
    lambda n: hst.lists(hst.lists(entries, min_size=n, max_size=n),
                        min_size=n, max_size=n)))
def test_inverse_matches_the_reference_and_sympy(m):
    dm = DomainMatrix.from_Matrix(to_sympy(m)).to_field()
    if not dm.det():
        for inverse in (linalg.inverse, ref_inverse):
            with pytest.raises(linalg.SingularMatrixError):
                inverse(m)
        return
    inv = linalg.inverse(m)
    assert inv == ref_inverse(m)
    assert [[_from_sympy(x) for x in row]
            for row in dm.inv().to_Matrix().tolist()] == inv


def test_tall_rank_deficient_example():
    # rows 3 and 4 are sums of rows 1 and 2, with mixed denominators
    r1 = [Scalar(1, 0, 2), Scalar(0, 1, 3), ZERO]
    r2 = [ZERO, Scalar(2, -1, 5), ONE]
    m = [r1, r2, [x + y for x, y in zip(r1, r2)],
         [x - y for x, y in zip(r1, r2)], [ZERO] * 3]
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1] and (red, pivots) == ref_rref(m)
    assert linalg.nullspace(m) == ref_nullspace(m) and len(red) == 5


def test_full_column_rank_stops_before_the_last_row():
    # the first two rows already have rank 2 = the number of columns, so
    # the third is never read and the nullspace is empty
    def rows():
        yield [1, 0], [0, 0]
        yield [3, 2], [0, 1]
        raise AssertionError("read a row past full column rank")

    assert [c for c, _, _ in linalg.echelon(rows(), 2)] == [0, 1]
    assert linalg.int_nullspace(rows(), 2) == []
    m = [[ONE, ZERO], [Scalar(3), Scalar(2, 1)], [Scalar(7, 0, 3), ONE]]
    assert linalg.nullspace(m) == [] and linalg.rref(m) == ref_rref(m)


def test_kept_rows_have_a_positive_real_pivot_and_content_one():
    rows = [([0, 4, 6], [0, 2, 0]), ([-6, 3, 9], [6, 0, 0])]
    kept = linalg.echelon(rows, 3)
    assert [c for c, _, _ in kept] == [1, 0]
    for c, re, im in kept:
        assert re[c] > 0 and im[c] == 0
        assert gcd(*re, *im) == 1


# -- the pivot division of the inverse edge, on 1 x 1 matrices ------------

small = hst.integers(min_value=-30, max_value=30)
scalars = hst.builds(Scalar, small, small, hst.integers(1, 12))
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


def _pair(s):
    return (s.re, s.im)


@given(scalars, nonzero_scalars)
def test_pivot_division_matches_oracle(x, y):
    # the inverse of [[y]] is one pivot division: 1 / y, so x [[y]]^-1 is
    # x / y, against a Fraction-pair oracle
    (recip,), = linalg.inverse([[y]])
    (a, b), (p, q) = _pair(y), _pair(x)
    n = a * a + b * b
    assert _pair(recip) == (a / n, -b / n)
    assert _pair(x * recip) == ((p * a + q * b) / n, (q * a - p * b) / n)


@given(nonzero_scalars)
def test_inverse_of_a_scalar_is_its_reciprocal(x):
    (recip,), = linalg.inverse([[x]])
    assert x * recip == ONE
    assert linalg.inverse([[recip]]) == [[x]]


def test_inverse_of_zero_is_singular():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse([[ZERO]])
    with pytest.raises(linalg.SingularMatrixError):
        linalg.inverse([[ONE, ZERO], [Scalar(2), ZERO]])
