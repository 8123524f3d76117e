"""Construction correctness against independent oracles.

The Zorn oracle reimplements the 2x2 vector-matrix product directly on
(scalar, 3-vector, 3-vector, scalar) tuples of Fraction pairs; the
doubling oracle reimplements the recursive pair product on nested tuples.
Both are written from the defining formulas, not from the library code.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

import altstar as st
from altstar.sampling import derive_rng, random_element
from altstar.scalars import I, MINUS_ONE, ONE, Scalar, TWO, ZERO

# -- complex pair arithmetic for the oracles ---------------------------------

C_ZERO = (Fraction(0), Fraction(0))


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def c_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def c_neg(x):
    return (-x[0], -x[1])


def c_conj(x):
    return (x[0], -x[1])


def pair(s: Scalar):
    return (s.re, s.im)


# -- Zorn oracle --------------------------------------------------------------
# [[a, v], [w, b]] [[a', v'], [w', b']] =
#   [[aa' + v.w', av' + b'v - w x w'], [a'w + bw' + v x v', bb' + w.v']]


def dot(x, y):
    acc = C_ZERO
    for xi, yi in zip(x, y):
        acc = c_add(acc, c_mul(xi, yi))
    return acc


def cross(x, y):
    return [c_sub(c_mul(x[1], y[2]), c_mul(x[2], y[1])),
            c_sub(c_mul(x[2], y[0]), c_mul(x[0], y[2])),
            c_sub(c_mul(x[0], y[1]), c_mul(x[1], y[0]))]


def to_zorn_tuple(x):
    c = [pair(s) for s in x.coords]
    return (c[0], c[2:5], c[5:8], c[1])


def zorn_oracle_mul(x, y):
    a, v, w, b = x
    a2, v2, w2, b2 = y
    out_a = c_add(c_mul(a, a2), dot(v, w2))
    out_v = [c_sub(c_add(c_mul(a, v2[i]), c_mul(b2, v[i])),
                   cross(w, w2)[i]) for i in range(3)]
    out_w = [c_add(c_add(c_mul(a2, w[i]), c_mul(b, w2[i])),
                   cross(v, v2)[i]) for i in range(3)]
    out_b = c_add(c_mul(b, b2), dot(w, v2))
    return (out_a, out_v, out_w, out_b)


def test_zorn_product_matches_vector_matrix_oracle(zorn):
    rng = derive_rng(201, "zorn-oracle")
    for _ in range(60):
        x = random_element(zorn, rng)
        y = random_element(zorn, rng)
        assert to_zorn_tuple(x * y) == zorn_oracle_mul(to_zorn_tuple(x),
                                                       to_zorn_tuple(y))


def test_zorn_star_swaps_vector_blocks(zorn):
    rng = derive_rng(202, "zorn-star")
    for _ in range(40):
        x = random_element(zorn, rng)
        a, v, w, b = to_zorn_tuple(x)
        sa, sv, sw, sb = to_zorn_tuple(x.star())
        assert sa == c_conj(a) and sb == c_conj(b)
        assert sv == [c_conj(t) for t in w]
        assert sw == [c_conj(t) for t in v]


def test_zorn_frozen_basis_products(zorn):
    e1, e2, u1, u2, u3, w1, w2, w3 = zorn.basis()
    assert u1 * u2 == w3           # cross product up
    assert u2 * u1 == -w3
    assert w1 * w2 == -u3          # cross product down, opposite sign
    assert u1 * w1 == e1           # dot products to the diagonal
    assert w1 * u1 == e2
    assert u1 * u1 == zorn.zero()
    assert e1 * u1 == u1 and u1 * e2 == u1
    assert u1 * e1 == zorn.zero() and e2 * u1 == zorn.zero()
    assert u1.star() == w1 and w2.star() == u2
    assert e1.star() == e1


def test_zorn_axioms_and_idempotents(zorn):
    assert st.check_axioms(zorn).ok
    _, idem = st.resolve_algebra("zorn")
    for name in ("e1", "e2"):
        info = st.classify_idempotent(zorn, zorn.element(idem[name]))
        assert info.is_idempotent and info.is_symmetric
    assert (zorn.element(idem["e1"]) + zorn.element(idem["e2"])
            == zorn.unit)


def test_zorn_is_not_associative(zorn):
    _, _, u1, u2, u3, w1, _, _ = zorn.basis()
    assert not zorn.associator(u1, u2, u3).is_zero()


# -- doubling oracle ----------------------------------------------------------
# (a,b)(c,d) = (ac + g*sigma(d)*b, da + b*sigma(c)); sigma(a,b) = (sigma(a),-b)


def to_nested(coords, levels):
    if levels == 0:
        assert len(coords) == 1
        return pair(coords[0])
    half = len(coords) // 2
    return (to_nested(coords[:half], levels - 1),
            to_nested(coords[half:], levels - 1))


def n_add(x, y, levels):
    if levels == 0:
        return c_add(x, y)
    return (n_add(x[0], y[0], levels - 1), n_add(x[1], y[1], levels - 1))


def n_neg(x, levels):
    if levels == 0:
        return c_neg(x)
    return (n_neg(x[0], levels - 1), n_neg(x[1], levels - 1))


def n_scale(x, f: Fraction, levels):
    if levels == 0:
        return (x[0] * f, x[1] * f)
    return (n_scale(x[0], f, levels - 1), n_scale(x[1], f, levels - 1))


def n_conj(x, levels):
    if levels == 0:
        return x
    return (n_conj(x[0], levels - 1), n_neg(x[1], levels - 1))


def doubling_oracle_mul(x, y, gammas):
    levels = len(gammas)
    if levels == 0:
        return c_mul(x, y)
    g, rest = gammas[-1], gammas[:-1]
    a, b = x
    c, d = y
    left = n_add(doubling_oracle_mul(a, c, rest),
                 n_scale(doubling_oracle_mul(n_conj(d, levels - 1), b, rest),
                         g.re, levels - 1),
                 levels - 1)
    right = n_add(doubling_oracle_mul(d, a, rest),
                  doubling_oracle_mul(b, n_conj(c, levels - 1), rest),
                  levels - 1)
    return (left, right)


GAMMA_SETS = [
    [MINUS_ONE],
    [ONE],
    [MINUS_ONE, MINUS_ONE],
    [MINUS_ONE, ONE],
    [Scalar(2), Scalar(1, 0, 2)],
    [MINUS_ONE, MINUS_ONE, MINUS_ONE],
    [ONE, MINUS_ONE, Scalar(3)],
]


@pytest.mark.parametrize("gammas", GAMMA_SETS,
                         ids=[",".join(map(str, g)) for g in GAMMA_SETS])
def test_doubling_product_matches_recursive_oracle(gammas):
    a = st.cayley_dickson(gammas)
    levels = len(gammas)
    rng = derive_rng(203, "cd-oracle", a.name)
    for _ in range(20):
        x = random_element(a, rng)
        y = random_element(a, rng)
        got = to_nested((x * y).coords, levels)
        want = doubling_oracle_mul(to_nested(x.coords, levels),
                                   to_nested(y.coords, levels), gammas)
        assert got == want


def test_doubling_oracle_on_dim16_basis_pairs():
    gammas = [MINUS_ONE] * 4
    a = st.cayley_dickson(gammas)
    for i in range(16):
        for j in range(16):
            x, y = a.basis_element(i), a.basis_element(j)
            got = to_nested((x * y).coords, 4)
            want = doubling_oracle_mul(to_nested(x.coords, 4),
                                       to_nested(y.coords, 4), gammas)
            assert got == want


def _merged_doubling_cells(gammas):
    """Reference: the doubling table with every cell's terms merged by
    index, zero sums dropped and the indices sorted."""
    mul, sigma = [[[(0, ONE)]]], [ONE]
    for g in gammas:
        n = len(sigma)
        new = [[None] * (2 * n) for _ in range(2 * n)]

        def put(i, j, terms):
            merged = {}
            for k, c in terms:
                merged[k] = merged.get(k, ZERO) + c
            new[i][j] = sorted((k, c) for k, c in merged.items()
                               if not c.is_zero())

        for i in range(n):
            for j in range(n):
                put(i, j, mul[i][j])
                put(i, n + j, [(n + k, c) for k, c in mul[j][i]])
                put(n + i, j, [(n + k, c * sigma[j]) for k, c in mul[i][j]])
                put(n + i, n + j, [(k, g * sigma[j] * c)
                                   for k, c in mul[j][i]])
        mul, sigma = new, sigma + [MINUS_ONE] * n
    return {(i, j, k): c for i, row in enumerate(mul)
            for j, cell in enumerate(row) for k, c in cell}


@pytest.mark.parametrize("gammas", GAMMA_SETS + [[MINUS_ONE] * 4],
                         ids=[",".join(map(str, g))
                              for g in GAMMA_SETS + [[MINUS_ONE] * 4]])
def test_doubling_cells_need_no_merging(gammas):
    a = st.cayley_dickson(gammas)
    assert {(i, j, k): c for i, j, k, c in a.structure_entries()} \
        == _merged_doubling_cells(gammas)


def test_doubling_units_square_to_gamma():
    gammas = [MINUS_ONE, ONE, Scalar(-2)]
    a = st.cayley_dickson(gammas)
    for level, g in enumerate(gammas, start=1):
        e = a.basis_element(2 ** (level - 1))
        assert e * e == a.unit.scale(g)


def test_doubling_star_matches_conjugation():
    a = st.cayley_dickson([MINUS_ONE, MINUS_ONE])
    rng = derive_rng(204, "cd-star")
    for _ in range(30):
        x = random_element(a, rng)
        want = [x.coords[0].conj()] + [-c.conj() for c in x.coords[1:]]
        assert list(x.star().coords) == want


def test_alternativity_boundary():
    for gammas in ([], [MINUS_ONE], [ONE], [MINUS_ONE] * 2,
                   [MINUS_ONE] * 3, [ONE, MINUS_ONE, TWO]):
        a = st.cayley_dickson(gammas)
        assert st.check_alternative(a).ok, a.name
    a16 = st.cayley_dickson([MINUS_ONE] * 4)
    rep = st.check_alternative(a16)
    assert not rep.check("left_alternative_linearized").passed
    assert not rep.check("right_alternative_linearized").passed
    assert rep.check("flexible_linearized").passed
    assert st.check_involution(a16).ok


# the constructors decide no law; these tests pin the laws of what they build

GAMMAS = hst.lists(hst.builds(Scalar, hst.integers(-5, 5).filter(bool),
                              hst.just(0), hst.integers(1, 4)),
                   max_size=4)


def _assert_unit_and_involution(a):
    assert st.check_unit(a).ok, a.name
    assert st.check_involution(a).ok, a.name


@pytest.mark.parametrize("spec", ["zorn", "matrix:1", "matrix:2", "matrix:3",
                                  "matrix:4", "matrix:5"])
def test_builtin_satisfies_the_unit_and_involution_laws(spec):
    _assert_unit_and_involution(st.resolve_algebra(spec)[0])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gammas=GAMMAS, other=hst.sampled_from(["matrix:2", "zorn", "cd:-1"]))
def test_doubling_and_its_direct_sum_satisfy_the_unit_and_involution_laws(
        gammas, other):
    a = st.cayley_dickson(gammas)
    _assert_unit_and_involution(a)
    _assert_unit_and_involution(
        st.direct_sum(st.resolve_algebra(other)[0], a))


def _count_products_and_stars(monkeypatch):
    counts = {"multiply": 0, "star": 0}
    for name in counts:
        def counted(self, *args, _name=name,
                    _method=getattr(st.Algebra, name)):
            counts[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(st.Algebra, name, counted)
    return counts


def test_constructors_make_products_only_to_transport_a_basis(
        monkeypatch, zorn_moved_basis):
    counts = _count_products_and_stars(monkeypatch)
    zorn = st.zorn_algebra()
    for k in (1, 2, 3):
        st.matrix_algebra(k)
    for levels in range(4):
        st.cayley_dickson([MINUS_ONE] * levels)
    st.direct_sum(st.matrix_algebra(2), zorn)
    assert counts == {"multiply": 0, "star": 0}
    # one product per pair of new basis vectors, one star per vector
    st.change_of_basis(zorn, zorn_moved_basis)
    assert counts == {"multiply": 64, "star": 8}


def test_doubling_rejects_bad_gammas():
    with pytest.raises(st.ConstructionError):
        st.cayley_dickson([ZERO])
    with pytest.raises(st.ConstructionError):
        st.cayley_dickson([I])
    with pytest.raises(st.ConstructionError):
        st.cayley_dickson([MINUS_ONE] * 5)


def test_matrix_algebra_rejects_bad_size():
    with pytest.raises(st.ConstructionError):
        st.matrix_algebra(0)


# -- direct sum ---------------------------------------------------------------


def test_direct_sum_block_structure(dsum_m2_m2):
    ds = dsum_m2_m2
    assert ds.dim == 8
    assert ds.basis_labels[0] == "L.E11" and ds.basis_labels[4] == "R.E11"
    for i in range(4):
        for j in range(4, 8):
            assert (ds.basis_element(i) * ds.basis_element(j)).is_zero()
            assert (ds.basis_element(j) * ds.basis_element(i)).is_zero()
    # left block multiplies like M2: L.E12 * L.E21 = L.E11
    assert ds.basis_element(1) * ds.basis_element(2) == ds.basis_element(0)
    assert ds.basis_element(5) * ds.basis_element(6) == ds.basis_element(4)
    assert st.check_axioms(ds).ok
    assert ds.basis_element(1).star() == ds.basis_element(2)
    assert ds.basis_element(5).star() == ds.basis_element(6)


# -- change of basis ----------------------------------------------------------


def _shear_matrix(dim, i, j):
    m = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
    m[i][j] = ONE
    return m


def test_change_of_basis_transports_products(m2):
    m = _shear_matrix(4, 0, 1)  # new basis: b0, b0 + b1, b2, b3
    b = st.change_of_basis(m2, m, name="m2-sheared")
    assert st.check_axioms(b).ok

    def to_old(x):
        from altstar import linalg
        return m2.element(linalg.mat_vec(m, x.coords))

    rng = derive_rng(205, "cob")
    for _ in range(30):
        x = random_element(b, rng)
        y = random_element(b, rng)
        assert to_old(x * y) == to_old(x) * to_old(y)
        assert to_old(x.star()) == to_old(x).star()
    assert to_old(b.unit) == m2.unit


def test_change_of_basis_transports_a_complex_star(zorn, zorn_transported,
                                                  zorn_moved_basis):
    from altstar import linalg
    b, m = zorn_transported, zorn_moved_basis
    assert st.check_axioms(b).ok
    # the new star matrix M^-1 S conj(M) has imaginary entries here
    assert any(c.b != 0 for row in b.star_matrix() for c in row)
    rng = derive_rng(206, "cob-star")
    for _ in range(10):
        x = random_element(b, rng)
        old = zorn.element(linalg.mat_vec(m, x.coords))
        assert zorn.element(linalg.mat_vec(m, x.star().coords)) == old.star()


def test_change_of_basis_applies_its_inverse_through_the_integer_kernel(
        zorn, zorn_moved_basis, monkeypatch):
    from altstar import linalg
    m = zorn_moved_basis
    # the reference maps to new coordinates with the Scalar inverse
    minv = linalg.inverse(m)
    new_basis = [zorn.element(col) for col in zip(*m)]

    def to_new(x):
        return tuple(linalg.mat_vec(minv, x.coords))

    want_structure = {(i, j, k): c
                      for i, x in enumerate(new_basis)
                      for j, y in enumerate(new_basis)
                      for k, c in enumerate(to_new(x * y)) if not c.is_zero()}
    want_unit = to_new(zorn.unit)
    want_star = linalg.from_columns([to_new(x.star()) for x in new_basis])

    def no_mat_vec(*args):
        raise AssertionError("change_of_basis called linalg.mat_vec")

    monkeypatch.setattr(linalg, "mat_vec", no_mat_vec)
    b = st.change_of_basis(zorn, m)
    assert {(i, j, k): c for i, j, k, c in b.structure_entries()} \
        == want_structure
    assert b.unit.coords == want_unit
    assert [list(row) for row in b.star_matrix()] == want_star


def test_change_of_basis_rejects_singular(m2):
    singular = [[ZERO] * 4 for _ in range(4)]
    # [I | 0] has full row rank, but only a square matrix is a basis change
    wide = [[ONE if r == c else ZERO for c in range(5)] for r in range(4)]
    for m in (singular, wide):
        with pytest.raises(st.ConstructionError, match="singular"):
            st.change_of_basis(m2, m)
