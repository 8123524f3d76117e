"""Peirce decomposition, component relations, and the annihilator condition."""

import re

import pytest

import altstar as st
from altstar import algebra
from altstar.algebra import Algebra
from altstar.linalg import rref
from altstar.sampling import derive_rng, random_element
from altstar.scalars import I, ONE, Scalar, ZERO


def test_classify_idempotent(m2):
    e11 = m2.basis_element(0)
    info = st.classify_idempotent(m2, e11)
    assert info.is_idempotent and info.is_symmetric and not info.is_trivial
    info = st.classify_idempotent(m2, m2.unit)
    assert info.is_idempotent and info.is_symmetric and info.is_trivial
    info = st.classify_idempotent(m2, m2.basis_element(1))
    assert not info.is_idempotent


def test_find_symmetric_idempotents(m2):
    found = st.find_symmetric_idempotents(m2)
    coords = {x.coords for x in found}
    assert m2.basis_element(0).coords in coords
    assert m2.basis_element(3).coords in coords
    for x in found:
        info = st.classify_idempotent(m2, x)
        assert info.is_idempotent and info.is_symmetric
        assert not info.is_trivial


def test_system_rejects_bad_idempotents(m2):
    with pytest.raises(st.PeirceError):
        st.PeirceSystem(m2, m2.unit)  # trivial
    with pytest.raises(st.PeirceError):
        st.PeirceSystem(m2, m2.basis_element(1))  # not idempotent
    # E11 + E12 is idempotent but not star-symmetric
    e = m2.basis_element(0) + m2.basis_element(1)
    assert (e * e - e).is_zero()
    with pytest.raises(st.PeirceError):
        st.PeirceSystem(m2, e)


def test_component_dimensions(m2_peirce, m3_peirce, zorn_peirce):
    assert m2_peirce.component_dims() == {(1, 1): 1, (1, 2): 1,
                                          (2, 1): 1, (2, 2): 1}
    assert m3_peirce.component_dims() == {(1, 1): 1, (1, 2): 2,
                                          (2, 1): 2, (2, 2): 4}
    assert zorn_peirce.component_dims() == {(1, 1): 1, (1, 2): 3,
                                            (2, 1): 3, (2, 2): 1}


def test_frozen_m2_decomposition(m2, m2_peirce):
    x = m2.element([ONE, ONE, ONE, ONE])
    split = st.peirce_decompose(m2_peirce, x)
    assert type(split) is dict and tuple(split) == st.IJ_PAIRS
    assert split[(1, 1)] == m2.basis_element(0)
    assert split[(1, 2)] == m2.basis_element(1)
    assert split[(2, 1)] == m2.basis_element(2)
    assert split[(2, 2)] == m2.basis_element(3)
    assert sum(split.values(), m2.zero()) == x


def test_zorn_components_are_the_vector_blocks(zorn, zorn_peirce):
    split = st.peirce_decompose(zorn_peirce, zorn.element(
        [Scalar(2), Scalar(3), ONE, ONE, ONE, I, I, I]))
    assert split[(1, 1)] == zorn.basis_element(0).scale(Scalar(2))
    assert split[(2, 2)] == zorn.basis_element(1).scale(Scalar(3))
    upper = zorn.element([ZERO, ZERO, ONE, ONE, ONE, ZERO, ZERO, ZERO])
    lower = zorn.element([ZERO, ZERO, ZERO, ZERO, ZERO, I, I, I])
    assert split[(1, 2)] == upper
    assert split[(2, 1)] == lower


def test_decomposition_of_random_elements(m3, m3_peirce):
    rng = derive_rng(301, "peirce-random")
    for _ in range(30):
        x = random_element(m3, rng)
        split = st.peirce_decompose(m3_peirce, x)
        assert sum(split.values(), m3.zero()) == x
        for ij in st.IJ_PAIRS:
            assert st.component_of(m3_peirce, split[ij], ij) \
                or split[ij].is_zero()


def test_projection_parenthesizations_agree(zorn, zorn_peirce):
    rng = derive_rng(302, "paren")
    p = zorn_peirce
    for _ in range(30):
        x = random_element(zorn, rng)
        for i in (1, 2):
            for j in (1, 2):
                ei, ej = p.idempotent(i), p.idempotent(j)
                assert (ei * x) * ej == ei * (x * ej)


@pytest.mark.parametrize("spec", ["zorn", "matrix:3", "cd:-1,-1,-1"])
def test_decomposition_oracle(spec):
    # both parenthesizations and the recombination, recomputed per element
    a, idem = st.resolve_algebra(spec)
    e1 = a.element(idem["e1"]) if idem else st.find_symmetric_idempotents(a)[0]
    p = st.PeirceSystem(a, e1)
    rng = derive_rng(303, "oracle", spec)
    for _ in range(15):
        x = random_element(a, rng)
        split = st.peirce_decompose(p, x)
        total = a.zero()
        for i, j in st.IJ_PAIRS:
            ei, ej = p.idempotent(i), p.idempotent(j)
            assert split[(i, j)] == (ei * x) * ej
            assert split[(i, j)] == ei * (x * ej)
            total = total + split[(i, j)]
        assert total == x


@pytest.mark.parametrize("spec", ["zorn", "matrix:3", "cd:-1,-1,-1",
                                  "zorn~"])
def test_projection_is_one_matrix_product(spec, zorn_transported,
                                          monkeypatch):
    if spec == "zorn~":
        a = zorn_transported
        e1 = st.find_symmetric_idempotents(a)[0]
    else:
        a, idem = st.resolve_algebra(spec)
        e1 = a.element(idem["e1"]) if idem \
            else st.find_symmetric_idempotents(a)[0]
    p = st.PeirceSystem(a, e1)
    rng = derive_rng(304, "project", spec)
    cases = []
    for _ in range(6):
        x = random_element(a, rng)
        parts = {(i, j): p.idempotent(i) * (x * p.idempotent(j))
                 for i, j in st.IJ_PAIRS}
        cases.append((x, parts))

    def no_product(self, x, y):
        raise AssertionError("an algebra product was made")

    monkeypatch.setattr(Algebra, "multiply", no_product)
    for x, parts in cases:
        split = st.peirce_decompose(p, x)
        for ij in st.IJ_PAIRS:
            assert p.project(x, ij) == parts[ij]
            assert split[ij] == parts[ij]
            assert st.component_of(p, parts[ij], ij)
            # a dense random element lies in no single component
            assert not st.component_of(p, x, ij)


@pytest.mark.parametrize("spec,products", [("zorn", 33), ("matrix:3", 37)])
def test_system_build_makes_four_products_per_basis_vector(
        spec, products, monkeypatch):
    # e e for the idempotent check, then per basis vector e1 b, b e1,
    # e1 (b e1) and (e1 b) e1: 4 dim + 1.  Every product has u or e1 as a
    # factor, none e2 alone; the unit law and the anti-automorphism law are
    # decided on the structure tensor.  The stars are each b* and b** for
    # the involutive law, 1* and e1*.
    a, idem = st.resolve_algebra(spec)
    e1 = a.element(idem["e1"]) if idem else a.basis_element(0)
    calls, stars = [], []
    multiply, star = Algebra.multiply, Algebra.star

    def counted(self, x, y):
        calls.append((x, y))
        return multiply(self, x, y)

    def counted_star(self, x):
        stars.append(x)
        return star(self, x)

    monkeypatch.setattr(Algebra, "multiply", counted)
    monkeypatch.setattr(Algebra, "star", counted_star)
    st.PeirceSystem(a, e1)
    assert len(calls) == products == 4 * a.dim + 1
    assert all(x in (a.unit, e1) or y in (a.unit, e1) for x, y in calls)
    basis = list(a.basis())
    assert stars == basis + [star(a, b) for b in basis] + [a.unit, e1]


@pytest.mark.parametrize("spec,products", [("zorn", 33), ("matrix:3", 37)])
def test_a_later_build_on_one_algebra_decides_no_law_again(
        spec, products, monkeypatch):
    # the unit and involution laws are decided once per Algebra object, so
    # a second system, here on e2, calls neither law check and makes only
    # e e and the four products per basis vector, 4 dim + 1, and e*
    a, idem = st.resolve_algebra(spec)
    e1 = a.element(idem["e1"]) if idem else a.basis_element(0)
    st.PeirceSystem(a, e1)
    e2 = a.unit - e1
    calls, stars = [], []
    multiply, star = Algebra.multiply, Algebra.star

    def counted(self, x, y):
        calls.append((x, y))
        return multiply(self, x, y)

    def counted_star(self, x):
        stars.append(x)
        return star(self, x)

    def no_law_check(a):
        raise AssertionError("a load-time law was decided again")

    monkeypatch.setattr(Algebra, "multiply", counted)
    monkeypatch.setattr(Algebra, "star", counted_star)
    for name in ("check_unit", "check_involution"):
        monkeypatch.setattr(algebra, name, no_law_check)
    st.PeirceSystem(a, e2)
    assert len(calls) == products == 4 * a.dim + 1
    assert all(e2 in (x, y) for x, y in calls)
    assert stars == [e2]


def test_system_rejects_incompatible_idempotent(incompatible):
    e = incompatible.basis_element(1) + incompatible.basis_element(4)
    info = st.classify_idempotent(incompatible, e)
    assert info.is_idempotent and info.is_symmetric and not info.is_trivial
    # the build reaches the compatibility law past every load-time law
    assert st.check_unit(incompatible).ok
    assert st.check_involution(incompatible).ok
    with pytest.raises(st.PeirceError,
                       match=r"fails Peirce compatibility .* at basis 1\*x"):
        st.PeirceSystem(incompatible, e)


def test_system_rejects_unit_that_does_not_recombine(m2):
    doc = st.algebra_to_dict(m2)
    doc["unit"] = ["1", "0", "0", "2"]
    bad, _ = st.algebra_from_dict(doc)
    e1 = bad.basis_element(0)
    # E11 is still a symmetric idempotent with four 1-dimensional
    # projections, yet they sum to u (b u), not b; the unit law rejects the
    # system first, at E12 u = 2 E12
    info = st.classify_idempotent(bad, e1)
    assert info.is_idempotent and info.is_symmetric
    e = {1: e1, 2: bad.unit - e1}
    for i, j in st.IJ_PAIRS:
        images = [list((e[i] * (b * e[j])).coords) for b in bad.basis()]
        assert len(rref(images)[1]) == 1  # rank 1
    with pytest.raises(st.PeirceError, match=re.escape(
            "two_sided_unit at (1*E12, 1*E11 + 2*E22)")):
        st.PeirceSystem(bad, e1)


def test_system_rejects_unit_that_star_moves(star_moved_unit):
    a = star_moved_unit
    assert st.check_unit(a).ok
    info = st.classify_idempotent(a, a.basis_element(0))
    assert info.is_idempotent and info.is_symmetric
    # the first law that fails in check's order
    failed = [c.name for c in st.check_involution(a).checks if not c.passed]
    assert failed == ["involutive", "unit_fixed", "anti_automorphism"]
    with pytest.raises(st.PeirceError, match=re.escape(
            "the algebra fails involutive at (1*f2)")):
        st.PeirceSystem(a, a.basis_element(0))


def test_system_rejects_overlapping_components(overlap):
    a = overlap
    assert st.check_unit(a).ok and st.check_involution(a).ok
    with pytest.raises(st.PeirceError,
                       match="overlap: their dimensions sum to 6 > dim 3"):
        st.PeirceSystem(a, a.basis_element(0))


# -- the construction from both idempotents, kept as the reference ----------


def _reference_system(a, e1):
    """The construction that made e_i b, b e_j and e_i (b e_j) for both
    idempotents, checked the four compatibility laws and the recombination
    of the four projections of each basis vector, then the overlap.
    Returns (projections of the basis, component bases)."""
    from altstar import linalg
    e = {1: e1, 2: a.unit - e1}
    basis = a.basis()
    left = {i: [e[i] * b for b in basis] for i in e}
    right = {j: [b * e[j] for b in basis] for j in e}
    projected = {(i, j): [e[i] * bj for bj in right[j]]
                 for i, j in st.IJ_PAIRS}
    for k, b in enumerate(basis):
        for i, j in st.IJ_PAIRS:
            if not (left[i][k] * e[j] - projected[(i, j)][k]).is_zero():
                raise st.PeirceError(
                    "idempotent fails Peirce compatibility "
                    f"(e_i b) e_j != e_i (b e_j) at basis {b!r}")
    for k, b in enumerate(basis):
        total = sum((projected[ij][k] for ij in st.IJ_PAIRS), a.zero())
        if not (total - b).is_zero():
            raise st.PeirceError(f"Peirce components do not recombine to "
                                 f"basis {b!r}")
    bases = {ij: [cols[t] for t in linalg.rref(linalg.from_columns(
        [x.coords for x in cols]))[1]] for ij, cols in projected.items()}
    total = sum(len(v) for v in bases.values())
    if total != a.dim:
        raise st.PeirceError(
            f"Peirce components overlap: their dimensions sum to {total} "
            f"> dim {a.dim}, so the sum is not direct")
    return projected, bases


@pytest.mark.parametrize("spec", [
    "zorn", "matrix:2", "matrix:3", "matrix:3/E11+E22", "matrix:5", "zorn~",
    "dsum:zorn,matrix:3", "cd:-1,-1,-1"])
def test_system_matches_the_construction_from_both_idempotents(
        spec, zorn_transported):
    if spec == "zorn~":
        a = zorn_transported
        e1s = st.find_symmetric_idempotents(a)[:1]
    elif spec == "matrix:3/E11+E22":
        a, _ = st.resolve_algebra("matrix:3")
        e1s = [a.basis_element(0) + a.basis_element(4)]
    elif spec == "cd:-1,-1,-1":
        a, _ = st.resolve_algebra(spec)
        e1s = st.find_symmetric_idempotents(a)
    else:
        a, idem = st.resolve_algebra(spec)
        e1s = [a.element(idem["e1"])]
    assert e1s
    for e1 in e1s:
        p = st.PeirceSystem(a, e1)
        projected, bases = _reference_system(a, e1)
        for ij in st.IJ_PAIRS:
            assert [p.project(b, ij) for b in a.basis()] == projected[ij]
        assert p.component_bases == bases


@pytest.mark.parametrize("name", ["incompatible", "overlap"])
def test_system_rejects_as_the_construction_from_both_idempotents(
        name, request):
    a = request.getfixturevalue(name)
    e1 = (a.basis_element(1) + a.basis_element(4) if name == "incompatible"
          else a.basis_element(0))
    with pytest.raises(st.PeirceError) as ref:
        _reference_system(a, e1)
    with pytest.raises(st.PeirceError) as got:
        st.PeirceSystem(a, e1)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("fixture,samples", [("m2_peirce", 100),
                                             ("zorn_peirce", 100)])
def test_component_relations_hold(fixture, samples, request):
    p = request.getfixturevalue(fixture)
    rep = st.check_peirce_relations(p, samples, seed=5)
    assert rep.ok, [c.name for c in rep.checks if not c.passed]
    names = {c.name for c in rep.checks}
    assert {"(i) A11*A12 in A12", "(i) A12*A21 in A11",
            "(ii) A12*A12 in A21", "(iii) A12*A11 = 0",
            "(iv) squares in A12 vanish", "(iv) squares in A21 vanish",
            "(v) star(A12) in A21"} <= names


@pytest.mark.parametrize("samples", [0, -5])
def test_relations_refuse_a_run_without_samples(m2_peirce, samples):
    with pytest.raises(st.PeirceError, match="samples must be >= 1"):
        st.check_peirce_relations(m2_peirce, samples, seed=5)



# -- relations decided on basis cases before the sampled scan ----------------


def _prove_nothing(laws, proofs, budget):
    return frozenset()


def _record_proofs(monkeypatch):
    """The laws each call of proved_laws proves, in call order."""
    held = []
    real = algebra.proved_laws

    def spy(laws, proofs, budget):
        held.append(real(laws, proofs, budget))
        return held[-1]

    monkeypatch.setattr(algebra, "proved_laws", spy)
    return held


def _relation_system(spec):
    """The builtin's Peirce system; zorn~diag is zorn moved to the basis
    diag(2, 1, 1+i, 1, ..., 1), a sparse tensor with a non-real entry."""
    if spec != "zorn~diag":
        a, idem = st.resolve_algebra(spec)
        return st.PeirceSystem(a, a.element(idem["e1"]))
    from altstar import linalg
    zorn = st.zorn_algebra()
    d = [Scalar(2), ONE, Scalar(1, 1)] + [ONE] * 5
    m = [[d[r] if c == r else ZERO for c in range(8)] for r in range(8)]
    moved = st.change_of_basis(zorn, m, name="zorn~diag")
    return st.PeirceSystem(moved, moved.element(
        linalg.mat_vec(linalg.inverse(m), zorn.basis_element(0).coords)))


@pytest.mark.parametrize("spec", ["zorn", "matrix:2", "matrix:3",
                                  "zorn~diag", "dsum:matrix:2,matrix:2"])
def test_relations_proved_on_the_basis_report_as_the_scan(spec, monkeypatch):
    # with nothing proved every law runs the sampled scan, as it always did
    p = _relation_system(spec)
    runs = [(samples, seed) for samples in (2, 40) for seed in (0, 1, 7919)]
    got = [st.check_peirce_relations(p, *run) for run in runs]
    monkeypatch.setattr(algebra, "proved_laws", _prove_nothing)
    assert got == [st.check_peirce_relations(p, *run) for run in runs]


def test_relations_proof_runs_only_when_it_is_cheaper(zorn_peirce,
                                                      monkeypatch):
    # 19 laws on zorn: 85 basis cases against 2 x 19 or 40 x 19 law calls
    held = _record_proofs(monkeypatch)
    st.check_peirce_relations(zorn_peirce, 2, seed=1)
    st.check_peirce_relations(zorn_peirce, 40, seed=1)
    assert held[0] == frozenset()
    # every relation holds on the basis; A12 A12 is nonzero on zorn
    assert held[1] == {name for name, _, y, _ in st.peirce._RELATIONS
                       if y is not None}


def test_offdiag_product_refuted_on_the_basis_keeps_its_sampled_witness(
        zorn_peirce, monkeypatch):
    rep = st.check_peirce_relations(zorn_peirce, 40, seed=3)
    assert rep.ok and rep.offdiag_product_witness is not None
    monkeypatch.setattr(algebra, "proved_laws", _prove_nothing)
    assert st.check_peirce_relations(zorn_peirce, 40, seed=3) == rep


def test_relations_proved_on_the_basis_draw_no_sample(m3_peirce,
                                                      monkeypatch):
    # matrix:3 is associative, so A12 A12 = 0 and all 19 laws are proved
    def no_draw(p, ij, rng):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(st.peirce, "random_component", no_draw)
    rep = st.check_peirce_relations(m3_peirce, 40, seed=1)
    assert rep.ok and rep.offdiag_product_witness is None


@pytest.fixture(scope="module")
def crossed_squares():
    """Basis e1, e2, b, c, b', c': orthogonal idempotents with unit e1 + e2,
    b, c in A12 and b' = b*, c' = c* in A21.  b b = c c = 0 but
    b c = c b = e1 (and c' b' = b' c' = e1), so squares in A12 vanish on
    each basis vector and not on b + c.  Not alternative, but it meets
    the unit and involution laws that a Peirce system needs."""
    structure = {(0, 0, 0): ONE, (1, 1, 1): ONE,
                 (2, 3, 0): ONE, (3, 2, 0): ONE,
                 (5, 4, 0): ONE, (4, 5, 0): ONE}
    for x, y in ((2, 4), (3, 5)):
        # e1 x = x e2 = x on A12, e2 x' = x' e1 = x' on A21
        structure[0, x, x] = structure[x, 1, x] = ONE
        structure[1, y, y] = structure[y, 0, y] = ONE
    swap = {0: 0, 1: 1, 2: 4, 3: 5, 4: 2, 5: 3}
    star = [[ONE if r == swap[c] else ZERO for c in range(6)]
            for r in range(6)]
    return Algebra("crossed-squares", 6, ["e1", "e2", "b", "c", "b'", "c'"],
                   structure, [ONE, ONE, ZERO, ZERO, ZERO, ZERO], star)


def test_squares_are_decided_on_sums_of_basis_vectors(crossed_squares,
                                                      monkeypatch):
    p = st.PeirceSystem(crossed_squares, crossed_squares.basis_element(0))
    assert p.component_dims() == {(1, 1): 1, (1, 2): 2, (2, 1): 2,
                                  (2, 2): 1}
    held = _record_proofs(monkeypatch)
    rep = st.check_peirce_relations(p, 40, seed=1)
    assert held[0] and "(iv) squares in A12 vanish" not in held[0]
    failed = {c.name for c in rep.checks if not c.passed}
    assert "(iv) squares in A12 vanish" in failed
    monkeypatch.setattr(algebra, "proved_laws", _prove_nothing)
    assert st.check_peirce_relations(p, 40, seed=1) == rep

def test_m2_offdiagonal_products_vanish(m2_peirce):
    rep = st.check_peirce_relations(m2_peirce, 100, seed=5)
    assert rep.ok
    assert rep.offdiag_product_witness is None


def test_zorn_offdiagonal_product_nonzero(zorn_peirce):
    rep = st.check_peirce_relations(zorn_peirce, 100, seed=5)
    assert rep.ok
    w = rep.offdiag_product_witness
    assert w is not None
    x, y = w.args
    prod = x * y
    assert prod == w.residual
    assert not prod.is_zero()
    # the product of two A12 elements lands in A21
    assert st.component_of(zorn_peirce, x, (1, 2))
    assert st.component_of(zorn_peirce, y, (1, 2))
    assert st.component_of(zorn_peirce, prod, (2, 1))


def test_zorn_offdiag_squares_vanish(zorn_peirce):
    rng = derive_rng(303, "squares")
    for _ in range(100):
        x12 = st.random_component(zorn_peirce, (1, 2), rng)
        x21 = st.random_component(zorn_peirce, (2, 1), rng)
        assert (x12 * x12).is_zero()
        assert (x21 * x21).is_zero()


def test_star_inclusion(zorn_peirce):
    rng = derive_rng(304, "star-incl")
    for _ in range(50):
        x = st.random_component(zorn_peirce, (1, 2), rng)
        split = st.peirce_decompose(zorn_peirce, x.star())
        assert split[(2, 1)] == x.star()


# -- the annihilator condition ------------------------------------------------


def _assert_spade_report(rep, r1, r2):
    """rep reports the side r1 on e1 and the side r2 on e2."""
    assert rep.spade == {"e1": r1.holds, "e2": r2.holds}
    assert rep.witnesses == {"e1": r1.witness, "e2": r2.witness}
    assert rep.ok == (r1.holds and r2.holds)


def test_spade_holds_on_division_like_examples(m2_peirce, m3_peirce,
                                               zorn_peirce):
    for p in (m2_peirce, m3_peirce, zorn_peirce):
        r1, r2 = st.check_spade(p, 1), st.check_spade(p, 2)
        assert r1.holds and r1.witness is None
        assert r2.holds and r2.witness is None
        _assert_spade_report(st.spade_pair(p), r1, r2)


def test_spade_fails_on_direct_sum_with_verified_witness(dsum_m2_m2):
    ds = dsum_m2_m2
    e1 = ds.element([ONE, ZERO, ZERO, ONE] + [ZERO] * 4)
    p = st.PeirceSystem(ds, e1)
    r1, r2 = st.check_spade(p, 1), st.check_spade(p, 2)
    assert not r1.holds and not r2.holds
    _assert_spade_report(st.spade_pair(p), r1, r2)
    for r, e in ((r1, p.e1), (r2, p.e2)):
        x = r.witness
        assert x is not None and not x.is_zero()
        # independent verification: x annihilates every b*e
        for b in ds.basis():
            assert (x * (b * e)).is_zero()


def test_spade_witness_is_verified_by_its_products(monkeypatch):
    from altstar import linalg

    def no_mat_vec(*args):
        raise AssertionError("check_spade called linalg.mat_vec")

    a, idem = st.resolve_algebra("dsum:zorn,matrix:3")
    p = st.PeirceSystem(a, a.element(idem["e1"]))
    monkeypatch.setattr(linalg, "mat_vec", no_mat_vec)
    rep = st.spade_pair(p)
    failing = [(e, rep.witnesses[side])
               for e, side in zip((p.e1, p.e2), ("e1", "e2"))
               if not rep.spade[side]]
    assert failing
    for e, w in failing:
        assert not w.is_zero()
        for b in a.basis():
            assert (w * (b * e)).is_zero()


def test_spade_rejects_a_witness_that_does_not_annihilate(m2_peirce,
                                                          monkeypatch):
    from altstar import linalg
    # E11 (b E11) is nonzero for b = E11, so this vector is no witness;
    # check_spade reads its nullspace as numerators (re, im, den)
    monkeypatch.setattr(linalg, "int_nullspace",
                        lambda rows, ncols: [([1, 0, 0, 0], [0] * 4, 1)])
    with pytest.raises(st.PeirceError, match="fails to verify"):
        st.check_spade(m2_peirce, 1)


def _spade_on_every_product(a, e):
    """Reference: the annihilator condition for e with every b e as a
    generator, (holds, first nullspace vector or None)."""
    from altstar import linalg
    gens = [b * e for b in a.basis()]
    rows = [row for g in gens
            for row in linalg.from_columns([(b * g).coords
                                            for b in a.basis()])]
    null = linalg.nullspace(rows)
    return st.SpadeResult(not null, a.element(null[0]) if null else None)


@pytest.mark.parametrize("spec", ["zorn", "matrix:2", "matrix:3", "matrix:5",
                                  "cd:-1,-1,-1", "dsum:zorn,matrix:3",
                                  "dsum:matrix:2,matrix:2", "zorn~"])
def test_spade_on_component_bases_matches_every_product(spec,
                                                        zorn_transported):
    # A e_j = A_1j + A_2j, and a reduced echelon form is unique, so the
    # verdict and the first witness equal those over all of b e_j
    if spec == "zorn~":
        a = zorn_transported
        e1 = st.find_symmetric_idempotents(a)[0]
    else:
        a, idem = st.resolve_algebra(spec)
        e1 = a.element(idem["e1"]) if idem \
            else st.find_symmetric_idempotents(a)[0]
    p = st.PeirceSystem(a, e1)
    _assert_spade_report(st.spade_pair(p), _spade_on_every_product(a, p.e1),
                         _spade_on_every_product(a, p.e2))


@pytest.mark.parametrize("spec,products", [("zorn", 64), ("matrix:3", 81)])
def test_spade_pair_makes_dim_squared_products(spec, products, monkeypatch):
    # the generators of A e1 and A e2 together are a basis of A, and each
    # generator g costs dim products b g; a condition that holds makes no
    # witness check
    a, idem = st.resolve_algebra(spec)
    p = st.PeirceSystem(a, a.element(idem["e1"]))
    calls = []
    multiply = Algebra.multiply

    def counted(self, x, y):
        calls.append(None)
        return multiply(self, x, y)

    monkeypatch.setattr(Algebra, "multiply", counted)
    rep = st.spade_pair(p)
    assert rep.spade == {"e1": True, "e2": True} and rep.ok
    assert len(calls) == products == a.dim ** 2


# -- basis independence -------------------------------------------------------


def test_peirce_data_invariant_under_change_of_basis(m2):
    from altstar import linalg
    shear = [[ONE if r == c else ZERO for c in range(4)] for r in range(4)]
    shear[0][1] = ONE
    b = st.change_of_basis(m2, shear, name="m2-sheared")
    minv = linalg.inverse([list(r) for r in shear])
    e1_new = b.element(linalg.mat_vec(minv, m2.basis_element(0).coords))
    p_new = st.PeirceSystem(b, e1_new)
    p_old = st.PeirceSystem(m2, m2.basis_element(0))
    assert p_new.component_dims() == p_old.component_dims()
    r_new, r_old = st.spade_pair(p_new), st.spade_pair(p_old)
    assert r_new.spade == r_old.spade
    rep = st.check_peirce_relations(p_new, 60, seed=6)
    assert rep.ok
