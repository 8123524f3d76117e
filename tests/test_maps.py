"""Falsification harness: positive maps survive, negatives are refuted."""

import pytest

import altstar as st
from altstar import algebra, linalg, maps
from altstar.jordan import MAX_ARITY
from altstar.maps import AlgebraMap, _mapped_pairs, _pairs, sample_pool
from altstar.sampling import derive_rng, random_element
from altstar.scalars import I, ONE, Scalar, TWO, ZERO


@pytest.fixture(scope="module")
def zorn_patched_double(zorn):
    p = zorn.basis_element(2)  # u1, not an idempotent
    return st.patched_map(st.identity_map(zorn), {p: p.scale(TWO)},
                          name="patched-double")


# -- construction and application ---------------------------------------------


def test_apply_linear_core(m2):
    phi = st.identity_map(m2)
    rng = derive_rng(501, "apply")
    for _ in range(20):
        x = random_element(m2, rng)
        assert phi(x) == x


def test_patch_lookup_precedes_linear_core(zorn):
    u1, w1 = zorn.basis_element(2), zorn.basis_element(5)
    swap = st.patched_map(st.identity_map(zorn), {u1: w1, w1: u1},
                          name="uw-swap")
    assert swap(u1) == w1
    assert swap(w1) == u1
    assert swap(zorn.basis_element(3)) == zorn.basis_element(3)
    assert st.bijective_claim(swap)


def test_conjugating_map_applies_conjugation_first(m2):
    phi = st.star_as_map(m2)
    rng = derive_rng(502, "star-map")
    for _ in range(20):
        x = random_element(m2, rng)
        assert phi(x) == x.star()


def test_domain_mismatch_rejected(m2, zorn):
    phi = st.identity_map(m2)
    with pytest.raises(st.MapError):
        phi(zorn.unit)


def test_patch_table_validation(m2, zorn):
    e11, e12, e21 = m2.basis_element(0), m2.basis_element(1), \
        m2.basis_element(2)
    base = st.identity_map(m2)
    # duplicate outputs
    with pytest.raises(st.MapError):
        st.patched_map(base, {e11: e21, e12: e21})
    # wrong algebra
    with pytest.raises(st.MapError):
        st.patched_map(base, {zorn.unit: e11})
    # distinct outputs that are not a rewiring: constructible, but the
    # bijectivity claim is withdrawn
    chain = st.patched_map(base, {e11: e12, e12: e21})
    assert not st.bijective_claim(chain)
    # permutation-style rewiring keeps the claim
    ok = st.patched_map(base, {e11: e12, e12: e11})
    assert st.bijective_claim(ok)


def test_linear_part_shape_validated(m2):
    with pytest.raises(st.MapError):
        st.AlgebraMap(m2, m2, [[ONE] * 3 for _ in range(4)])


def test_bijective_claim(m2):
    assert st.bijective_claim(st.identity_map(m2))
    zero_map = st.AlgebraMap(m2, m2, [[ZERO] * 4 for _ in range(4)],
                             name="zero")
    assert not st.bijective_claim(zero_map)
    # a map between algebras of different dimensions has no inverse, even
    # when its linear part has no kernel vector
    m1 = st.matrix_algebra(1)
    assert not st.bijective_claim(st.AlgebraMap(m1, m2, [[ONE]] * 4))


def test_unital_examples(m2):
    assert st.check_unital(st.identity_map(m2))
    assert not st.check_unital(st.scale_map(m2, TWO))
    assert st.check_unital(st.matrix_swap_conjugation(m2))


# -- sample pool ---------------------------------------------------------------


def test_pool_contains_structured_points(zorn, zorn_peirce,
                                         zorn_patched_double):
    pool = sample_pool(zorn_patched_double, zorn_peirce, 24, seed=3)
    coords = {x.coords for x in pool}
    assert zorn.basis_element(2).coords in coords          # the patch point
    assert zorn.unit.coords in coords
    assert zorn_peirce.e1.coords in coords
    assert zorn_peirce.e2.coords in coords
    assert zorn_peirce.e1.scale(Scalar(1, 0, 2)).coords in coords
    assert zorn_peirce.e1.scale(I).coords in coords
    assert len(pool) == 24
    assert len(coords) == 24


# -- positive subjects ----------------------------------------------------------


def _all_positive_checks(phi, p, samples, seed):
    assert st.check_unital(phi)
    for n in (2, 3):
        rep = st.check_jordan_condition(phi, p, n, samples, seed)
        assert not rep.refuted, rep.witness
        assert rep.samples_run == samples
        assert "not refuted" in rep.verdict
    iso = st.check_star_ring_isomorphism(phi, p, samples, seed)
    assert iso.ok, [c.check for c in iso.checks if c.refuted]
    return iso


def test_identity_on_zorn_passes(zorn, zorn_peirce):
    _all_positive_checks(st.identity_map(zorn), zorn_peirce, 150, seed=5)


def test_rotation_automorphism_passes(zorn, zorn_peirce):
    _all_positive_checks(st.zorn_rotation_map(zorn), zorn_peirce, 150,
                         seed=5)


def test_swap_conjugation_passes(m2, m2_peirce):
    _all_positive_checks(st.matrix_swap_conjugation(m2), m2_peirce, 150,
                         seed=5)


def test_entrywise_conjugation_is_star_ring_automorphism(m2, m2_peirce):
    _all_positive_checks(st.conjugation_map(m2), m2_peirce, 150, seed=5)


def test_passing_iso_implies_passing_condition(zorn, zorn_peirce, m2,
                                               m2_peirce):
    # forward direction at desk scale, for every shipped positive example
    shipped = [(st.identity_map(zorn), zorn_peirce),
               (st.zorn_rotation_map(zorn), zorn_peirce),
               (st.matrix_swap_conjugation(m2), m2_peirce),
               (st.conjugation_map(m2), m2_peirce)]
    for phi, p in shipped:
        iso = st.check_star_ring_isomorphism(phi, p, 80, seed=6)
        if iso.ok:
            for n in (2, 3):
                assert not st.check_jordan_condition(phi, p, n, 80,
                                                     seed=6).refuted


def test_condition_consistent_across_arities(zorn, zorn_peirce):
    phi = st.zorn_rotation_map(zorn)
    verdicts = {n: st.check_jordan_condition(phi, zorn_peirce, n, 60,
                                             seed=7).refuted
                for n in (2, 3, 4)}
    assert verdicts == {2: False, 3: False, 4: False}


# -- negative subjects ----------------------------------------------------------


def test_patched_map_is_refuted_with_reproducible_witness(
        zorn, zorn_peirce, zorn_patched_double):
    phi = zorn_patched_double
    rep = st.check_jordan_condition(phi, zorn_peirce, 3, 500, seed=5)
    assert rep.refuted
    w = rep.witness
    assert w is not None
    # the patch point is in the pool, so refutation comes fast
    assert rep.samples_run <= 200
    # the witness re-evaluates to an exact inequality
    a, b = w.inputs
    tag = w.kind.split("=", 1)[1]
    xi = {"1": zorn.unit, "e1": zorn_peirce.e1,
          "e2": zorn_peirce.e2}[tag]
    lhs = phi(st.q_star([xi, a, b]))
    rhs = st.q_star([phi(xi), phi(a), phi(b)])
    assert lhs == w.lhs and rhs == w.rhs
    assert lhs != rhs


@pytest.mark.parametrize("n", [4, 5])
def test_patched_rotation_refuted_at_deep_arity(zorn, zorn_peirce, n):
    # n > 3 folds the n-2 leading slots into one prefix value first
    u1 = zorn.basis_element(2)
    phi = st.patched_map(st.zorn_rotation_map(zorn), {u1: u1.scale(TWO)},
                         name="rot-patched")
    rep = st.check_jordan_condition(phi, zorn_peirce, n, 500, seed=5)
    assert rep.refuted and rep.n == n
    w = rep.witness
    a, b = w.inputs
    xi = {"1": zorn.unit, "e1": zorn_peirce.e1,
          "e2": zorn_peirce.e2}[w.kind.split("=", 1)[1]]
    lhs = phi(st.q_star([xi] * (n - 2) + [a, b]))
    rhs = st.q_star([phi(xi)] * (n - 2) + [phi(a), phi(b)])
    assert lhs == w.lhs and rhs == w.rhs
    assert lhs != rhs


def test_refutation_is_deterministic(zorn, zorn_peirce,
                                     zorn_patched_double):
    r1 = st.check_jordan_condition(zorn_patched_double, zorn_peirce, 3,
                                   500, seed=5)
    r2 = st.check_jordan_condition(zorn_patched_double, zorn_peirce, 3,
                                   500, seed=5)
    assert r1 == r2


def test_scaling_map_breaks_star_preservation(m2, m2_peirce):
    phi = st.scale_map(m2, I, name="scale-by-i")
    iso = st.check_star_ring_isomorphism(phi, m2_peirce, 100, seed=5)
    assert not iso.ok
    c = iso.check("star_preservation")
    assert c.refuted
    (x,) = c.witness.inputs
    assert phi(x.star()) == c.witness.lhs
    assert phi(x).star() == c.witness.rhs
    assert c.witness.lhs != c.witness.rhs


def test_patched_map_fails_additivity(zorn, zorn_peirce,
                                      zorn_patched_double):
    iso = st.check_star_ring_isomorphism(zorn_patched_double, zorn_peirce,
                                         200, seed=5)
    assert iso.check("additivity").refuted


def test_nonunital_map_rejected_by_condition_check(m2, m2_peirce):
    with pytest.raises(st.MapError):
        st.check_jordan_condition(st.scale_map(m2, TWO), m2_peirce, 3,
                                  10, seed=1)


def test_condition_requires_arity_at_least_two(m2, m2_peirce):
    with pytest.raises(st.MapError):
        st.check_jordan_condition(st.identity_map(m2), m2_peirce, 1, 10,
                                  seed=1)


def test_condition_bounds_the_arity(m2, m2_peirce):
    phi = st.identity_map(m2)
    with pytest.raises(st.MapError, match=f"n <= {MAX_ARITY}, got 65"):
        st.check_jordan_condition(phi, m2_peirce, MAX_ARITY + 1, 1, seed=1)
    rep = st.check_jordan_condition(phi, m2_peirce, MAX_ARITY, 1, seed=1)
    assert not rep.refuted


@pytest.mark.parametrize("samples", [0, -5])
def test_condition_refuses_a_run_without_samples(m2, m2_peirce, samples):
    with pytest.raises(st.MapError, match="samples must be >= 1"):
        st.check_jordan_condition(st.identity_map(m2), m2_peirce, 3, samples,
                                  seed=1)


@pytest.mark.parametrize("samples", [0, -5])
def test_isomorphism_check_refuses_a_run_without_samples(m2, m2_peirce,
                                                         samples):
    with pytest.raises(st.MapError, match="samples must be >= 1"):
        st.check_star_ring_isomorphism(st.identity_map(m2), m2_peirce,
                                       samples, seed=1)


def test_peirce_system_must_live_on_domain(m2, zorn_peirce):
    with pytest.raises(st.MapError, match="map's domain"):
        st.check_jordan_condition(st.identity_map(m2), zorn_peirce, 2, 10,
                                  seed=1)


def test_isomorphism_check_rejects_a_peirce_system_on_another_algebra(
        m2, zorn_peirce):
    with pytest.raises(st.MapError, match="map's domain"):
        st.check_star_ring_isomorphism(st.identity_map(m2), zorn_peirce, 10,
                                       seed=1)


def _zorn_with_star_entry_two(zorn):
    """zorn with star matrix entry (0, 0) set to 2: e1* = 2 e1, so the
    algebra fails involutive at e1, while its unit laws hold."""
    star = [list(row) for row in zorn.star_matrix()]
    star[0][0] = TWO
    return st.Algebra("zorn-star-2", zorn.dim, zorn.basis_labels,
                      {(i, j, k): c
                       for i, j, k, c in zorn.structure_entries()},
                      zorn.unit.coords, star)


@pytest.mark.parametrize("check", [
    lambda phi, p: st.check_jordan_condition(phi, p, 3, 20, seed=0),
    lambda phi, p: st.check_star_ring_isomorphism(phi, p, 20, seed=0)],
    ids=["jordan_condition", "star_ring_isomorphism"])
def test_map_checkers_refuse_a_codomain_that_fails_its_laws(
        zorn, zorn_peirce, check):
    # the identity matrix into a codomain whose star is not involutive:
    # without the gate the jordan condition was refuted at xi=1, and
    # star_preservation, idempotent_image_f1 and peirce_blocks were
    # refuted, each blaming the map for the codomain's defect
    phi = AlgebraMap(zorn, _zorn_with_star_entry_two(zorn),
                     st.identity_map(zorn).linear_part)
    with pytest.raises(st.StarAlgebraLawError,
                       match=r"fails involutive at \(1\*e1\)"):
        check(phi, zorn_peirce)


def test_each_pool_element_is_mapped_once(zorn, zorn_peirce,
                                          zorn_patched_double, monkeypatch):
    # 500 pairs over a pool of 64: in one scan phi runs once per pool
    # element drawn
    phi = zorn_patched_double
    pool = sample_pool(phi, zorn_peirce, 64, 3)
    pairs = list(_pairs(pool, 500, 3))
    calls = []
    apply = AlgebraMap.__call__

    def counted(self, x):
        calls.append(x)
        return apply(self, x)

    monkeypatch.setattr(AlgebraMap, "__call__", counted)
    cases = list(_mapped_pairs(phi, zorn_peirce, 500, 3))
    assert len(calls) == len(set(calls)) == len({x for ab in pairs
                                                 for x in ab}) <= 64
    monkeypatch.undo()
    assert cases == [(a, b, phi(a), phi(b)) for a, b in pairs]


def test_rotation_map_requires_zorn(m2):
    with pytest.raises(st.MapError):
        st.zorn_rotation_map(m2)


def test_swap_conjugation_requires_m2(zorn):
    with pytest.raises(st.MapError):
        st.matrix_swap_conjugation(zorn)


def test_bijective_claim_across_copies_of_one_algebra():
    # a map built through the API may send an algebra to a copy of it
    a, b = st.matrix_algebra(2), st.matrix_algebra(2)
    eye = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    swap = {a.basis_element(0): b.basis_element(3),
            a.basis_element(3): b.basis_element(0)}
    assert st.bijective_claim(st.AlgebraMap(a, b, eye, patches=swap))
    moved = {a.basis_element(0): b.basis_element(3)}
    assert not st.bijective_claim(st.AlgebraMap(a, b, eye, patches=moved))


def test_peirce_block_check_projects_once_on_the_pass_path(
        zorn, zorn_peirce, monkeypatch):
    def no_split(p, x):
        raise AssertionError("peirce_decompose on the pass path")

    monkeypatch.setattr(st.maps, "peirce_decompose", no_split)
    rep = st.check_star_ring_isomorphism(st.zorn_rotation_map(zorn),
                                         zorn_peirce, 50, seed=3)
    assert not rep.check("peirce_blocks").refuted


def test_peirce_block_witness_removes_the_first_off_block_part(
        m2, m2_peirce):
    # the conjugate transpose fixes e1 = E11 and sends A12 into A21
    phi = st.star_as_map(m2)
    blocks = st.check_star_ring_isomorphism(phi, m2_peirce, 10,
                                            seed=0).check("peirce_blocks")
    assert blocks.refuted
    w = blocks.witness
    (x,) = w.inputs
    ij = (int(w.kind[-2]), int(w.kind[-1]))
    assert st.component_of(m2_peirce, x, ij) and w.lhs == phi(x)
    split = st.peirce_decompose(st.PeirceSystem(m2, phi(m2_peirce.e1)),
                                w.lhs)
    off = [split[kl] for kl in st.IJ_PAIRS
           if kl != ij and not split[kl].is_zero()]
    assert off and w.rhs == w.lhs - off[0]


def test_peirce_blocks_are_refuted_without_an_image_system(m2, m2_peirce):
    # phi swaps E11 and 0, so phi(e1) = 0 is a trivial symmetric idempotent
    # and there is no image Peirce system for the blocks to land in
    e11 = m2.basis_element(0)
    phi = st.patched_map(st.identity_map(m2), {e11: m2.zero(),
                                               m2.zero(): e11})
    assert st.check_unital(phi) and st.bijective_claim(phi)
    rep = st.check_star_ring_isomorphism(phi, m2_peirce, 10, seed=0)
    assert not rep.check("idempotent_image_f1").refuted
    assert not rep.check("idempotent_image_f2").refuted
    blocks = rep.check("peirce_blocks")
    assert blocks.refuted
    assert blocks.witness == st.MapWitness("peirce_blocks", (), m2.zero(),
                                           m2.zero())



# -- laws decided on basis cases before the sampled scan ----------------------


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


def _iso_subject(name, zorn, m2):
    """The test map called name, on zorn or on m2."""
    return {
        "zorn-identity": lambda: st.identity_map(zorn),
        "zorn-rotation": lambda: st.zorn_rotation_map(zorn),
        "patched-double": lambda: st.patched_map(
            st.identity_map(zorn),
            {zorn.basis_element(2): zorn.basis_element(2).scale(TWO)}),
        "m2-swap": lambda: st.matrix_swap_conjugation(m2),
        "m2-conjugation": lambda: st.conjugation_map(m2),
        "m2-star": lambda: st.star_as_map(m2),
        "m2-scale-2": lambda: st.scale_map(m2, Scalar(2)),
    }[name]()


@pytest.mark.parametrize("name", ["zorn-identity", "zorn-rotation",
                                  "patched-double", "m2-swap",
                                  "m2-conjugation", "m2-star", "m2-scale-2"])
def test_isomorphism_laws_proved_on_the_basis_report_as_the_scan(
        name, zorn, zorn_peirce, m2, m2_peirce, monkeypatch):
    # with nothing proved every law runs the sampled scan, as it always did
    p = zorn_peirce if name.startswith(("zorn", "patched")) else m2_peirce
    runs = [(samples, seed) for samples in (2, 40, 100)
            for seed in (0, 1, 7919)]

    def reports():
        return [st.check_star_ring_isomorphism(_iso_subject(name, zorn, m2),
                                               p, *run) for run in runs]

    got = reports()
    monkeypatch.setattr(algebra, "proved_laws", _prove_nothing)
    assert got == reports()


def test_isomorphism_proofs_run_only_when_they_are_cheaper(
        zorn, zorn_peirce, monkeypatch):
    # dim^2 + dim = 72 basis cases against 3 laws x samples; 8 block cases
    # against one law x samples x 4 components
    held = _record_proofs(monkeypatch)
    st.check_star_ring_isomorphism(st.zorn_rotation_map(zorn), zorn_peirce,
                                   2, seed=1)
    assert held == [frozenset(), {"peirce_blocks"}]
    held.clear()
    rep = st.check_star_ring_isomorphism(st.zorn_rotation_map(zorn),
                                         zorn_peirce, 40, seed=1)
    assert held == [{"additivity", "multiplicativity", "star_preservation"},
                    {"peirce_blocks"}]
    assert rep.ok
    assert [c.samples_run for c in rep.checks] == [40, 40, 40, 0, 0, 0, 160]


def test_laws_refuted_on_the_basis_keep_their_sampled_witnesses(
        m2, m2_peirce, monkeypatch):
    # the conjugate transpose reverses products and sends A12 into A21
    held = _record_proofs(monkeypatch)
    rep = st.check_star_ring_isomorphism(st.star_as_map(m2), m2_peirce, 40,
                                         seed=1)
    assert held == [{"additivity", "star_preservation"}, frozenset()]
    refuted = {c.check for c in rep.checks if c.refuted}
    assert refuted == {"multiplicativity", "peirce_blocks"}
    monkeypatch.setattr(algebra, "proved_laws", _prove_nothing)
    assert st.check_star_ring_isomorphism(st.star_as_map(m2), m2_peirce, 40,
                                          seed=1) == rep


def test_a_patched_map_gets_no_basis_proof(zorn, zorn_peirce,
                                           zorn_patched_double, monkeypatch):
    held = _record_proofs(monkeypatch)
    phi = st.patched_map(zorn_patched_double, {})
    rep = st.check_star_ring_isomorphism(phi, zorn_peirce, 100, seed=1)
    assert held == [frozenset(), frozenset()]
    assert rep.check("additivity").refuted


def test_isomorphism_proofs_map_each_basis_vector_once(zorn, zorn_peirce,
                                                       monkeypatch):
    # the phi calls made up to the end of the equations' proofs: phi(a b)
    # for each of the dim^2 pairs, phi(b*) for each of the dim vectors, and
    # each basis image once; none where the proofs do not run
    calls, seen = [], []
    apply, real = AlgebraMap.__call__, algebra.proved_laws

    def counted(self, x):
        calls.append(x)
        return apply(self, x)

    def spy(laws, proofs, budget):
        held = real(laws, proofs, budget)
        seen.append(len(calls))
        return held

    monkeypatch.setattr(AlgebraMap, "__call__", counted)
    monkeypatch.setattr(algebra, "proved_laws", spy)
    phi = st.zorn_rotation_map(zorn)
    for samples, expected in ((40, zorn.dim ** 2 + 2 * zorn.dim), (2, 0)):
        calls.clear()
        seen.clear()
        st.check_star_ring_isomorphism(phi, zorn_peirce, samples, seed=1)
        assert seen[0] == expected


# -- a map keeps nothing ------------------------------------------------------


@pytest.mark.parametrize("name", ["zorn-identity", "zorn-rotation",
                                  "patched-double", "m2-swap", "m2-star"])
@pytest.mark.parametrize("seed", [0, 1, 3, 7919])
def test_a_pool_head_does_not_depend_on_the_pool_size(
        name, seed, zorn, zorn_peirce, m2, m2_peirce):
    # up to 144 samples the pairs read only the first 12 pool points, so a
    # checker builds just those
    phi = _iso_subject(name, zorn, m2)
    p = zorn_peirce if phi.domain is zorn else m2_peirce
    assert sample_pool(phi, p, 12, seed) == sample_pool(phi, p, 64, seed)[:12]


def _both_checks(phi, p, samples, seed):
    return (st.check_jordan_condition(phi, p, 3, samples, seed),
            st.check_star_ring_isomorphism(phi, p, samples, seed))


def _fields(phi):
    """vars(phi), with each dict in it copied."""
    return {k: dict(v) if isinstance(v, dict) else v
            for k, v in vars(phi).items()}


@pytest.mark.parametrize("samples", [40, 500])
def test_a_changed_patch_table_is_checked_as_it_now_is(zorn, zorn_peirce,
                                                       samples):
    # the checkers leave no state on the map, so a map checked once and then
    # given two swapped pool points as patches gets the reports of a map
    # built with those patches
    phi = st.zorn_rotation_map(zorn)
    before = _fields(phi)
    assert not any(c.refuted for c in _both_checks(phi, zorn_peirce,
                                                   samples, 3)[1].checks)
    assert _fields(phi) == before
    x, y = sample_pool(phi, zorn_peirce, 12, 3)[-2:]
    phi.patches.update({x: y, y: x})
    fresh = AlgebraMap(zorn, zorn, phi.linear_part, patches={x: y, y: x})
    got = _both_checks(phi, zorn_peirce, samples, 3)
    assert got == _both_checks(fresh, zorn_peirce, samples, 3)
    assert got[0].refuted
    assert {c.check for c in got[1].checks if c.refuted} == {
        "additivity", "multiplicativity", "star_preservation"}

# -- the one fold -------------------------------------------------------------


def _similarity(m2):
    """x -> S x S^-1 with S = E11 + E12 + E22: a unital algebra automorphism
    that does not preserve the star; phi(E11) = E11 - E12."""
    s = m2.element([ONE, ONE, ZERO, ONE])
    s_inv = m2.element([ONE, -ONE, ZERO, ONE])
    m = linalg.from_columns([((s * b) * s_inv).coords for b in m2.basis()])
    return st.AlgebraMap(m2, m2, m, name="similarity")


def _reference_condition(phi, p, n, samples, seed):
    """The checker the one fold replaced: each xi prefix folded once by
    q_star, then every case folded again through a fresh q_star."""
    pool = sample_pool(phi, p, max(16, min(samples, 64)), seed)
    prefixes = []
    for tag, xi in (("1", phi.domain.unit), ("e1", p.e1), ("e2", p.e2)):
        if n == 2:
            prefixes.append((tag, [], []))
        else:
            prefixes.append((tag, [st.q_star([xi] * (n - 2))],
                             [st.q_star([phi(xi)] * (n - 2))]))
    run = 0
    for a, b in _pairs(pool, samples, seed):
        run += 1
        img_a, img_b = phi(a), phi(b)
        for tag, dom, cod in prefixes:
            lhs = phi(st.q_star(dom + [a, b]))
            rval = st.q_star(cod + [img_a, img_b])
            if not (lhs - rval).is_zero():
                w = st.MapWitness(f"xi={tag}", (a, b), lhs, rval)
                return st.ConditionReport("jordan_condition", n, run, True,
                                          w)
    return st.ConditionReport("jordan_condition", n, run, False, None)


def _condition_subject(subject, zorn, zorn_peirce, m2, m2_peirce):
    """(phi, Peirce system on its domain) for a named condition subject."""
    u1 = zorn.basis_element(2)
    return {
        "zorn-rotation": lambda: (st.zorn_rotation_map(zorn), zorn_peirce),
        "rotation-patched": lambda: (st.patched_map(
            st.zorn_rotation_map(zorn), {u1: u1.scale(TWO)}), zorn_peirce),
        "matrix2-swap": lambda: (st.matrix_swap_conjugation(m2), m2_peirce),
        "matrix2-similarity": lambda: (_similarity(m2), m2_peirce),
    }[subject]()


@pytest.mark.parametrize("n", [2, 3, 4, 7])
@pytest.mark.parametrize("subject", ["zorn-rotation", "rotation-patched",
                                     "matrix2-swap", "matrix2-similarity"])
def test_condition_matches_the_prefix_reference(subject, n, zorn, zorn_peirce,
                                                m2, m2_peirce):
    phi, p = _condition_subject(subject, zorn, zorn_peirce, m2, m2_peirce)
    rep = st.check_jordan_condition(phi, p, n, 150, seed=4)
    assert rep == _reference_condition(phi, p, n, 150, 4)


@pytest.mark.parametrize("subject", ["zorn-rotation", "rotation-patched",
                                     "matrix2-swap"])
def test_condition_at_arity_two_decides_each_case_once(
        subject, zorn, zorn_peirce, m2, m2_peirce, monkeypatch):
    # at n = 2 the xi prefixes are empty, so the heads 1, e1 and e2 fold
    # the same q_2(a, b); one head gives the three-head report
    phi, p = _condition_subject(subject, zorn, zorn_peirce, m2, m2_peirce)
    want = _reference_condition(phi, p, 2, 150, 4)
    folded = set()          # ids of fold results, each kept alive in a memo
    fold, call = maps._q_cached, AlgebraMap.__call__

    def recorded(args, cache):
        out = fold(args, cache)
        folded.add(id(out))
        return out

    applied = []

    def counted(self, x):
        if id(x) in folded:
            applied.append(x)
        return call(self, x)

    monkeypatch.setattr(maps, "_q_cached", recorded)
    monkeypatch.setattr(AlgebraMap, "__call__", counted)
    rep = st.check_jordan_condition(phi, p, 2, 150, seed=4)
    assert rep == want
    # phi meets one folded left side per case, not one per head
    assert len(applied) == rep.samples_run


def test_condition_folds_each_step_once(zorn, zorn_peirce, monkeypatch):
    calls = []
    pair = st.jordan.jordan_star

    def counted(x, y):
        calls.append(1)
        return pair(x, y)

    monkeypatch.setattr(st.jordan, "jordan_star", counted)
    rep = st.check_jordan_condition(st.zorn_rotation_map(zorn), zorn_peirce,
                                    3, 100, seed=1)
    assert not rep.refuted and rep.samples_run == 100
    # one fold per side, xi and case makes 1200 steps; most of them recur
    assert len(calls) <= 200


def test_idempotent_image_witness_separates_its_sides(m2, m2_peirce):
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    phi = _similarity(m2)
    f = phi(m2_peirce.e1)
    assert f == e11 - e12 and f * f == f and f.star() != f
    w = st.check_star_ring_isomorphism(phi, m2_peirce, 10, seed=0).check(
        "idempotent_image_f1").witness
    # f is idempotent, so the failing law is f* = f
    assert w == st.MapWitness("idempotent_image_f1", (f,), f.star(), f)
    assert w.lhs != w.rhs
    # an image that is not idempotent keeps the witness f f != f
    f = st.scale_map(m2, TWO)(m2_peirce.e1)
    w = st.check_star_ring_isomorphism(st.scale_map(m2, TWO), m2_peirce, 10,
                                       seed=0).check("idempotent_image_f1"
                                                     ).witness
    assert w == st.MapWitness("idempotent_image_f1", (f,), f * f, f)
