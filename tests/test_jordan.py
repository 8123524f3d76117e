"""Left-nested *-product and the identity catalog.

The test oracle re-implements the defining recursion directly; closed
forms are anchored by hand-computed frozen values on M2 and Zorn.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as hst

import altstar as st
from altstar.formats import resolve_algebra
from altstar.jordan import (CATALOG, MAX_ARITY, _q_cached, catalog_entry,
                            collapse_prefix, jordan_star, q_star,
                            verify_identity)
from altstar.sampling import derive_rng, random_element
from altstar.scalars import I, ONE, Scalar, TWO, ZERO


def q_oracle(args):
    val = args[0]
    for x in args[1:]:
        val = x.algebra.multiply(val, x) + x.algebra.multiply(x, val.star())
    return val


def test_pair_product_frozen_values(m2):
    e11, e12, e21, e22 = m2.basis()
    assert jordan_star(e12, e12) == e11          # 0 + E12 E21
    assert jordan_star(e11, e12) == e12          # E12 + 0
    assert jordan_star(e11, e11) == e11.scale(TWO)
    assert jordan_star(m2.unit, m2.unit) == m2.unit.scale(TWO)
    assert jordan_star(e12.scale(I), e12) == e11.scale(-I)


def test_pair_product_frozen_values_zorn(zorn):
    e1, e2, u1, u2, u3, w1, w2, w3 = zorn.basis()
    assert jordan_star(u1, w1) == e1             # u1 w1 + w1 u1* = e1 + 0
    assert jordan_star(u1, u2) == w3             # u1 u2 + u2 w1 = w3 + 0
    assert jordan_star(e1, u1) == u1             # e1 u1 + u1 e1 = u1 + 0


def test_nested_product_matches_direct_recursion(m2, zorn):
    for a, tag in ((m2, "m2"), (zorn, "zorn")):
        rng = derive_rng(401, "q-oracle", tag)
        for n in range(1, 6):
            for _ in range(10):
                args = [random_element(a, rng) for _ in range(n)]
                assert q_star(args) == q_oracle(args)


def test_nested_product_argument_validation(m2, zorn):
    with pytest.raises(st.AlgebraError):
        q_star([])
    # arguments from different algebras fail at the first product
    for args in ([m2.unit, zorn.unit], [m2.unit, m2.unit, zorn.unit]):
        with pytest.raises(st.AlgebraError, match="mismatch in multiply"):
            q_star(args)


def _plain_fold(args):
    val = args[0]
    for x in args[1:]:
        val = jordan_star(val, x)
    return val


_SMALL = hst.builds(Scalar, hst.integers(-2, 2), hst.integers(-2, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=hst.data())
@pytest.mark.parametrize("spec", ["zorn", "matrix:2"])
def test_one_step_memo_serves_many_folds(spec, data):
    a, idem = resolve_algebra(spec)
    e1 = a.element(idem["e1"])
    # 1, 2 and e1 make steps recur: {1, 1} = 2 and {e1, e1} = 2 e1, so two
    # different prefixes can reach one value and share the next step
    pool = [a.unit, a.unit.scale(TWO), e1, e1.scale(TWO), a.unit - e1]
    pool += [a.element(data.draw(hst.lists(_SMALL, min_size=a.dim,
                                           max_size=a.dim)))
             for _ in range(2)]
    index = hst.integers(0, len(pool) - 1)
    folds = []
    for _ in range(data.draw(hst.integers(1, 8))):
        # about half the folds extend a prefix of an earlier one
        head = []
        if folds and data.draw(hst.booleans()):
            base = data.draw(hst.sampled_from(folds))
            head = base[:data.draw(hst.integers(1, len(base)))]
        size = data.draw(hst.integers(max(1, len(head)), 8))
        folds.append(head + data.draw(hst.lists(
            index, min_size=size - len(head), max_size=size - len(head))))
    memo: dict = {}
    for f in folds:
        args = [pool[k] for k in f]
        assert _q_cached(args, memo) == _plain_fold(args)
    # every memo entry is the step its key names
    for (val, x), step in memo.items():
        assert step == jordan_star(val, x)


def test_idempotent_slots_double(m2, zorn):
    for e in (m2.basis_element(0), m2.unit, zorn.basis_element(0),
              zorn.unit):
        for n in range(2, 9):
            assert q_star([e] * n) == e.scale(Scalar(2 ** (n - 1)))


def test_unit_bracketing_symmetrizes(m2, zorn):
    # q_n(1,...,1,a,1) = 2^(n-2) (a + a*)
    for a, tag in ((m2, "m2"), (zorn, "zorn")):
        rng = derive_rng(402, "symmetrize", tag)
        one = a.unit
        for n in range(2, 6):
            for _ in range(25):
                x = random_element(a, rng)
                args = [one] * (n - 2) + [x, one]
                want = (x + x.star()).scale(Scalar(2 ** (n - 2)))
                assert q_star(args) == want


def test_opposite_idempotent_prefix_annihilates(m2, zorn, m2_peirce,
                                                zorn_peirce):
    # q_n(e1,...,e1,e2,x) = 0 for n >= 3
    for p, tag in ((m2_peirce, "m2"), (zorn_peirce, "zorn")):
        rng = derive_rng(403, "annihilate", tag)
        a = p.algebra
        for n in range(3, 6):
            for _ in range(25):
                x = random_element(a, rng)
                args = [p.e1] * (n - 2) + [p.e2, x]
                assert q_star(args).is_zero()


def test_prefix_slots_are_not_annihilating_at_n2(m2_peirce):
    # q_2(e2, x) = e2 x + x e2 is generally nonzero, which is why the
    # annihilation pattern above starts at n = 3
    x = m2_peirce.algebra.basis_element(1)
    assert not q_star([m2_peirce.e2, x]).is_zero()


def test_collapse_prefix_normalizes_to_e(m2, zorn):
    for e in (m2.basis_element(0), zorn.basis_element(0)):
        for m in range(1, 6):
            args = collapse_prefix(e, m)
            assert len(args) == m
            assert q_star(args) == e
    with pytest.raises(st.AlgebraError):
        collapse_prefix(m2.basis_element(0), 0)


# -- multilinearity profile ---------------------------------------------------


def test_additive_in_every_slot(zorn):
    rng = derive_rng(404, "additivity")
    for n in range(2, 5):
        for _ in range(10):
            args = [random_element(zorn, rng) for _ in range(n)]
            extra = random_element(zorn, rng)
            for slot in range(n):
                bumped = list(args)
                bumped[slot] = args[slot] + extra
                alt = list(args)
                alt[slot] = extra
                assert q_star(bumped) == q_star(args) + q_star(alt)


def test_rational_homogeneous_in_every_slot(zorn):
    rng = derive_rng(405, "q-homog")
    c = Scalar(-3, 0, 2)
    for n in range(2, 5):
        args = [random_element(zorn, rng) for _ in range(n)]
        for slot in range(n):
            scaled = list(args)
            scaled[slot] = args[slot].scale(c)
            assert q_star(scaled) == q_star(args).scale(c)


def test_i_homogeneous_only_in_final_slot(m2):
    e11, e12, _, _ = m2.basis()
    # final slot: {x, i y} = x(iy) + (iy)x* is i-linear
    rng = derive_rng(406, "i-homog")
    for _ in range(20):
        x, y = random_element(m2, rng), random_element(m2, rng)
        assert q_star([x, y.scale(I)]) == q_star([x, y]).scale(I)
    # earlier slots pick up a conjugate: frozen counterexample
    assert q_star([e12.scale(I), e12]) == e11.scale(-I)
    assert q_star([e12, e12]).scale(I) == e11.scale(I)
    assert q_star([e12.scale(I), e12]) != q_star([e12, e12]).scale(I)


# -- catalog -------------------------------------------------------------------


def test_catalog_shape():
    ids = [e.entry_id for e in CATALOG]
    assert ids == ["ID-B", "ID-C", "ID-D", "ID-E", "ID-F", "ID-G", "ID-H",
                   "ID-I", "ID-J", "ID-K", "ID-L", "ID-M", "ID-N"]
    assert catalog_entry("ID-L").n_min == 3
    assert catalog_entry("ID-B").n_min == 2
    with pytest.raises(KeyError):
        catalog_entry("ID-A")


def test_display_defaults_to_derived():
    # None stands for the derived form
    own_display = {"ID-H", "ID-J", "ID-K", "ID-L"}
    for e in CATALOG:
        assert (e.display is None) == (e.entry_id not in own_display)
        assert e.display is None or callable(e.display)
    own_text = own_display | {"ID-F"}
    for e in CATALOG:
        assert (e.display_form is None) == (e.entry_id not in own_text)
        assert e.display_form != e.derived_form


def test_shared_display_form_is_evaluated_once(m2_peirce):
    base = catalog_entry("ID-B")
    calls = []

    def derived(p, v, n, f):
        calls.append(v)
        return base.derived(p, v, n, f)

    entry = st.IdentityEntry(
        entry_id="ID-B", pattern=base.pattern,
        derived_form=base.derived_form, notes=base.notes, n_min=base.n_min,
        variants=base.variants, frees=base.frees, args=base.args,
        derived=derived)
    assert entry.display is None and entry.display_form is None
    run = verify_identity(entry, m2_peirce, 3, 7, seed=2)
    assert run.derived_ok and run.verbatim_match
    assert len(calls) == 7 * len(base.live_variants(m2_peirce))
    assert run == verify_identity(base, m2_peirce, 3, 7, seed=2)


def test_failed_display_form_is_not_evaluated_again(zorn_peirce):
    # ID-L's displayed form fails on zorn; a display call after its first
    # counterexample could not change the run
    base = catalog_entry("ID-L")
    calls = []

    def display(p, v, n, f):
        calls.append((v, f))
        return base.display(p, v, n, f)

    entry = dataclasses.replace(base, display=display)
    run = verify_identity(entry, zorn_peirce, 3, 30, seed=11)
    assert run == verify_identity(base, zorn_peirce, 3, 30, seed=11)
    s = run.display_counterexample
    assert s is not None and run.samples == 30
    # the first draw refutes the display, and no later draw reaches it,
    # though the run still counts all 30 samples of both variants
    assert calls == [(s.variant, s.frees)]


def test_id_e_folds_its_inner_argument_through_the_run_memo(zorn_peirce,
                                                            monkeypatch):
    # D's collapsed e2 prefix is the outer prefix, so with the run's memo
    # it is folded once per run, not once per sample
    base = catalog_entry("ID-E")
    alone = dataclasses.replace(base, inner_fold=False)
    pairs = []
    pair = st.jordan.jordan_star

    def counted(x, y):
        pairs.append(None)
        return pair(x, y)

    monkeypatch.setattr(st.jordan, "jordan_star", counted)
    run = verify_identity(base, zorn_peirce, 7, 5, seed=1)
    shared = len(pairs)
    assert run == verify_identity(alone, zorn_peirce, 7, 5, seed=1)
    # n - 3 prefix steps of D were made again in each of the 5 samples
    assert len(pairs) - shared == shared + 5 * (7 - 3)


def test_run_below_minimum_arity_is_skipped(m2_peirce):
    run = verify_identity(catalog_entry("ID-K"), m2_peirce, 2, 10, seed=1)
    assert run.skipped is not None
    assert run.samples == 0


@pytest.mark.parametrize("samples", [0, -5])
def test_audit_refuses_a_run_without_samples(m2_peirce, samples):
    # the check comes first, so even an entry skipped at this n refuses
    with pytest.raises(st.AlgebraError, match="samples must be >= 1"):
        verify_identity(catalog_entry("ID-K"), m2_peirce, 2, samples, seed=1)
    with pytest.raises(st.AlgebraError, match="samples must be >= 1"):
        st.audit_catalog(m2_peirce, 2, 3, samples, seed=1)


def test_audit_bounds_the_arity_up_front(m2_peirce):
    with pytest.raises(st.AlgebraError, match=f"<= {MAX_ARITY}, got 65"):
        verify_identity(catalog_entry("ID-B"), m2_peirce, MAX_ARITY + 1, 1,
                        seed=1)
    # the audit refuses before its first entry runs, not at n = 65
    with pytest.raises(st.AlgebraError, match=f"n_max <= {MAX_ARITY}"):
        st.audit_catalog(m2_peirce, 2, MAX_ARITY + 1, 1, seed=1)


def _active_runs(rep):
    """(entry id, run) for each run of the audit that was not skipped."""
    return [(e.id, r) for e in rep.entries for r in e.runs
            if r.skipped is None]


def test_catalog_audit_on_m2(m2_peirce):
    rep = st.audit_catalog(m2_peirce, 2, 5, samples=30, seed=11)
    active = _active_runs(rep)
    assert all(r.derived_ok for _, r in active)
    assert rep.derived_all_ok
    false_ids = sorted({i for i, r in active if not r.verbatim_match})
    # ID-L's displayed factor drops a term that survives associatively
    assert false_ids == ["ID-L"]
    for i, r in active:
        if i == "ID-L":
            assert r.display_counterexample is not None


def test_catalog_audit_on_zorn(zorn_peirce):
    rep = st.audit_catalog(zorn_peirce, 2, 5, samples=30, seed=11)
    active = _active_runs(rep)
    assert all(r.derived_ok for _, r in active)
    false_ids = sorted({i for i, r in active if not r.verbatim_match})
    assert false_ids == ["ID-H", "ID-K", "ID-L"]
    true_ids = sorted({i for i, r in active if r.verbatim_match
                       and i not in false_ids})
    assert true_ids == ["ID-B", "ID-C", "ID-D", "ID-E", "ID-F", "ID-G",
                        "ID-I", "ID-J", "ID-M", "ID-N"]


def test_counterexample_reproduces(zorn_peirce):
    rep = st.audit_catalog(zorn_peirce, 3, 3, samples=30, seed=11)
    (run,) = next(e.runs for e in rep.entries if e.id == "ID-L")
    s = run.display_counterexample
    assert s is not None
    entry = catalog_entry("ID-L")
    lhs = q_star(entry.args(zorn_peirce, s.variant, 3, s.frees))
    rhs = entry.display(zorn_peirce, s.variant, 3, s.frees)
    assert lhs == s.lhs and rhs == s.rhs
    assert lhs - rhs == s.residual
    assert not s.residual.is_zero()
    # the derived form, in contrast, matches exactly
    assert entry.derived(zorn_peirce, s.variant, 3, s.frees) == lhs


def test_audit_deterministic(zorn_peirce):
    a = st.audit_catalog(zorn_peirce, 2, 4, samples=15, seed=9)
    b = st.audit_catalog(zorn_peirce, 2, 4, samples=15, seed=9)
    assert a == b


def test_audit_groups_the_runs_of_each_entry(m2_peirce):
    rep = st.audit_catalog(m2_peirce, 2, 4, samples=3, seed=5)
    assert [e.id for e in rep.entries] == [e.entry_id for e in CATALOG]
    for audit, entry in zip(rep.entries, CATALOG):
        assert audit.runs == tuple(verify_identity(entry, m2_peirce, n, 3, 5)
                                   for n in (2, 3, 4))
    # a run names no entry: EntryAudit.id is the one copy of the id
    assert [f.name for f in dataclasses.fields(st.EntryRun)] == [
        "n", "samples", "skipped", "derived_ok", "verbatim_match",
        "derived_counterexample", "display_counterexample"]


def test_audit_skips_missing_components(dsum_m2_m2):
    ds = dsum_m2_m2
    e1 = ds.element([ONE, ZERO, ZERO, ONE] + [ZERO] * 4)
    p = st.PeirceSystem(ds, e1)
    assert p.component_dims()[(1, 2)] == 0
    rep = st.audit_catalog(p, 2, 3, samples=5, seed=2)
    by_id = {e.id: e.runs for e in rep.entries}
    assert all(r.skipped for r in by_id["ID-C"])  # needs an A12 element
    active = _active_runs(rep)
    assert active and all(r.derived_ok for _, r in active)


_EACH_I, _EACH_IJ = ["i=1", "i=2"], ["i=1,j=2", "i=2,j=1"]
# every variant live: every Peirce component is nonzero
_ALL_LIVE = {"ID-B": _EACH_I, "ID-C": ["-"], "ID-D": ["-"], "ID-E": ["-"],
             "ID-F": ["-"], "ID-G": ["-"], "ID-H": _EACH_IJ, "ID-I": ["-"],
             "ID-J": _EACH_IJ, "ID-K": _EACH_IJ, "ID-L": _EACH_IJ,
             "ID-M": ["-"], "ID-N": _EACH_I}
# recorded from the per-entry variant functions the declared components
# replaced, with e1 the named idempotent of each spec
LIVE_VARIANTS = {
    "zorn": _ALL_LIVE,
    "matrix:2": _ALL_LIVE,
    # e1 is the left block unit, so A12 = A21 = 0
    "dsum:matrix:2,matrix:2": {
        k: (v if k in ("ID-B", "ID-F", "ID-I", "ID-M", "ID-N") else [])
        for k, v in _ALL_LIVE.items()},
}


@pytest.mark.parametrize("spec", sorted(LIVE_VARIANTS))
def test_live_variants_match_recorded_table(spec):
    a, idem = resolve_algebra(spec)
    p = st.PeirceSystem(a, a.element(idem["e1"]))
    live = {e.entry_id: e.live_variants(p) for e in CATALOG}
    assert live == LIVE_VARIANTS[spec]


def test_upper_triangular_star_is_refused_at_build():
    # E11, E12, E22 under the matrix product, star = entrywise conjugation:
    # star would map A12 to itself and leave A21 = 0, but it is no
    # anti-automorphism, so no Peirce system is built on it
    identity = [[ONE if r == c else ZERO for c in range(3)] for r in range(3)]
    structure = {(0, 0, 0): ONE, (0, 1, 1): ONE, (1, 2, 1): ONE,
                 (2, 2, 2): ONE}
    a = st.Algebra("ut2", 3, ["E11", "E12", "E22"], structure,
                   [ONE, ZERO, ONE], identity)
    with pytest.raises(st.PeirceError, match=re.escape(
            "the algebra fails anti_automorphism at (1*E11, 1*E12)")):
        st.PeirceSystem(a, a.basis_element(0))


# -- the one entry whose displayed factor fails associatively -----------------


def test_displayed_mismatch_is_real_even_associatively(m2):
    e11, e12, e21, e22 = m2.basis()
    # nested product with both free slots in A12
    got = q_star([e11, e12, e12])
    assert got == e11                       # = {_{e11,e12} = e12, e12}
    derived = (e12 * e12 + e12 * e12.star())          # a b + b a*, n = 3
    assert derived == e11
    displayed = (e12 * e12).scale(TWO)                # 2^(n-2) a b, n = 3
    assert displayed == m2.zero()
    assert got != displayed


def test_displayed_mismatch_scales_with_n(m2):
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    for n in range(3, 6):
        got = q_star([e11] * (n - 2) + [e12, e12])
        assert got == (e12 * e12 + e12 * e12.star()).scale(
            Scalar(2 ** (n - 3)))
        assert got == e11.scale(Scalar(2 ** (n - 3)))
