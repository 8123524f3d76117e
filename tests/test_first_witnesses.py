"""The one first-witness scan and the loops it replaced.

``algebra.first_witnesses`` serves the axiom laws, the Peirce relations,
the identity catalog and the map conditions.  Its contract is checked on
cases that record what is taken and run.  The loops that the Peirce
relations, the catalog and the map conditions owned before are kept here as
the reference: each harness gives the same report as its old loop, on
zorn, matrix:3, zorn after a change of basis, the seeded patched zorn
rotation and an upper-triangular algebra whose relations fail.
"""

import itertools

import pytest

import altstar as st
from altstar.algebra import Algebra, CheckResult, Witness, first_witnesses
from altstar.formats import load_map_file
from altstar.jordan import CATALOG, EntryRun, IdentitySample, _draw, _q_cached
from altstar.maps import ConditionReport, MapWitness, _pairs, sample_pool
from altstar.peirce import (IJ_PAIRS, PeirceRelationsReport, _RELATIONS,
                            component_of, peirce_decompose, random_component)
from altstar.sampling import derive_rng
from altstar.scalars import ONE
from test_jordan import _upper_triangular

# -- the contract ------------------------------------------------------------


def _recorded(cases, taken):
    for c in cases:
        taken.append(c)
        yield c


def _law(fires_at, calls, name):
    """A law that records each case it runs and fires on the cases in
    fires_at, with the witness (name, case)."""
    def law(case):
        calls.append((name, case))
        return (name, case) if case in fires_at else None
    return law


def test_each_law_reports_its_run_and_first_witness():
    calls = []
    laws = {"a": _law({3, 5}, calls, "a"), "b": _law({1}, calls, "b"),
            "never": _law(set(), calls, "never")}
    taken = []
    found = first_witnesses(_recorded(range(7), taken), laws)
    assert found == {"a": (4, ("a", 3)), "b": (2, ("b", 1)),
                     "never": (7, None)}
    assert list(found) == ["a", "b", "never"]
    assert taken == list(range(7))
    # a law with a witness is not run again, and a case runs the others in
    # the order of the mapping
    assert calls[:6] == [("a", 0), ("b", 0), ("never", 0),
                         ("a", 1), ("b", 1), ("never", 1)]
    assert [c for n, c in calls if n == "a"] == [0, 1, 2, 3]
    assert [c for n, c in calls if n == "b"] == [0, 1]
    assert [c for n, c in calls if n == "never"] == list(range(7))


def test_no_case_is_taken_once_every_law_has_a_witness():
    calls, taken = [], []
    found = first_witnesses(
        _recorded(range(100), taken),
        {"a": _law({2}, calls, "a"), "b": _law({4, 9}, calls, "b")})
    assert found == {"a": (3, ("a", 2)), "b": (5, ("b", 4))}
    assert taken == [0, 1, 2, 3, 4]


def test_laws_that_never_fire_count_every_case():
    calls = []
    found = first_witnesses(iter([10, 20, 30]),
                            {"x": _law(set(), calls, "x")})
    assert found == {"x": (3, None)}
    assert first_witnesses([], {"x": _law({1}, calls, "x")}) \
        == {"x": (0, None)}


def test_no_laws_take_no_case():
    taken = []
    assert first_witnesses(_recorded(range(3), taken), {}) == {}
    assert taken == []


# -- the loops the harnesses owned before -------------------------------------


def _reference_peirce_relations(p, samples, seed):
    """check_peirce_relations as one loop over samples and relations."""
    offdiag = (((1, 2), 0), ((1, 2), 1))
    dims = p.component_dims()
    live = [(name, x, y, target) for name, x, y, target in _RELATIONS
            if dims[x[0]] and (y is None or dims[y[0]])]
    failures = {}
    offdiag_witness = None
    for s in range(samples):
        rng = derive_rng(seed, "peirce", s)
        draws = {}
        for ij in IJ_PAIRS:
            if dims[ij]:
                draws[ij, 0] = random_component(p, ij, rng)
                draws[ij, 1] = random_component(p, ij, rng)
        for name, x, y, target in live:
            if y is None:
                args, value = (draws[x],), draws[x].star()
            else:
                args = (draws[x], draws[y])
                value = args[0] * args[1]
                if (x, y) == offdiag and offdiag_witness is None \
                        and not value.is_zero():
                    offdiag_witness = Witness(args, value)
            if target is not None:
                value = value - p.project(value, target)
            if name not in failures and not value.is_zero():
                failures[name] = Witness(args, value)
    checks = tuple(CheckResult(name, name not in failures, failures.get(name))
                   for name, *_ in _RELATIONS)
    return PeirceRelationsReport(checks, offdiag_witness)


def _reference_verify_identity(entry, p, n, samples, seed):
    """verify_identity as one loop over samples and variants."""
    if n < entry.n_min:
        return EntryRun(n, 0, f"requires n >= {entry.n_min}", True, True,
                        None, None)
    variants = entry.live_variants(p)
    if not variants:
        return EntryRun(n, 0, "required Peirce component is zero-dimensional",
                        True, True, None, None)
    cache = {}
    derived_bad = display_bad = None
    shared = entry.display is None
    for s, v in itertools.product(range(samples), variants):
        if derived_bad is not None and display_bad is not None:
            break
        frees = _draw(p, entry, v, derive_rng(seed, entry.entry_id, n, v, s))
        lhs = _q_cached(entry.args(p, v, n, frees), cache)
        if derived_bad is None:
            want = entry.derived(p, v, n, frees)
            if lhs != want:
                derived_bad = IdentitySample(v, frees, lhs, want, lhs - want)
                if shared:
                    display_bad = derived_bad
        if display_bad is None and not shared:
            shown = entry.display(p, v, n, frees)
            if lhs != shown:
                display_bad = IdentitySample(v, frees, lhs, shown,
                                             lhs - shown)
    return EntryRun(n, samples, None, derived_bad is None, display_bad is None,
                    derived_bad, display_bad)


def _first_refutation(check, n, cases, law):
    """One law over its own cases; the first witness refutes the map."""
    run = 0
    for case in cases:
        run += 1
        w = law(*case)
        if w is not None:
            return ConditionReport(check, n, run, True, w)
    return ConditionReport(check, n, run, False, None)


def _reference_jordan_condition(phi, p, n, samples, seed):
    pool = sample_pool(phi, p, max(16, min(samples, 64)), seed)
    memo = {}
    heads = [(tag, [xi] * (n - 2), [phi(xi)] * (n - 2))
             for tag, xi in (("1", phi.domain.unit), ("e1", p.e1),
                             ("e2", p.e2))]

    def law(a, b):
        img_a, img_b = phi(a), phi(b)
        for tag, dom, cod in heads:
            lhs = phi(_q_cached(dom + [a, b], memo))
            rval = _q_cached(cod + [img_a, img_b], memo)
            if not (lhs - rval).is_zero():
                return MapWitness(f"xi={tag}", (a, b), lhs, rval)
        return None

    return _first_refutation("jordan_condition", n,
                             _pairs(pool, samples, seed), law)


def _reference_scanned_isomorphism_checks(phi, p, samples, seed):
    """The checks of check_star_ring_isomorphism that scan cases, each law
    over its own stream of pairs."""
    pool = sample_pool(phi, p, max(16, min(samples, 64)), seed)
    sides = {
        "additivity": lambda a, b: ((a, b), phi(a + b), phi(a) + phi(b)),
        "multiplicativity": lambda a, b: ((a, b), phi(a * b),
                                          phi(a) * phi(b)),
        "star_preservation": lambda a, b: ((a,), phi(a.star()),
                                           phi(a).star()),
    }

    def equation(check):
        def law(a, b):
            w = MapWitness(check, *sides[check](a, b))
            return None if (w.lhs - w.rhs).is_zero() else w
        return law

    reports = {check: _first_refutation(check, None,
                                        _pairs(pool, samples, seed),
                                        equation(check))
               for check in sides}
    f1 = phi(p.e1)
    infos = [st.classify_idempotent(phi.codomain, f) for f in (f1, phi(p.e2))]
    if not all(i.is_idempotent and i.is_symmetric for i in infos) \
            or infos[0].is_trivial:
        return reports
    cod_p = st.PeirceSystem(phi.codomain, f1)
    dims = p.component_dims()

    def blocks():
        for s in range(samples):
            rng = derive_rng(seed, "blocks", s)
            for ij in IJ_PAIRS:
                if dims[ij]:
                    yield random_component(p, ij, rng), ij

    def block(x, ij):
        img = phi(x)
        if component_of(cod_p, img, ij):
            return None
        split = peirce_decompose(cod_p, img)
        bad = next(split[kl] for kl in IJ_PAIRS
                   if kl != ij and not split[kl].is_zero())
        return MapWitness(f"peirce_block_{ij[0]}{ij[1]}", (x,), img,
                          img - bad)

    reports["peirce_blocks"] = _first_refutation("peirce_blocks", None,
                                                 blocks(), block)
    return reports


# -- the harnesses against them -----------------------------------------------


@pytest.fixture(scope="module")
def systems(zorn_peirce, m3_peirce, zorn_transported):
    return {"zorn": zorn_peirce, "matrix:3": m3_peirce,
            "zorn~": st.PeirceSystem(
                zorn_transported,
                st.find_symmetric_idempotents(zorn_transported)[0]),
            "ut2": _upper_triangular()}


SYSTEMS = ["zorn", "matrix:3", "zorn~", "ut2"]


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("seed", [0, 1])
def test_peirce_relations_match_the_loop(name, seed, systems):
    p = systems[name]
    rep = st.check_peirce_relations(p, 12, seed)
    assert rep == _reference_peirce_relations(p, 12, seed)
    if name == "ut2":
        # star maps A12 to itself, not into A21 = 0
        assert [c.name for c in rep.checks if not c.passed] \
            == ["(v) star(A12) in A21"]
    if name in ("zorn", "zorn~"):
        assert rep.offdiag_product_witness is not None


def _count_products(monkeypatch):
    calls = []
    original = Algebra.multiply

    def counted(self, x, y):
        calls.append(None)
        return original(self, x, y)

    monkeypatch.setattr(Algebra, "multiply", counted)
    return calls


@pytest.mark.parametrize("name", SYSTEMS)
def test_peirce_relations_make_no_more_products_than_the_loop(
        name, systems, monkeypatch):
    # the off-diagonal witness reuses the A12*A12 product of its case
    p = systems[name]
    calls = _count_products(monkeypatch)
    st.check_peirce_relations(p, 12, 0)
    made = len(calls)
    calls.clear()
    _reference_peirce_relations(p, 12, 0)
    assert made <= len(calls)


@pytest.mark.parametrize("name", SYSTEMS)
def test_catalog_runs_match_the_loop(name, systems, monkeypatch):
    p = systems[name]
    calls = _count_products(monkeypatch)
    runs = [st.verify_identity(entry, p, n, 4, 3)
            for entry in CATALOG for n in (2, 3, 4)]
    made = len(calls)
    calls.clear()
    assert runs == [_reference_verify_identity(entry, p, n, 4, 3)
                    for entry in CATALOG for n in (2, 3, 4)]
    assert made == len(calls)
    if name == "zorn":
        assert not all(r.verbatim_match for r in runs)


def _maps(systems, load_perfbench, tmp_path):
    """(map, domain Peirce system) for each subject."""
    zorn, m3 = systems["zorn"].algebra, systems["matrix:3"].algebra
    e11 = m3.basis_element(0)
    subjects = [
        (st.zorn_rotation_map(zorn), systems["zorn"]),
        (st.identity_map(m3), systems["matrix:3"]),
        (st.patched_map(st.identity_map(m3),
                        {e11.scale(ONE + ONE): e11.scale(ONE + ONE + ONE)}),
         systems["matrix:3"]),
        (st.identity_map(systems["zorn~"].algebra), systems["zorn~"]),
        (st.conjugation_map(systems["ut2"].algebra), systems["ut2"]),
    ]
    workloads = load_perfbench("workloads", "workloads.py")
    for seed in (1, 7919):
        for job in workloads.build("falsify", seed, str(tmp_path)):
            if job.argv[0] == "mapcheck" and "patched" in job.argv[1]:
                phi, _ = load_map_file(job.argv[1])
                subjects.append((phi, st.PeirceSystem(
                    phi.domain, phi.domain.basis_element(0))))
    return subjects


@pytest.mark.parametrize("samples,seed", [(40, 0), (150, 2)])
def test_map_conditions_match_the_per_law_scans(samples, seed, systems,
                                                load_perfbench, tmp_path):
    refuted = set()
    for phi, p in _maps(systems, load_perfbench, tmp_path):
        cond = st.check_jordan_condition(phi, p, 3, samples, seed)
        assert cond == _reference_jordan_condition(phi, p, 3, samples, seed)
        checks = {c.check: c for c in st.check_star_ring_isomorphism(
            phi, p, samples, seed).checks}
        for check, ref in _reference_scanned_isomorphism_checks(
                phi, p, samples, seed).items():
            assert checks[check] == ref, (phi.name, check)
            if ref.refuted:
                refuted.add(check)
        if cond.refuted:
            refuted.add("jordan_condition")
    # the seeded patched rotations and the patched identity refute laws of
    # both kinds
    assert {"jordan_condition", "additivity",
            "multiplicativity"} <= refuted


def test_one_pass_counts_each_law_up_to_its_own_witness(systems):
    zorn = systems["zorn"].algebra
    u1 = zorn.basis_element(2)
    phi = st.patched_map(st.identity_map(zorn), {u1: u1.scale(ONE + ONE)})
    checks = {c.check: c for c in st.check_star_ring_isomorphism(
        phi, systems["zorn"], 30, 0).checks}
    # the patch point u1 heads the pool, followed by 1, e1, e2, e1/2 and
    # e2/2.  At (u1, u1): phi(2 u1) = 2 u1 but phi(u1) + phi(u1) = 4 u1,
    # and phi(u1*) = w1 but phi(u1)* = 2 w1.  Products agree until
    # (u1, e2/2): phi(u1 e2/2) = u1/2 but phi(u1) phi(e2/2) = u1
    assert [(checks[c].samples_run, checks[c].refuted)
            for c in ("additivity", "multiplicativity", "star_preservation")
            ] == [(1, True), (6, True), (1, True)]
    assert checks["multiplicativity"].witness.inputs \
        == (u1, systems["zorn"].e2.scale(st.half_power(1)))
    # no block law fires: every case of the 30 samples runs
    assert (checks["peirce_blocks"].samples_run,
            checks["peirce_blocks"].refuted) == (30 * 4, False)
