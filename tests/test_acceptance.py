"""End-to-end acceptance checks, one test per criterion.

Each test prints one CRITERION line; pytest -v additionally reports one
PASSED/FAILED/XFAIL line per criterion function.  Criterion 5 is split:
its attainable clauses pass, while the all-entries-verbatim-on-M2 clause
is pinned as a strict expected failure (see the ID-L catalog notes: the
displayed coefficient drops a product term that survives even in the
associative case, so no faithful implementation can satisfy it).
"""

import contextlib
import io
import json

import pytest

import altstar as st
from altstar.cli import main as cli_main
from altstar.jordan import q_star
from altstar.sampling import derive_rng, random_element
from altstar.scalars import MINUS_ONE, ONE, Scalar, TWO, ZERO

SEED = 20240813


def _line(criterion: str, ok: bool) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(args))
    return code, out.getvalue()


# -- 1: axiom suite -------------------------------------------------------------


def test_criterion_1_axiom_suite(m2, m3, zorn):
    ok = True
    for a in (m2, m3, zorn, st.cayley_dickson([MINUS_ONE]),
              st.cayley_dickson([MINUS_ONE] * 2),
              st.cayley_dickson([MINUS_ONE] * 3)):
        ok = ok and st.check_alternative(a).ok and st.check_involution(a).ok

    a16 = st.cayley_dickson([MINUS_ONE] * 4)
    rep1 = st.check_alternative(a16)
    rep2 = st.check_alternative(a16)
    ok = ok and not rep1.ok
    bad = next(c for c in rep1.checks if not c.passed)
    bad2 = rep2.check(bad.name)
    ok = ok and bad.witness is not None and bad.witness == bad2.witness
    x, y, z = bad.witness.args
    if bad.name == "left_alternative_linearized":
        residual = a16.associator(x, y, z) + a16.associator(y, x, z)
    else:
        residual = a16.associator(x, y, z) + a16.associator(x, z, y)
    ok = ok and residual == bad.witness.residual \
        and not residual.is_zero()
    _line("1 axiom suite", ok)


# -- 2: Peirce suite ------------------------------------------------------------


def test_criterion_2_peirce_suite(m2, zorn, m2_peirce, zorn_peirce):
    ok = True
    for p in (m2_peirce, zorn_peirce):
        rep = st.check_peirce_relations(p, 200, seed=SEED)
        ok = ok and rep.ok
        # compatibility of the two projection orders, checked explicitly
        rng = derive_rng(SEED, "compat", p.algebra.name)
        for _ in range(200):
            x = random_element(p.algebra, rng)
            for i in (1, 2):
                for j in (1, 2):
                    ei, ej = p.idempotent(i), p.idempotent(j)
                    ok = ok and (ei * x) * ej == ei * (x * ej)

    zrep = st.check_peirce_relations(zorn_peirce, 200, seed=SEED)
    w = zrep.offdiag_product_witness
    ok = ok and w is not None and not (w.args[0] * w.args[1]).is_zero()
    by_name = {c.name: c for c in zrep.checks}
    ok = ok and by_name["(iv) squares in A12 vanish"].passed
    ok = ok and by_name["(iv) squares in A21 vanish"].passed
    _line("2 Peirce suite", ok)


# -- 3: annihilator condition ----------------------------------------------------


def test_criterion_3_annihilator_suite(m2_peirce, m3_peirce, zorn_peirce,
                                       dsum_m2_m2):
    ok = True
    for p in (m2_peirce, m3_peirce, zorn_peirce):
        rep = st.spade_pair(p)
        ok = ok and rep.spade == {"e1": True, "e2": True} and rep.ok

    ds = dsum_m2_m2
    e = ds.element([ONE, ZERO, ZERO, ONE] + [ZERO] * 4)
    r = st.check_spade(st.PeirceSystem(ds, e), 1)
    ok = ok and not r.holds and r.witness is not None
    ok = ok and not r.witness.is_zero()
    for b in ds.basis():
        ok = ok and (r.witness * (b * e)).is_zero()
    _line("3 annihilator condition", ok)


# -- 4: nested-product closed forms ----------------------------------------------


def test_criterion_4_closed_forms(m2, zorn, m2_peirce, zorn_peirce):
    ok = True
    for e in (m2.basis_element(0), zorn.basis_element(0), m2.unit,
              zorn.unit):
        for n in range(2, 9):
            ok = ok and q_star([e] * n) == e.scale(Scalar(2 ** (n - 1)))

    for a in (m2, zorn):
        rng = derive_rng(SEED, "closed-forms", a.name)
        for n in range(2, 6):
            for _ in range(100):
                x = random_element(a, rng)
                got = q_star([a.unit] * (n - 2) + [x, a.unit])
                ok = ok and got == (x + x.star()).scale(
                    Scalar(2 ** (n - 2)))

    for p in (m2_peirce, zorn_peirce):
        rng = derive_rng(SEED, "annihilation", p.algebra.name)
        for n in range(3, 6):
            for _ in range(100):
                x = random_element(p.algebra, rng)
                ok = ok and q_star([p.e1] * (n - 2)
                                   + [p.e2, x]).is_zero()
    _line("4 closed forms", ok)


# -- 5: identity-catalog audit ----------------------------------------------------


@pytest.fixture(scope="module")
def m2_audit(m2_peirce):
    return st.audit_catalog(m2_peirce, 2, 5, samples=100, seed=SEED)


@pytest.fixture(scope="module")
def zorn_audit(zorn_peirce):
    return st.audit_catalog(zorn_peirce, 2, 5, samples=100, seed=SEED)


def test_criterion_5_derived_forms_exact_and_zorn_flags(m2_audit,
                                                        zorn_audit):
    ok = True
    for rep in (m2_audit, zorn_audit):
        active = [(e.id, r) for e in rep.entries for r in e.runs
                  if r.skipped is None]
        covered = {entry_id for entry_id, _ in active}
        ok = ok and covered == {e.entry_id for e in st.CATALOG}
        ok = ok and all(r.derived_ok for _, r in active) \
            and rep.derived_all_ok

    flagged = [r for e in zorn_audit.entries for r in e.runs
               if r.skipped is None and not r.verbatim_match]
    ok = ok and bool(flagged)
    sample = flagged[0].display_counterexample
    ok = ok and sample is not None and not sample.residual.is_zero()
    ok = ok and sample.lhs - sample.rhs == sample.residual
    _line("5 catalog derived forms + flags", ok)


@pytest.mark.xfail(
    strict=True,
    reason="ID-L: the displayed coefficient 2^(n-2) a b drops the b a* "
           "term, which is nonzero even under associative collapse "
           "(E11, E12, E12 gives E11, not 0); the faithful audit "
           "therefore cannot mark every entry verbatim on matrix:2")
def test_criterion_5_verbatim_all_true_on_m2(m2_audit):
    active = [r for e in m2_audit.entries for r in e.runs
              if r.skipped is None]
    ok = all(r.verbatim_match for r in active)
    _line("5 catalog verbatim on matrix:2", ok)


# -- 6: map harness positives ------------------------------------------------------


def test_criterion_6_map_positives(m2, zorn, m2_peirce, zorn_peirce):
    ok = True
    subjects = [(st.identity_map(zorn), zorn_peirce),
                (st.zorn_rotation_map(zorn), zorn_peirce),
                (st.matrix_swap_conjugation(m2), m2_peirce)]
    for phi, p in subjects:
        ok = ok and st.check_unital(phi)
        for n in (2, 3):
            rep = st.check_jordan_condition(phi, p, n, 500, seed=SEED)
            ok = ok and not rep.refuted and rep.samples_run == 500
        iso = st.check_star_ring_isomorphism(phi, p, 500, seed=SEED)
        ok = ok and iso.ok
    _line("6 map harness positives", ok)


# -- 7: map harness negative -------------------------------------------------------


def test_criterion_7_map_negative(zorn, zorn_peirce):
    u1 = zorn.basis_element(2)
    phi = st.patched_map(st.identity_map(zorn), {u1: u1.scale(TWO)},
                         name="patched-double")
    rep = st.check_jordan_condition(phi, zorn_peirce, 3, 500, seed=SEED)
    ok = rep.refuted and rep.witness is not None
    ok = ok and rep.samples_run <= 500
    a, b = rep.witness.inputs
    xi = {"1": zorn.unit, "e1": zorn_peirce.e1, "e2": zorn_peirce.e2}[
        rep.witness.kind.split("=", 1)[1]]
    lhs = phi(q_star([xi, a, b]))
    rhs = q_star([phi(xi), phi(a), phi(b)])
    ok = ok and lhs == rep.witness.lhs and rhs == rep.witness.rhs
    ok = ok and lhs != rhs
    _line("7 map harness negative", ok)


# -- 8: report determinism ---------------------------------------------------------


def test_criterion_8_byte_identical_reports(tmp_path, zorn):
    ok = True
    peirce_args = ["peirce", "zorn", "--samples", "200",
                   "--seed", str(SEED)]
    lemmas_args = ["lemmas", "zorn", "--e1", "e1", "--n-min", "2",
                   "--n-max", "5", "--samples", "100", "--seed", str(SEED)]
    lemmas_m2_args = ["lemmas", "matrix:2", "--e1", "e1", "--n-min", "2",
                      "--n-max", "5", "--samples", "100",
                      "--seed", str(SEED)]
    rot = st.zorn_rotation_map(zorn)
    map_path = str(tmp_path / "rot.map")
    with open(map_path, "w", encoding="utf-8") as fh:
        fh.write(st.canonical_json(st.map_to_dict(rot, "zorn", "zorn")))
    map_args = ["mapcheck", map_path, "--n", "3", "--samples", "500",
                "--seed", str(SEED)]

    for args in (peirce_args, lemmas_args, lemmas_m2_args, map_args):
        code1, out1 = _cli(args)
        code2, out2 = _cli(args)
        ok = ok and code1 == code2 and out1 == out2 and out1
        doc = json.loads(out1)
        ok = ok and isinstance(doc, dict)
    _line("8 byte-identical reports", bool(ok))
