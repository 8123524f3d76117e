"""Core algebra engine tested against an independent matrix-arithmetic
oracle: elements of matrix_algebra(k) are mapped to k x k grids of
(re, im) Fraction pairs and multiplied with schoolbook complex arithmetic."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as hst

import altstar as st
import altstar.algebra as algebra_module
from altstar.algebra import (AxiomReport, CheckResult, Algebra, Witness,
                             check_axioms)
from altstar.sampling import derive_rng, random_element
from altstar.scalars import I, MINUS_ONE, ONE, Scalar, TWO, ZERO

# -- oracle ------------------------------------------------------------------


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def to_grid(x, k):
    return [[(x.coords[p * k + q].re, x.coords[p * k + q].im)
             for q in range(k)] for p in range(k)]


def grid_mul(a, b, k):
    zero = (Fraction(0), Fraction(0))
    out = [[zero for _ in range(k)] for _ in range(k)]
    for p in range(k):
        for q in range(k):
            acc = zero
            for r in range(k):
                acc = c_add(acc, c_mul(a[p][r], b[r][q]))
            out[p][q] = acc
    return out


def grid_conj_transpose(a, k):
    return [[(a[q][p][0], -a[q][p][1]) for q in range(k)] for p in range(k)]


@pytest.mark.parametrize("k", [2, 3])
def test_matrix_product_matches_oracle(k):
    a = st.matrix_algebra(k)
    rng = derive_rng(101, "matrix-oracle", k)
    for _ in range(40):
        x = random_element(a, rng)
        y = random_element(a, rng)
        got = to_grid(x * y, k)
        want = grid_mul(to_grid(x, k), to_grid(y, k), k)
        assert got == want


@pytest.mark.parametrize("k", [2, 3])
def test_matrix_star_is_conjugate_transpose(k):
    a = st.matrix_algebra(k)
    rng = derive_rng(102, "star-oracle", k)
    for _ in range(40):
        x = random_element(a, rng)
        assert to_grid(x.star(), k) == grid_conj_transpose(to_grid(x, k), k)


@pytest.mark.parametrize("k", [2, 3])
def test_matrix_algebra_is_associative(k):
    a = st.matrix_algebra(k)
    rng = derive_rng(103, "assoc", k)
    for _ in range(25):
        x, y, z = (random_element(a, rng) for _ in range(3))
        assert a.associator(x, y, z).is_zero()


def test_unit_and_basis(m2):
    for b in m2.basis():
        assert m2.unit * b == b
        assert b * m2.unit == b
    assert m2.basis_element(1).coords == (ZERO, ONE, ZERO, ZERO)
    assert m2.zero().is_zero()


def test_element_vector_operations(m2):
    e11, e12 = m2.basis_element(0), m2.basis_element(1)
    x = e11 + e12.scale(TWO)
    assert x.coords == (ONE, TWO, ZERO, ZERO)
    assert (-x + x).is_zero()
    assert (x - e11).coords == (ZERO, TWO, ZERO, ZERO)
    assert x.scale(I).coords == (I, I * TWO, ZERO, ZERO)


def test_frozen_m2_products(m2):
    e11, e12, e21, e22 = m2.basis()
    assert e12 * e21 == e11
    assert e21 * e12 == e22
    assert e12 * e12 == m2.zero()
    assert e11 * e12 == e12
    assert e12 * e22 == e12
    assert e12.star() == e21
    assert e11.star() == e11
    assert e11.scale(I).star() == e11.scale(I.conj())


def test_structure_constant_access(m2):
    entries = {(i, j, k): c for i, j, k, c in m2.structure_entries()}
    assert entries[(1, 2, 0)] == ONE  # E12 E21 = E11
    assert (1, 1, 0) not in entries   # E12 E12 = 0 is not listed
    assert set(entries.values()) == {ONE}
    assert (2, 1, 3) in entries and len(entries) == 8


def test_cross_algebra_operations_rejected(m2, m3):
    with pytest.raises(st.AlgebraError):
        m2.unit * m3.unit
    with pytest.raises(st.AlgebraError):
        m2.unit + m3.unit
    with pytest.raises(st.AlgebraError):
        m3.multiply(m2.unit, m3.unit)


def test_axiom_reports_pass_on_m2(m2):
    rep = check_axioms(m2)
    assert rep.ok
    names = {c.name for c in rep.checks}
    assert {"left_alternative_linearized", "right_alternative_linearized",
            "flexible_linearized", "two_sided_unit", "involutive",
            "unit_fixed", "anti_automorphism"} <= names
    assert all(c.witness is None for c in rep.checks)


def _bad_unit():
    return Algebra("bad-unit", 1, ["b"], {(0, 0, 0): ONE}, [TWO], [[ONE]])


def _bad_star():
    # star matrix [[1,1],[0,1]] squares to [[1,2],[0,1]] != identity
    return Algebra("bad-star", 2, ["u", "v"],
                   {(0, 0, 0): ONE, (0, 1, 1): ONE, (1, 0, 1): ONE},
                   [ONE, ZERO], [[ONE, ONE], [ZERO, ONE]])


def test_bad_unit_detected_with_witness():
    rep = st.check_unit(_bad_unit())
    assert not rep.ok
    w = rep.check("two_sided_unit").witness
    assert w is not None
    assert not w.residual.is_zero()


def test_non_involutive_star_detected():
    rep = st.check_involution(_bad_star())
    assert not rep.check("involutive").passed


def test_non_alternative_structure_detected():
    # u*u = v, u*v = u, v*v = 0: (u u) u = v u = 0 but u (u u) = u v = u
    a = Algebra("non-alt", 3, ["e", "u", "v"],
                {(0, 0, 0): ONE, (0, 1, 1): ONE, (1, 0, 1): ONE,
                 (0, 2, 2): ONE, (2, 0, 2): ONE,
                 (1, 1, 2): ONE, (1, 2, 1): ONE},
                [ONE, ZERO, ZERO],
                [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]])
    rep = st.check_alternative(a)
    assert not rep.ok
    w = next(c.witness for c in rep.checks if not c.passed)
    assert not w.residual.is_zero()


def test_witness_residual_reproducible_on_sedenions():
    a = st.cayley_dickson([MINUS_ONE] * 4)
    rep = st.check_alternative(a)
    assert not rep.ok
    c = rep.check("left_alternative_linearized")
    assert not c.passed
    x, y, z = c.witness.args
    again = a.associator(x, y, z) + a.associator(y, x, z)
    assert again == c.witness.residual
    assert not again.is_zero()


def _separate_scans(a):
    """Reference: one scan over the basis triples per linearized law."""
    assoc = a.associator
    laws = (
        ("left_alternative_linearized",
         lambda x, y, z: assoc(x, y, z) + assoc(y, x, z)),
        ("right_alternative_linearized",
         lambda x, y, z: assoc(x, y, z) + assoc(x, z, y)),
        ("flexible_linearized",
         lambda x, y, z: assoc(x, y, z) + assoc(z, y, x)),
    )
    out = {}
    for name, law in laws:
        out[name] = None
        for t in itertools.product(a.basis(), repeat=3):
            r = law(*t)
            if not r.is_zero():
                out[name] = Witness(t, r)
                break
    return out


@pytest.mark.parametrize("spec", ["cd:-1,-1,-1,-1", "zorn", "matrix:2",
                                  "zorn~"])
def test_one_scan_matches_separate_scans(spec, zorn_transported):
    a = zorn_transported if spec == "zorn~" else st.resolve_algebra(spec)[0]
    rep = st.check_alternative(a)
    ref = _separate_scans(a)
    assert [c.name for c in rep.checks] == list(ref)
    for c in rep.checks:
        assert c.witness == ref[c.name], c.name
        assert c.passed == (ref[c.name] is None)
    # the sedenions are flexible but neither left nor right alternative
    if spec.startswith("cd"):
        assert [c.passed for c in rep.checks] == [False, False, True]


def test_validation_errors():
    with pytest.raises(st.AlgebraError):
        Algebra("x", 0, [], {}, [], [])
    with pytest.raises(st.AlgebraError):
        Algebra("x", 2, ["a", "a"], {}, [ONE, ZERO],
                [[ONE, ZERO], [ZERO, ONE]])
    with pytest.raises(st.AlgebraError):
        Algebra("x", 1, ["a"], {(0, 0, 5): ONE}, [ONE], [[ONE]])
    with pytest.raises(st.AlgebraError):
        Algebra("x", 1, ["a"], {(0, 0, 0): ONE}, [ONE], [[ONE, ZERO]])


def test_element_repr_uses_labels(m2):
    x = m2.basis_element(0) + m2.basis_element(3).scale(Scalar(0, 1, 2))
    assert repr(x) == "1*E11 + 0+1/2i*E22"
    assert repr(m2.zero()) == "0"


def _reference_unit(a):
    """Reference: the hand-written unit scan, u b then b u per basis b."""
    w = None
    for b in a.basis():
        left = a.unit * b - b
        if not left.is_zero():
            w = Witness((a.unit, b), left)
            break
        right = b * a.unit - b
        if not right.is_zero():
            w = Witness((b, a.unit), right)
            break
    return {"two_sided_unit": w}


def _reference_involution(a):
    """Reference: one hand-written scan per involution law."""
    basis = a.basis()
    out = {"involutive": None}
    for b in basis:
        r = b.star().star() - b
        if not r.is_zero():
            out["involutive"] = Witness((b,), r)
            break
    r = a.unit.star() - a.unit
    out["unit_fixed"] = None if r.is_zero() else Witness((a.unit,), r)
    out["anti_automorphism"] = None
    for x in basis:
        for y in basis:
            r = (x * y).star() - y.star() * x.star()
            if not r.is_zero():
                out["anti_automorphism"] = Witness((x, y), r)
                break
        if out["anti_automorphism"] is not None:
            break
    return out


def _right_unit_fails_first():
    # u = b0 with b0 b1 = b1 but b1 b0 = 0, and b0 b2 = 0: the unit law
    # fails on the right at b1 before it fails on the left at b2
    eye = [[ONE if r == c else ZERO for c in range(3)] for r in range(3)]
    return Algebra("right-unit-fails", 3, ["b0", "b1", "b2"],
                   {(0, 0, 0): ONE, (0, 1, 1): ONE}, [ONE, ZERO, ZERO], eye)


@pytest.mark.parametrize("spec", ["zorn", "matrix:2", "cd:-1,-1,-1,-1",
                                  "zorn~", "bad-unit", "bad-star",
                                  "right-unit-fails"])
def test_axiom_scans_match_hand_written_loops(spec, zorn_transported):
    a = {"zorn~": lambda: zorn_transported, "bad-unit": _bad_unit,
         "bad-star": _bad_star, "right-unit-fails": _right_unit_fails_first,
         }.get(spec, lambda: st.resolve_algebra(spec)[0])()
    for check, reference in ((st.check_unit, _reference_unit),
                             (st.check_involution, _reference_involution)):
        rep = check(a)
        ref = reference(a)
        assert [c.name for c in rep.checks] == list(ref)
        for c in rep.checks:
            assert c.witness == ref[c.name], c.name
            assert c.passed == (ref[c.name] is None)
    if spec == "right-unit-fails":
        _, b1, _ = a.basis()
        assert st.check_unit(a).check("two_sided_unit").witness \
            == Witness((b1, a.unit), -b1)


# -- scans over tables made once ----------------------------------------------


def _partner_loop(a):
    """Reference: one scan over all basis triples in product order, where
    each law adds the associator of its own permutation of the triple."""
    partners = (("left_alternative_linearized", (1, 0, 2)),
                ("right_alternative_linearized", (0, 2, 1)),
                ("flexible_linearized", (2, 1, 0)))
    found = {}
    for t in itertools.product(a.basis(), repeat=3):
        if len(found) == len(partners):
            break
        base = a.associator(*t)
        for name, perm in partners:
            if name not in found:
                r = base + a.associator(*(t[k] for k in perm))
                if not r.is_zero():
                    found[name] = Witness(t, r)
    return AxiomReport(tuple(
        CheckResult(name, name not in found, found.get(name))
        for name, _ in partners))


def _element_path_involution(a):
    """Reference: the involution laws with every star remade per case."""
    ref = _reference_involution(a)
    return AxiomReport(tuple(CheckResult(name, w is None, w)
                             for name, w in ref.items()))


def _assert_scans_match_references(a):
    alt, inv = st.check_alternative(a), st.check_involution(a)
    assert alt == _partner_loop(a)
    assert inv == _element_path_involution(a)
    return alt, inv


def _unimodular(dim):
    """A fixed dense unit-lower times unit-upper matrix with entries from
    {-1, 0, 1} + {-1, 0, 1} i, so every new basis vector mixes old ones."""
    def entry(r, c):
        return Scalar((r + 2 * c) % 3 - 1, (2 * r + c) % 3 - 1)

    lower = [[ONE if r == c else entry(r, c) if r > c else ZERO
              for c in range(dim)] for r in range(dim)]
    upper = [[ONE if r == c else entry(c, r) if r < c else ZERO
              for c in range(dim)] for r in range(dim)]
    return [[sum((lower[r][t] * upper[t][c] for t in range(dim)), ZERO)
             for c in range(dim)] for r in range(dim)]


def _dense(spec):
    a = st.resolve_algebra(spec)[0]
    return st.change_of_basis(a, _unimodular(a.dim), name=f"{spec}~")


def _widened_basis(dim, f):
    """_unimodular(dim) with its last column scaled by the integer f:
    moved to it, an algebra's tensor numerators carry up to about three
    times the bits of f."""
    return [row[:-1] + [row[-1] * Scalar(f)] for row in _unimodular(dim)]


def _widened(spec, f):
    a = st.resolve_algebra(spec)[0]
    return st.change_of_basis(a, _widened_basis(a.dim, f),
                              name=f"{spec}~x{f}")


def _widths(monkeypatch):
    """The slot widths that the packed kernels ask for, in order."""
    seen = []
    packing = Algebra._packing

    def recording(self, w):
        seen.append(w)
        return packing(self, w)

    monkeypatch.setattr(Algebra, "_packing", recording)
    return seen


# the slot width of the alternative scan, which grows with the tensor's
# numerators; the moved sedenions fail left and right, so their witnesses
# are unpacked from slots of both signs
_SCAN_WIDTHS = {"matrix:3~": 64, "zorn~x6561": 128, "zorn~x3486784401": 256,
                "cd:-1,-1,-1,-1~": 128}


@pytest.mark.parametrize("spec", [
    "zorn", "matrix:1", "matrix:2", "matrix:3", "matrix:4", "cd:",
    "cd:-1", "cd:-1,2", "cd:-1,-1,-1", "cd:-1,-1,-1,-1", "cd:1,2,3,-1",
    "dsum:zorn,matrix:2", "zorn~", "matrix:3~", "cd:-1,-1,-1~",
    "zorn~x6561", "zorn~x3486784401", "cd:-1,-1,-1,-1~"])
def test_table_scans_match_the_element_path(spec, zorn_transported,
                                            monkeypatch):
    if spec == "zorn~":
        a = zorn_transported
    elif "~x" in spec:
        base, f = spec.split("~x")
        a = _widened(base, int(f))
    elif spec.endswith("~"):
        a = _dense(spec[:-1])
    elif spec.startswith("cd:"):
        a = st.cayley_dickson([Scalar(int(g)) for g in spec[3:].split(",")
                               if g])
    else:
        a = st.resolve_algebra(spec)[0]
    widths = _widths(monkeypatch)
    alt, _ = _assert_scans_match_references(a)
    if spec in _SCAN_WIDTHS:
        assert widths[0] == _SCAN_WIDTHS[spec]
    # 16-dim Cayley-Dickson algebras are flexible but neither left nor
    # right alternative
    if spec.startswith("cd:") and a.dim == 16:
        assert [c.passed for c in alt.checks] == [False, False, True]


_SMALL = hst.builds(Scalar, hst.integers(-1, 1), hst.integers(-1, 1))
# halves and thirds: the tensor's common denominator is 2, 3 or 6
_FRACTIONS = hst.builds(Scalar, hst.integers(-2, 2), hst.integers(-2, 2),
                        hst.sampled_from((2, 3)))


@hst.composite
def _random_star_algebras(draw, constants=_SMALL):
    """dim 1-4, sparse structure constants drawn from *constants*, a random
    unit and either entrywise conjugation or a random star matrix."""
    dim = draw(hst.integers(1, 4))
    triples = list(itertools.product(range(dim), repeat=3))
    keys = draw(hst.lists(hst.sampled_from(triples), max_size=2 * dim * dim,
                          unique=True))
    structure = {t: draw(constants) for t in keys}
    unit = draw(hst.lists(_SMALL, min_size=dim, max_size=dim))
    if draw(hst.booleans()):
        star = [[ONE if r == c else ZERO for c in range(dim)]
                for r in range(dim)]
    else:
        star = [draw(hst.lists(_SMALL, min_size=dim, max_size=dim))
                for _ in range(dim)]
    return Algebra("random", dim, [f"b{k}" for k in range(dim)], structure,
                   unit, star)


def test_table_scans_match_the_element_path_on_random_algebras():
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None)
    @given(_random_star_algebras())
    def scan(a):
        alt, inv = _assert_scans_match_references(a)
        seen.update(c.name for c in alt.checks + inv.checks
                    if not c.passed)

    scan()
    # every law that has a witness was refuted on some example
    assert seen >= {"left_alternative_linearized",
                    "right_alternative_linearized", "flexible_linearized",
                    "involutive", "unit_fixed", "anti_automorphism"}


def test_flexible_follows_from_left_and_right_on_random_algebras():
    # (0 1) and (1 2) generate S3: an associator alternating under both
    # swaps alternates under (0 2), so the skipped flexible scan passes
    corollary = []

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None)
    @given(_random_star_algebras())
    def scan(a):
        ref = _partner_loop(a)
        left, right, flexible = (c.passed for c in ref.checks)
        if left and right:
            assert flexible
            corollary.append(a.dim)
        assert st.check_alternative(a) == ref

    scan()
    assert sum(dim > 1 for dim in corollary) >= 10


def test_kernel_matches_the_partner_loop_over_fractional_constants():
    # residuals are summed over den^2; a witness must come out the same as
    # the Element path's on tensors whose common denominator is not 1
    refuted = set()

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None)
    @given(_random_star_algebras(_FRACTIONS))
    def scan(a):
        rep = st.check_alternative(a)
        assert rep == _partner_loop(a)
        refuted.update((c.name, a._den) for c in rep.checks if not c.passed)

    scan()
    for name in ("left_alternative_linearized",
                 "right_alternative_linearized", "flexible_linearized"):
        assert {den for n, den in refuted if n == name} >= {2, 3, 6}, name


def _signed_table(dim, signs):
    """Structure constants +-1 at the given (i, j, k), the identity star and
    the unit b0 (which the laws below never read)."""
    eye = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
    return Algebra("mixed", dim, [f"b{k}" for k in range(dim)],
                   {t: ONE if c == 1 else MINUS_ONE
                    for t, c in signs.items()},
                   [ONE] + [ZERO] * (dim - 1), eye)


@pytest.mark.parametrize("dim,signs,pattern", [
    (3, {(1, 1, 0): 1, (2, 1, 1): 1, (2, 2, 2): 1}, [True, False, False]),
    (3, {(0, 1, 2): 1, (1, 0, 2): -1, (1, 1, 1): 1, (0, 1, 0): 1},
     [False, True, False]),
    (2, {(0, 0, 0): -1, (1, 1, 1): -1, (1, 1, 0): -1}, [False, False, True]),
], ids=["right-fails", "left-fails", "flexible-holds"])
def test_mixed_law_patterns_match_the_partner_loop(dim, signs, pattern):
    # the random algebras above pass or fail all three laws together; these
    # fail exactly one of left and right, or both with flexible holding
    a = _signed_table(dim, signs)
    alt, _ = _assert_scans_match_references(a)
    assert [c.passed for c in alt.checks] == pattern


def _count(monkeypatch, method):
    calls = []
    original = getattr(Algebra, method)

    def counted(self, *args):
        calls.append(None)
        return original(self, *args)

    monkeypatch.setattr(Algebra, method, counted)
    return calls


def _count_cases(monkeypatch):
    """Cases run per law: wraps each law that first_witnesses receives."""
    runs = {}
    original = algebra_module.first_witnesses

    def counted(cases, laws):
        def wrap(name, law):
            def run(case):
                runs[name] = runs.get(name, 0) + 1
                return law(case)
            return run
        return original(cases, {n: wrap(n, law) for n, law in laws.items()})

    monkeypatch.setattr(algebra_module, "first_witnesses", counted)
    return runs


@pytest.mark.parametrize("spec,flexible", [
    ("zorn", False), ("matrix:3", False), ("matrix:8", False),
    ("cd:-1,-1,-1,-1", True)])
def test_alternative_kernel_makes_no_products(spec, flexible, monkeypatch):
    # every residual is summed over the tensor cells: no multiply at all.
    # A passing law runs each of the dim^2 (dim + 1) / 2 triples with
    # t <= swap(t) once (133120 on matrix:8); flexible is scanned only
    # when left or right fails, as on the sedenions
    a, _ = st.resolve_algebra(spec)
    n = a.dim
    multiplies = _count(monkeypatch, "multiply")
    runs = _count_cases(monkeypatch)
    rep = st.check_alternative(a)
    assert multiplies == []
    assert ("flexible_linearized" in runs) == flexible
    triples = n * n * (n + 1) // 2
    for c in rep.checks:
        if c.passed and c.name in runs:
            assert runs[c.name] == triples, c.name
    if spec == "matrix:8":
        assert rep.ok and runs == dict.fromkeys(
            ("left_alternative_linearized", "right_alternative_linearized"),
            133120)
    if flexible:
        assert [c.passed for c in rep.checks] == [False, False, True]


@pytest.mark.parametrize("spec,stars", [("zorn", 17), ("matrix:3", 19)])
def test_basis_stars_are_made_once(spec, stars, monkeypatch):
    # a passing involution check makes dim stars for the table, dim for
    # b** and one for the unit; the tensor decides (x y)* = y* x* with none
    a, _ = st.resolve_algebra(spec)
    n = a.dim
    stars_made = _count(monkeypatch, "star")
    assert st.check_involution(a).ok
    assert len(stars_made) == stars == 2 * n + 1


@pytest.mark.parametrize("spec", ["zorn", "matrix:3", "matrix:8",
                                  "cd:-1,-1,-1,-1", "zorn~", "matrix:3~"])
def test_involution_kernel_makes_no_products(spec, monkeypatch):
    # once star is involutive, the pairs (b_i, b_j*) decide the law on the
    # tensor and the star matrix, so a pass makes no Element product; the
    # moved bases give dense cells and a dense, non-permutation star
    a = _dense(spec[:-1]) if spec.endswith("~") \
        else st.resolve_algebra(spec)[0]
    multiplies = _count(monkeypatch, "multiply")
    assert st.check_involution(a).ok
    assert multiplies == []


# -- the anti-automorphism kernel against the Element path --------------------


@hst.composite
def _conjugate_symmetric_algebras(draw):
    """dim 1-4 with entrywise conjugation and c[j][i][k] = conj(c[i][j][k])
    (real where i = j), so (x y)* = y* x* holds, or with one constant then
    changed, which breaks the symmetry when it lands off the diagonal or
    off the reals.  Then, moved to the dense basis _unimodular(dim) with
    each new basis vector scaled by 1, 2 or 3, the cells are dense and the
    star is a dense matrix whose common denominator is 1, 2, 3 or 6."""
    dim = draw(hst.integers(1, 4))
    upper = [(i, j, k) for i in range(dim) for j in range(i, dim)
             for k in range(dim)]
    structure = {}
    for i, j, k in draw(hst.lists(hst.sampled_from(upper), max_size=dim * dim,
                                  unique=True)):
        c = draw(_FRACTIONS)
        c = c if i != j else Scalar(c.a, 0, c.d)
        structure[(i, j, k)] = c
        structure[(j, i, k)] = c.conj()
    if draw(hst.booleans()):
        t = draw(hst.sampled_from(list(itertools.product(range(dim),
                                                         repeat=3))))
        structure[t] = structure.get(t, ZERO) + draw(
            _FRACTIONS.filter(lambda c: not c.is_zero()))
    eye = [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)]
    unit = draw(hst.lists(_SMALL, min_size=dim, max_size=dim))
    a = Algebra("conjugate-symmetric", dim, [f"b{k}" for k in range(dim)],
                structure, unit, eye)
    if not draw(hst.booleans()):
        return a
    scale = draw(hst.lists(hst.integers(1, 3), min_size=dim, max_size=dim))
    m = [[c * Scalar(s) for c, s in zip(row, scale)]
         for row in _unimodular(dim)]
    return st.change_of_basis(a, m)


@hst.composite
def _projection_star_algebras(draw):
    """dim 1-3 with a star that conjugates and then projects onto some
    coordinates: it fails involutive at each dropped basis vector, while
    the pairs (b_i, b_j*) may still satisfy the law."""
    dim = draw(hst.integers(1, 3))
    keep = draw(hst.lists(hst.booleans(), min_size=dim, max_size=dim))
    triples = list(itertools.product(range(dim), repeat=3))
    keys = draw(hst.lists(hst.sampled_from(triples), max_size=dim * dim,
                          unique=True))
    star = [[ONE if r == c and keep[c] else ZERO for c in range(dim)]
            for r in range(dim)]
    return Algebra("projection-star", dim, [f"b{k}" for k in range(dim)],
                   {t: draw(_SMALL) for t in keys},
                   [ONE] + [ZERO] * (dim - 1), star)


def _tensor_passes_a_projection_star():
    """b0 b0 = b0, b0 b1 = b1, b1 b1 = b0 and b1 b0 = 0, with the star
    x -> conj(x_0) b0: b_i b_j* = b_j b_i* on every pair, yet
    (b1 b1)* = b0 while b1* b1* = 0, so the pairs decide nothing once
    star is not involutive."""
    return Algebra("projection-star", 2, ["b0", "b1"],
                   {(0, 0, 0): ONE, (0, 1, 1): ONE, (1, 1, 0): ONE},
                   [ONE, ZERO], [[ONE, ZERO], [ZERO, ZERO]])


def test_involution_kernel_matches_the_element_path(monkeypatch):
    # the whole report, witnesses included, equals the Element scan's; a
    # report that passes involutive and anti_automorphism made no product,
    # and any other report made the Element scan's
    multiplies = _count(monkeypatch, "multiply")
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=300,
              database=None)
    @given(hst.one_of(_random_star_algebras(_FRACTIONS),
                      _conjugate_symmetric_algebras(),
                      _projection_star_algebras()))
    @example(_tensor_passes_a_projection_star())
    def scan(a):
        multiplies.clear()
        rep = st.check_involution(a)
        involutive = rep.check("involutive").passed
        law = rep.check("anti_automorphism").passed
        assert (multiplies == []) == (involutive and law)
        assert rep == _element_path_involution(a)
        seen.add((involutive, law))
        if involutive and a._star._den > 1:
            seen.add(("star den", law))
        if not involutive and not law \
                and algebra_module._anti_automorphic(a):
            seen.add("the tensor passes a star that is not involutive")

    scan()
    assert seen >= {(True, True), (True, False), (False, False),
                    ("star den", True), ("star den", False),
                    "the tensor passes a star that is not involutive"}


# -- the *-Jordan pair kernel ---------------------------------------------------


def _halved_basis(dim, k):
    """_unimodular(dim) with column k doubled: moved to it, an algebra's
    products and stars can have halves as new coordinates."""
    return [[c * TWO if j == k else c for j, c in enumerate(row)]
            for row in _unimodular(dim)]


def _halved(spec, k):
    a = st.resolve_algebra(spec)[0]
    return st.change_of_basis(a, _halved_basis(a.dim, k), name=f"{spec}~/2")


def _diagonal_basis():
    """diag(2, 1, 1+i, 1, ..., 1) on zorn: moved to it, the tensor stays
    sparse but has a non-real entry, and both it and the star have
    denominator 2."""
    d = [TWO, ONE, Scalar(1, 1), *[ONE] * 5]
    return [[d[r] if c == r else ZERO for c in range(8)] for r in range(8)]


PAIR_SPECS = ("zorn", "matrix:2", "matrix:3", "cd:-1,-1,-1,-1",
              "dsum:matrix:2,matrix:1")
PAIR_ALGEBRAS = PAIR_SPECS + ("zorn~", "zorn~/2", "zorn~diag")


@pytest.fixture(scope="module")
def pair_algebras():
    zorn = st.resolve_algebra("zorn")[0]
    return {**{spec: st.resolve_algebra(spec)[0] for spec in PAIR_SPECS},
            "zorn~": _dense("zorn"), "zorn~/2": _halved("zorn", 1),
            "zorn~diag": st.change_of_basis(zorn, _diagonal_basis(),
                                            name="zorn~diag")}


def test_the_halved_basis_has_fractional_tensor_and_star(pair_algebras):
    a = pair_algebras["zorn~/2"]
    assert a._den > 1 and a._star._den > 1


def test_the_diagonal_basis_keeps_a_sparse_complex_tensor(pair_algebras):
    # the fused sparse pair scales x by the star denominator and meets
    # non-real tensor entries only on this subject
    a = pair_algebras["zorn~diag"]
    assert not a._dense
    assert any(q for row in a._flat for _, _, _, q in row)
    assert a._den == 2 and a._star._den == 2


def _pair_oracle(x, y):
    return x * y + y * x.star()


@pytest.mark.parametrize("name", PAIR_ALGEBRAS)
def test_jordan_pair_on_zero_unit_and_basis_vectors(pair_algebras, name):
    a = pair_algebras[name]
    special = (a.zero(), a.unit) + a.basis()[:2] + a.basis()[-1:]
    for x, y in itertools.product(special, repeat=2):
        assert st.jordan_star(x, y) == _pair_oracle(x, y), (x, y)


_PAIR_COEFFS = hst.builds(Scalar, hst.integers(-3, 3), hst.integers(-3, 3),
                          hst.integers(1, 3))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=hst.data())
@pytest.mark.parametrize("name", PAIR_ALGEBRAS)
def test_jordan_pair_matches_the_element_path(pair_algebras, name, data):
    # the kernel sums x y and y x* on unnormalised numerators; its canonical
    # result must equal the two products, the star and the sum, each
    # normalised on its own
    a = pair_algebras[name]
    arg = (hst.sampled_from((a.zero(), a.unit) + a.basis())
           | hst.lists(_PAIR_COEFFS, min_size=a.dim,
                       max_size=a.dim).map(a.element))
    x, y = data.draw(arg), data.draw(arg)
    assert st.jordan_star(x, y) == _pair_oracle(x, y)


def test_jordan_pair_rejects_mixed_algebras(pair_algebras):
    m2, zorn = pair_algebras["matrix:2"], pair_algebras["zorn"]
    for x, y in ((m2.unit, zorn.unit), (zorn.unit, m2.unit)):
        with pytest.raises(st.AlgebraError, match="mismatch in multiply"):
            st.jordan_star(x, y)


@pytest.mark.parametrize("op, message", [
    (lambda x, y: x * y, "algebra mismatch in multiply"),
    (lambda x, y: x.algebra.star(y), "algebra mismatch in star"),
    (lambda x, y: x + y, "algebra mismatch between operands"),
    (lambda x, y: x - y, "algebra mismatch between operands"),
], ids=["multiply", "star", "add", "sub"])
def test_element_operations_reject_mixed_algebras(pair_algebras, op,
                                                  message):
    m2, zorn = pair_algebras["matrix:2"], pair_algebras["zorn"]
    for x, y in ((m2.unit, zorn.unit), (zorn.unit, m2.unit)):
        with pytest.raises(st.AlgebraError, match=message):
            op(x, y)
