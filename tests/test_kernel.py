"""The Gaussian-integer Element kernel against the Scalar reference path.

An Element stores integer numerators over one shared denominator, and
multiply, star, sums, scale, Peirce projections and map cores run on ints.
The reference here is the Scalar-per-coordinate path the kernel replaced:
one gcd-normalised Scalar per partial term, over the structure tensor and
star matrix exactly as they were handed to ``Algebra``.  Both paths must
give the same coordinates, and every result must be in canonical form.
"""

import importlib.util
import sys
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as hst

import altstar as st
from altstar import linalg
from altstar.algebra import Algebra
from altstar.scalars import ZERO, Scalar
from test_algebra import _unimodular, _widened_basis, _widths


def _recorded(build):
    """Build an algebra and capture the Scalar structure and star matrix
    its constructor received."""
    seen = []
    init = Algebra.__init__

    def recording(self, name, dim, labels, structure, unit, star):
        seen.append((dict(structure), [list(r) for r in star]))
        init(self, name, dim, labels, structure, unit, star)

    with mock.patch.object(Algebra, "__init__", recording):
        a = build()
    structure, star = seen[-1]
    return a, structure, star


# -- the reference: the Scalar loops the kernel replaced -----------------


def ref_mat_vec(m, v):
    out = []
    for row in m:
        acc = ZERO
        for x, y in zip(row, v):
            if not (x.is_zero() or y.is_zero()):
                acc = acc + x * y
        out.append(acc)
    return out


def ref_multiply(structure, dim, x, y):
    rows = [[[] for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in structure.items():
        if not c.is_zero():
            rows[i][j].append((k, c))
    out = [ZERO] * dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if yj.is_zero():
                continue
            f = xi * yj
            for k, c in rows[i][j]:
                out[k] = out[k] + f * c
    return out


def ref_star(star, x):
    return ref_mat_vec(star, [c.conj() for c in x])


# -- subjects ------------------------------------------------------------


def _case(name, zorn_moved_basis):
    # zorn_transported is built as the conftest fixture is; zorn~ moves
    # zorn to a dense basis, so its products take the packed kernel, and
    # zorn~wide scales one new basis vector by 3^20, so the tensor's
    # numerators reach 110 bits and products need slots of 128 bits or more
    moves = {"zorn_transported": zorn_moved_basis, "zorn~": _unimodular(8),
             "zorn~wide": _widened_basis(8, 3 ** 20)}
    if name in moves:
        m = moves[name]
        zorn, _, _ = _recorded(st.zorn_algebra)
        a, structure, star = _recorded(
            lambda: st.change_of_basis(zorn, m, name=name))
        minv = linalg.inverse(m)
        e1 = a.element(linalg.mat_vec(minv, zorn.basis_element(0).coords))
        return a, structure, star, e1
    a, structure, star = _recorded(lambda: st.resolve_algebra(name)[0])
    e1 = st.find_symmetric_idempotents(a)[0]
    return a, structure, star, e1


@pytest.fixture(scope="module",
                params=("zorn", "matrix:3", "cd:1/2,-3,2/3",
                        "zorn_transported", "zorn~", "zorn~wide"))
def case(request, zorn_moved_basis):
    a, structure, star, e1 = _case(request.param, zorn_moved_basis)
    return a, structure, star, st.PeirceSystem(a, e1)


# fractional Gaussian coordinates, about a third of them zero
scalars = hst.one_of(
    hst.just(ZERO),
    hst.builds(Scalar, hst.integers(-40, 40), hst.integers(-40, 40),
               hst.integers(1, 36)))


def coords(dim):
    return hst.lists(scalars, min_size=dim, max_size=dim)


KERNEL = settings(max_examples=40, deadline=None)


def assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.re, *x.im) == 1
    # the same value built from Scalars has the same fields and hash
    y = x.algebra.element(x.coords)
    assert (y.re, y.im, y.den) == (x.re, x.im, x.den)
    assert y == x and hash(y) == hash(x)


@KERNEL
@given(data=hst.data())
def test_ring_operations_match_reference(case, data):
    a, structure, star, _ = case
    u = data.draw(coords(a.dim))
    v = data.draw(coords(a.dim))
    s = data.draw(scalars)
    x, y = a.element(u), a.element(v)
    assert x.coords == tuple(u) and y.coords == tuple(v)
    results = {
        "multiply": (x * y, ref_multiply(structure, a.dim, u, v)),
        "star": (x.star(), ref_star(star, u)),
        "add": (x + y, [p + q for p, q in zip(u, v)]),
        "sub": (x - y, [p - q for p, q in zip(u, v)]),
        "neg": (-x, [-p for p in u]),
        "scale": (x.scale(s), [s * p for p in u]),
    }
    for name, (got, want) in results.items():
        assert got.coords == tuple(want), name
        assert_canonical(got)
    assert (x + y) - y == x
    assert hash((x + y) - y) == hash(x)


@KERNEL
@given(data=hst.data())
def test_projections_match_reference(case, data):
    a, structure, _, p = case
    u = data.draw(coords(a.dim))
    x = a.element(u)
    for i, j in st.IJ_PAIRS:
        ei = p.idempotent(i).coords
        ej = p.idempotent(j).coords
        want = ref_multiply(structure, a.dim, ei,
                            ref_multiply(structure, a.dim, u, ej))
        got = p.project(x, (i, j))
        assert got.coords == tuple(want), (i, j)
        assert_canonical(got)


@KERNEL
@given(data=hst.data())
def test_map_core_matches_reference(case, data):
    a = case[0]
    m = data.draw(hst.lists(coords(a.dim), min_size=a.dim, max_size=a.dim))
    conj = data.draw(hst.booleans())
    u = data.draw(coords(a.dim))
    phi = st.AlgebraMap(a, a, m, conjugates_scalars=conj)
    assert phi.linear_part == tuple(tuple(r) for r in m)
    got = phi(a.element(u))
    want = ref_mat_vec(m, [c.conj() for c in u] if conj else u)
    assert got.coords == tuple(want)
    assert_canonical(got)


def test_structure_accessors_rebuild_the_inputs(case):
    a, structure, star, _ = case
    nonzero = {ijk: c for ijk, c in structure.items() if not c.is_zero()}
    assert {(i, j, k): c for i, j, k, c in a.structure_entries()} == nonzero
    assert a.star_matrix() == tuple(tuple(r) for r in star)


def test_zero_is_canonical(m2):
    z = m2.zero()
    assert (z.re, z.im, z.den) == ((0,) * 4, (0,) * 4, 1)
    x = m2.element([Scalar(1, 2, 3)] * 4)
    for r in (x - x, x.scale(ZERO), x + (-x)):
        assert r == z and hash(r) == hash(z) and r.den == 1


def _scalars_made(monkeypatch) -> list:
    """From now on, the arguments of every Scalar construction."""
    made = []
    init = Scalar.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Scalar, "__init__", counting)
    return made


def test_hot_path_builds_no_scalar(monkeypatch, case):
    """Products, stars, sums, scaling, projections and map cores on
    existing elements construct no Scalar."""
    a, _, _, p = case
    rng = st.derive_rng(0, "kernel")
    x, y = st.random_element(a, rng), st.random_element(a, rng)
    phi = st.star_as_map(a)
    s = Scalar(3, -2, 5)
    made = _scalars_made(monkeypatch)
    x * y, x.star(), x + y, x - y, -x, x.scale(s), phi(x)
    for ij in st.IJ_PAIRS:
        p.project(x, ij)
    st.peirce_decompose(p, y)
    x == y, hash(x), x.is_zero()
    assert made == []


def test_eliminations_build_no_scalar(monkeypatch, case):
    """A Peirce build, a spade side that holds and the bijectivity claim
    hand the elimination kernel integers and construct no Scalar."""
    a, _, _, p = case
    # the fixture's build decided the algebra's load-time laws
    assert a._failed_load_law is None
    phi = st.star_as_map(a)
    holds = [j for j in (1, 2) if st.check_spade(p, j).holds]
    assert holds
    made = _scalars_made(monkeypatch)
    again = st.PeirceSystem(a, p.e1)
    for j in holds:
        assert st.check_spade(again, j).holds
    assert st.bijective_claim(phi)
    assert made == []


@pytest.mark.parametrize("name,widths", [
    ("zorn", []), ("matrix:3", []), ("cd:1/2,-3,2/3", []),
    ("dsum:zorn,matrix:2", []), ("zorn_transported", []),
    ("zorn~", [64, 128, 256])])
def test_dense_tensors_take_the_packed_product(name, widths,
                                               zorn_moved_basis,
                                               monkeypatch):
    # the builtins and direct sums have one entry per nonempty cell and
    # keep the per-entry loop, as does a sparse change of basis; a dense
    # one packs its cells, at the least width of 64, 128, 256, ... that
    # holds 4 X Y C nx ny for the numerators X, Y of x, y and C of the
    # tensor, and each product matches the reference
    if name.startswith("dsum"):
        a, structure, _ = _recorded(lambda: st.resolve_algebra(name)[0])
    else:
        a, structure, _, _ = _case(name, zorn_moved_basis)
    seen = _widths(monkeypatch)
    n = a.dim
    u = [Scalar(k - 3, 1) for k in range(n)]
    for e in (0, 60, 150):
        v = [Scalar(2 ** e + k, k - 3) for k in range(n)]
        got = a.element(u) * a.element(v)
        assert got.coords == tuple(ref_multiply(structure, n, u, v))
        assert_canonical(got)
    assert seen == widths


# -- random combinations --------------------------------------------------


def _chained_combination(basis, rng):
    """Reference: one Element per basis vector, scaled and added in order."""
    out = basis[0].algebra.zero()
    for b in basis:
        out = out + b.scale(st.random_scalar(rng))
    return out


def _dense_matrix3(monkeypatch):
    """The seed-1 dense-basis matrix:3 file of the benchmark, read back."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    doc = workloads.transported_algebra("matrix:3", 1)
    return st.algebra_from_dict(doc)


@pytest.mark.parametrize("spec", ["zorn", "matrix:2", "matrix:3", "matrix:8",
                                  "dense-matrix3"])
def test_random_combination_matches_the_scale_and_add_chain(spec,
                                                            monkeypatch):
    if spec == "dense-matrix3":
        a, idem = _dense_matrix3(monkeypatch)
    else:
        a, idem = st.resolve_algebra(spec)
    p = st.PeirceSystem(a, a.element(idem["e1"]))
    for seed in range(50):
        for ij in st.IJ_PAIRS:
            basis = p.component_bases[ij]
            x = st.random_combination(basis, st.derive_rng(seed, ij))
            assert x == _chained_combination(basis, st.derive_rng(seed, ij))
            assert_canonical(x)
