import importlib.util
import sys
from pathlib import Path

import pytest

import altstar as st
from altstar.scalars import I, MINUS_ONE, ONE, Scalar, ZERO

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def load_perfbench(monkeypatch):
    """Load a module of ``perfbench/`` by path, under the given name; the
    modules are only read, never written."""
    def load(name, filename):
        spec = importlib.util.spec_from_file_location(name,
                                                      PERFBENCH / filename)
        mod = importlib.util.module_from_spec(spec)
        # dataclasses look their module up here, and the oracle imports its
        # job type from the top-level module `workloads`
        monkeypatch.setitem(sys.modules, name, mod)
        spec.loader.exec_module(mod)
        return mod
    return load


@pytest.fixture(scope="session")
def m2():
    return st.matrix_algebra(2)


@pytest.fixture(scope="session")
def m3():
    return st.matrix_algebra(3)


@pytest.fixture(scope="session")
def zorn():
    return st.zorn_algebra()


@pytest.fixture(scope="session")
def m2_peirce(m2):
    return st.PeirceSystem(m2, m2.basis_element(0))


@pytest.fixture(scope="session")
def m3_peirce(m3):
    return st.PeirceSystem(m3, m3.basis_element(0))


@pytest.fixture(scope="session")
def zorn_peirce(zorn):
    return st.PeirceSystem(zorn, zorn.basis_element(0))


@pytest.fixture(scope="session")
def dsum_m2_m2():
    a = st.matrix_algebra(2)
    return st.direct_sum(a, st.matrix_algebra(2))


@pytest.fixture(scope="session")
def zorn_moved_basis():
    """I + N with N nilpotent (N^2 = 0) and one imaginary entry, so that the
    transported star is not a permutation; sparse, to keep basis scans cheap."""
    m = [[ONE if r == c else ZERO for c in range(8)] for r in range(8)]
    m[0][2] = ONE
    m[6][1] = I
    m[3][7] = MINUS_ONE
    return m


@pytest.fixture(scope="session")
def zorn_transported(zorn, zorn_moved_basis):
    return st.change_of_basis(zorn, zorn_moved_basis, name="zorn~")


@pytest.fixture(scope="session")
def incompatible():
    """B + B^op with the exchange involution (y, z)* = (z, y), which is
    involutive and anti-automorphic for any unital B.  B has basis u, e, x:
    u a two-sided unit, e e = e, x e = e, and e x = x x = 0; the basis of
    B^op is u', e', x'.  e1 = e + e' is a nontrivial symmetric idempotent
    whose projections disagree at x: (e1 x) e1 = (e x) e = 0 but
    e1 (x e1) = e (x e) = e."""
    structure = {}
    for i, j, k in ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2),
                    (1, 1, 1), (2, 1, 1)):
        # b_i b_j = b_k in B, and b_j' b_i' = b_k' in B^op
        structure[i, j, k] = structure[j + 3, i + 3, k + 3] = ONE
    swap = [[ONE if c == (r + 3) % 6 else ZERO for c in range(6)]
            for r in range(6)]
    return st.Algebra("incompatible", 6, ["u", "e", "x", "u'", "e'", "x'"],
                      structure, [ONE, ZERO, ZERO, ONE, ZERO, ZERO], swap)


@pytest.fixture(scope="session")
def overlap():
    """Basis e1, e2, v: e_i e_i = e_i, e1 e2 = e2 e1 = 0, e_i v = v e_i =
    v/2 and v v = 0.  Every Peirce projection for e1 sends v to v/4, so v
    lies in all four components and their sum is not direct."""
    half = Scalar(1, 0, 2)
    eye = [[ONE if r == c else ZERO for c in range(3)] for r in range(3)]
    return st.Algebra("overlap", 3, ["e1", "e2", "v"],
                      {(0, 0, 0): ONE, (1, 1, 1): ONE, (0, 2, 2): half,
                       (2, 0, 2): half, (1, 2, 2): half, (2, 1, 2): half},
                      [ONE, ONE, ZERO], eye)


@pytest.fixture(scope="session")
def star_moved_unit():
    """Basis f1, f2: orthogonal idempotents with the two-sided unit f1 + f2,
    and f2* = 2 f2.  e1 = f1 is a symmetric idempotent, but star moves the
    unit, so e2 = 1 - e1 = f2 is not symmetric; the first law it fails in
    check's order is involutive, at f2."""
    return st.Algebra("star-moved-unit", 2, ["f1", "f2"],
                      {(0, 0, 0): ONE, (1, 1, 1): ONE}, [ONE, ONE],
                      [[ONE, ZERO], [ZERO, Scalar(2)]])
