"""Seeded draws against the Scalar path they replace.

A draw writes integer numerators over 2 straight into an element.  The
reference draws each scalar with the three ``randint`` calls that define
the distribution (re, im, then the denominator) and builds the element
from Scalars, so both the values and the rng's call order are pinned.
"""

import pytest

import altstar as st
from altstar import linalg
from altstar.sampling import (Basis, derive_rng, random_combination,
                              random_element, random_scalar)
from altstar.scalars import Scalar

from test_algebra import _halved_basis

SEEDS = range(200)


def _reference_scalar(rng):
    return Scalar(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 2))


def _fields(x):
    return x.algebra, x.re, x.im, x.den


def _halved_system(spec, k):
    """The Peirce system of spec moved to _halved_basis(dim, k), with e1
    in its coordinates."""
    a, idem = st.resolve_algebra(spec)
    m = _halved_basis(a.dim, k)
    moved = st.change_of_basis(a, m)
    e1 = linalg.mat_vec(linalg.inverse(m), a.element(idem["e1"]).coords)
    return st.PeirceSystem(moved, moved.element(e1))


@pytest.fixture(scope="module")
def systems(zorn_peirce, m3_peirce):
    return {"zorn": zorn_peirce, "matrix:3": m3_peirce,
            "zorn~/2": _halved_system("zorn", 1)}


def test_the_moved_components_have_fractional_basis_vectors(systems):
    p = systems["zorn~/2"]
    assert all(any(b.den > 1 for b in p.component_bases[ij])
               for ij in ((1, 1), (1, 2), (2, 1)))


def test_random_scalar_is_the_reference_draw():
    for seed in SEEDS:
        rng, ref = derive_rng(seed, "scalar"), derive_rng(seed, "scalar")
        assert [random_scalar(rng) for _ in range(4)] \
            == [_reference_scalar(ref) for _ in range(4)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ["zorn", "matrix:3", "zorn~/2"])
def test_random_element_is_the_scalar_path(systems, name):
    a = systems[name].algebra
    for seed in SEEDS:
        rng, ref = derive_rng(seed, "element"), derive_rng(seed, "element")
        for _ in range(2):
            x = random_element(a, rng)
            y = a.element([_reference_scalar(ref) for _ in range(a.dim)])
            assert _fields(x) == _fields(y)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ["zorn", "matrix:3", "zorn~/2"])
def test_random_combination_is_the_scalar_path(systems, name):
    # every component basis in turn from one rng, as a sample's frees are
    # drawn, so the state check covers a run of draws
    p = systems[name]
    bases = [p.component_bases[ij] for ij in sorted(p.component_bases)]
    for seed in SEEDS:
        rng, ref = derive_rng(seed, "combo"), derive_rng(seed, "combo")
        for basis in bases:
            x = random_combination(basis, rng)
            y = sum((b.scale(_reference_scalar(ref)) for b in basis),
                    p.algebra.zero())
            assert _fields(x) == _fields(y)
        assert rng.getstate() == ref.getstate()


def test_random_combination_makes_a_list_into_a_basis(systems):
    p = systems["zorn~/2"]
    for ij, basis in p.component_bases.items():
        assert isinstance(basis, Basis)
        rng, ref = derive_rng(1, "list", ij), derive_rng(1, "list", ij)
        assert random_combination(list(basis), rng) \
            == random_combination(basis, ref)


def test_random_combination_needs_a_basis():
    with pytest.raises(ValueError, match="empty basis"):
        random_combination([], derive_rng(1, "empty"))


def _redraws(tag, draw):
    """The redrawn values of each seed's stream under tag: a 3-bit 7 or a
    2-bit value above 1, as (bits, value)."""
    seen = set()
    for seed in SEEDS:
        rng = derive_rng(seed, tag)
        bits = rng.getrandbits

        def recording(k, bits=bits):
            v = bits(k)
            if (k, v) in ((3, 7), (2, 2), (2, 3)):
                seen.add((k, v))
            return v

        rng.getrandbits = recording
        draw(rng)
    return seen


def test_the_seeds_reach_both_redraw_loops(systems):
    # the draws read getrandbits and redraw out-of-range values; the state
    # comparisons above pin both redraw loops to randint only if the seeds
    # reach them
    zorn = systems["zorn"]
    bases = [zorn.component_bases[ij] for ij in sorted(zorn.component_bases)]
    streams = {
        "scalar": lambda rng: [random_scalar(rng) for _ in range(4)],
        "element": lambda rng: [random_element(zorn.algebra, rng)
                                for _ in range(2)],
        "combo": lambda rng: [random_combination(b, rng) for b in bases],
    }
    for tag, draw in streams.items():
        seen = _redraws(tag, draw)
        assert (3, 7) in seen, tag
        assert seen & {(2, 2), (2, 3)}, tag
