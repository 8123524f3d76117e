"""Candidate maps between *-algebras and the falsification harness.

A map is a linear core (matrix times the coordinate vector, optionally
applied to the entrywise-conjugated coordinates) plus a finite pointwise
patch table consulted before the core.  Patches deliberately break
linearity, which is how the negative test subjects are built.

Two checkers; each first gates its codomain (require_star_algebra_laws):

* check_jordan_condition: phi(q_n(xi, ..., xi, a, b)) =
  q_n(phi(xi), ..., phi(xi), phi(a), phi(b)) for xi in {1, e1, e2} over a
  deterministic sample pool, both sides folded by jordan's one memoized
  fold.  A surviving map is reported "not refuted", never "verified".
* check_star_ring_isomorphism: additivity, multiplicativity, star
  preservation, exact linear bijectivity, idempotent images, and
  Peirce-block preservation, each with a reproducible witness on failure.

Every sampled law is a ``first_witnesses`` scan; the three equations share
one pass over one stream of pairs.  Each checker builds only the pool
points its pairs read (a pool's first points do not depend on its size)
and keeps nothing on the map, so a map is checked as it is.  An unpatched
map is C-linear, or C-antilinear if it conjugates scalars, so additivity
holds by construction, star preservation and multiplicativity hold
everywhere when they hold on basis vectors and basis pairs, and
Peirce-block preservation when each component's basis lands in its block.
These are decided there first (``scan_unproved``), when the basis cases
are no more law calls than the scan; a law that holds is left out of the
scan and reported as a scan without a witness reports it, so a report
reads as the scan alone made it.  The jordan condition is always sampled.
A MapCheckReport holds both results and is refuted when some check is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Iterator, Optional, Sequence

from . import linalg
from .algebra import (Algebra, AlgebraError, Element, IntMatrix,
                      first_witnesses, scan_unproved)
from .jordan import MAX_ARITY, _q_cached
from .peirce import (IJ_PAIRS, PeirceSystem, classify_idempotent,
                     component_of, peirce_decompose, random_component,
                     require_star_algebra_laws)
from .sampling import derive_rng, random_element
from .scalars import I, ONE, Scalar, ZERO, half_power


class MapError(AlgebraError):
    pass


class AlgebraMap:
    """linear_part @ coords (conjugated first if conjugates_scalars),
    overridden pointwise by the patch table."""

    def __init__(self, domain: Algebra, codomain: Algebra,
                 linear_part: Sequence[Sequence[Scalar]],
                 conjugates_scalars: bool = False,
                 patches: Optional[dict[Element, Element]] = None,
                 name: str = "map"):
        if len(linear_part) != codomain.dim or any(
                len(r) != domain.dim for r in linear_part):
            raise MapError("linear part must be codomain.dim x domain.dim")
        self.domain = domain
        self.codomain = codomain
        self._matrix = IntMatrix(linear_part)
        self.conjugates_scalars = conjugates_scalars
        self.name = name
        patches = dict(patches or {})
        for x, y in patches.items():
            if x.algebra is not domain or y.algebra is not codomain:
                raise MapError("patch endpoints must live in domain/codomain")
        outs = list(patches.values())
        if len(set(outs)) != len(outs):
            raise MapError("patch outputs must be pairwise distinct")
        self.patches = patches

    @property
    def linear_part(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._matrix.scalar_rows()

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.domain:
            raise MapError("argument is not a domain element")
        hit = self.patches.get(x)
        if hit is not None:
            return hit
        return self._matrix.apply(x, self.codomain, self.conjugates_scalars)


def bijective_claim(phi: AlgebraMap) -> bool:
    """Invertible linear part and a patch table that permutes its inputs."""
    # invertible: square, of full rank
    n = phi.domain.dim
    if (phi.codomain.dim != n
            or len(linalg.echelon(phi._matrix.rows(), n)) < n):
        return False
    # a map built through the API may send one algebra to a copy of it,
    # another Algebra object, so compare the numeric fields, not the
    # elements
    ins = {(x.den, x.re, x.im) for x in phi.patches}
    outs = {(y.den, y.re, y.im) for y in phi.patches.values()}
    return ins == outs


def check_unital(phi: AlgebraMap) -> bool:
    return (phi(phi.domain.unit) - phi.codomain.unit).is_zero()


def identity_map(a: Algebra) -> AlgebraMap:
    return scale_map(a, ONE, name="identity")


def scale_map(a: Algebra, s: Scalar, name: Optional[str] = None) -> AlgebraMap:
    m = [[s if i == j else ZERO for j in range(a.dim)] for i in range(a.dim)]
    return AlgebraMap(a, a, m, name=name or f"scale:{s}")


def conjugation_map(a: Algebra) -> AlgebraMap:
    """Entrywise coordinate conjugation; a ring automorphism whenever the
    structure constants are real."""
    return AlgebraMap(a, a, identity_map(a).linear_part,
                      conjugates_scalars=True, name="conjugation")


def star_as_map(a: Algebra) -> AlgebraMap:
    """x -> x* as a map object: star matrix applied after conjugation."""
    return AlgebraMap(a, a, a.star_matrix(), conjugates_scalars=True,
                      name="star")


def patched_map(base: AlgebraMap, patches: dict[Element, Element],
                name: Optional[str] = None) -> AlgebraMap:
    merged = dict(base.patches)
    merged.update(patches)
    return AlgebraMap(base.domain, base.codomain, base.linear_part,
                      base.conjugates_scalars, merged,
                      name=name or f"{base.name}+patch")


def zorn_rotation_map(a: Algebra) -> AlgebraMap:
    """Cyclic rotation of both 3-vector blocks of the Zorn algebra.

    An even coordinate permutation preserves dot and cross products, so this
    is a *-algebra automorphism.
    """
    if a.name != "zorn":
        raise MapError("zorn_rotation_map expects the zorn algebra")
    m = [[ZERO] * 8 for _ in range(8)]
    m[0][0] = ONE
    m[1][1] = ONE
    for base in (2, 5):
        for i in range(3):
            m[base + (i + 1) % 3][base + i] = ONE
    return AlgebraMap(a, a, m, name="zorn-rotation")


def matrix_swap_conjugation(a: Algebra) -> AlgebraMap:
    """x -> u x u for the 2x2 permutation u = [[0,1],[1,0]]; u = u* = u^-1."""
    if a.name != "matrix:2":
        raise MapError("matrix_swap_conjugation expects matrix:2")
    u = a.element([ZERO, ONE, ONE, ZERO])
    m = linalg.from_columns([((u * b) * u).coords for b in a.basis()])
    return AlgebraMap(a, a, m, name="swap-conjugation")


# -- sample pools ----------------------------------------------------------

# the pairs cross the pool's first _HEAD points before any seeded pick
_HEAD = 12


def sample_pool(phi: AlgebraMap, p: PeirceSystem, count: int,
                seed: int) -> list[Element]:
    """Deterministic pool: patch points, unit, idempotents, halved and
    i-scaled idempotents, then seeded Peirce-component and dense elements.

    The points are pushed in a fixed order, so a pool's first points do not
    depend on its size: a pool of count k is the first k of any larger one.
    """
    if p.algebra is not phi.domain:
        raise MapError("Peirce system must live on the map's domain")
    a = phi.domain
    pool: list[Element] = []
    seen: set = set()

    def push(x: Element) -> None:
        if x not in seen:
            seen.add(x)
            pool.append(x)

    for x in [*phi.patches, a.unit, p.e1, p.e2]:
        push(x)
    for s in (half_power(1), half_power(2), I):
        push(p.e1.scale(s))
        push(p.e2.scale(s))
    dims = p.component_dims()
    idx = 0
    while len(pool) < count:
        rng = derive_rng(seed, "pool", idx)
        ij = IJ_PAIRS[idx % 4]
        if dims[ij]:
            push(random_component(p, ij, rng))
        if len(pool) < count:
            push(random_element(a, rng))
        idx += 1
    return pool[:count]


def _pairs(pool: Sequence[Element], samples: int, seed: int):
    """First the structured head crossed with itself, then seeded picks."""
    head = pool[:_HEAD]
    count = 0
    for x in head:
        for y in head:
            if count >= samples:
                return
            yield x, y
            count += 1
    idx = 0
    while count < samples:
        rng = derive_rng(seed, "pair", idx)
        yield pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]
        count += 1
        idx += 1


def _mapped_pairs(phi: AlgebraMap, p: PeirceSystem, samples: int,
                  seed: int) -> Iterator[tuple[Element, ...]]:
    """The sampled pairs of the pool as cases (a, b, phi(a), phi(b)).

    Only the pool points the pairs read are built: up to _HEAD squared
    samples the pairs stay in the head, so the pool is its _HEAD points,
    and above that it is 64 points.  The pool is built at once, so a Peirce
    system on another algebra and then a run without samples are rejected
    before any case is taken.  phi maps each pool point once in this scan
    and keeps nothing, so every call sees the map as it is.
    """
    pool = sample_pool(phi, p, _HEAD if samples <= _HEAD ** 2 else 64, seed)
    if samples < 1:
        raise MapError(f"samples must be >= 1, got {samples}")
    image = cache(phi)
    return ((a, b, image(a), image(b)) for a, b in _pairs(pool, samples, seed))


# -- condition reports -----------------------------------------------------


@dataclass(frozen=True)
class MapWitness:
    kind: str
    inputs: tuple[Element, ...]
    lhs: Element
    rhs: Element


@dataclass(frozen=True)
class ConditionReport:
    check: str
    n: Optional[int]
    samples_run: int
    refuted: bool
    verdict: str = field(init=False)
    witness: Optional[MapWitness]

    def __post_init__(self):
        object.__setattr__(self, "verdict", "refuted" if self.refuted
                           else f"not refuted ({self.samples_run} samples)")


def _reports(n: Optional[int], found: dict) -> list[ConditionReport]:
    """The reports of a first-witness scan; a witness refutes its law, and
    samples_run counts the cases run up to it."""
    return [ConditionReport(check, n, run, w is not None, w)
            for check, (run, w) in found.items()]


def _equation(kind: str, sides: Callable[..., tuple],
              case: tuple) -> Optional[MapWitness]:
    """The law lhs == rhs, where sides(*case) = (inputs, lhs, rhs)."""
    w = MapWitness(kind, *sides(*case))
    return None if (w.lhs - w.rhs).is_zero() else w


def require_condition_arity(n: int) -> None:
    """2 <= n <= MAX_ARITY, checkable before the map is loaded."""
    if n < 2:
        raise MapError("jordan condition needs n >= 2")
    if n > MAX_ARITY:
        raise MapError(f"jordan condition needs n <= {MAX_ARITY}, got {n}")


def check_jordan_condition(phi: AlgebraMap, peirce: PeirceSystem, n: int,
                           samples: int, seed: int) -> ConditionReport:
    """phi(q_n(xi,...,xi,a,b)) = q_n(phi(xi),...,phi(xi),phi(a),phi(b)) for
    xi in {1, e1, e2}, over sampled pairs (a, b).  Requires a unital map.
    Both sides fold through one step memo; the pool, not samples, bounds
    its size."""
    require_condition_arity(n)
    require_star_algebra_laws(phi.codomain)
    if not check_unital(phi):
        raise MapError("jordan condition requires a unital map")
    cases = _mapped_pairs(phi, peirce, samples, seed)
    memo: dict = {}
    # at n = 2 every xi prefix is empty, so the three heads are one case
    xis = (("1", phi.domain.unit), ("e1", peirce.e1), ("e2", peirce.e2))
    heads = [(tag, [xi] * (n - 2), [phi(xi)] * (n - 2))
             for tag, xi in xis[:1 if n == 2 else 3]]

    def law(case: tuple[Element, ...]) -> Optional[MapWitness]:
        a, b, img_a, img_b = case
        for tag, dom, cod in heads:
            lhs = phi(_q_cached(dom + [a, b], memo))
            rval = _q_cached(cod + [img_a, img_b], memo)
            if not (lhs - rval).is_zero():
                return MapWitness(f"xi={tag}", (a, b), lhs, rval)
        return None

    return _reports(n, first_witnesses(cases, {"jordan_condition": law}))[0]


@dataclass(frozen=True)
class IsomorphismReport:
    checks: tuple[ConditionReport, ...]
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", not any(c.refuted
                                               for c in self.checks))

    def check(self, name: str) -> ConditionReport:
        for c in self.checks:
            if c.check == name:
                return c
        raise KeyError(name)


def check_star_ring_isomorphism(phi: AlgebraMap, peirce: PeirceSystem,
                                samples: int, seed: int) -> IsomorphismReport:
    """Additivity, multiplicativity, star preservation, exact bijectivity,
    idempotent images and Peirce-block preservation.

    For an unpatched phi, the three equations and the block law are first
    decided on basis cases; a law that holds there reports the scan's
    length as samples_run, and one that fails keeps its sampled scan."""
    require_star_algebra_laws(phi.codomain)
    pairs = _mapped_pairs(phi, peirce, samples, seed)
    laws = {
        "additivity": lambda a, b, fa, fb: ((a, b), phi(a + b), fa + fb),
        "multiplicativity": lambda a, b, fa, fb: ((a, b), phi(a * b),
                                                  fa * fb),
        "star_preservation": lambda a, b, fa, fb: ((a,), phi(a.star()),
                                                   fa.star()),
    }
    proofs = {}
    if not phi.patches:
        # an unpatched phi is C-linear or C-antilinear, so it is additive,
        # and both sides of each other law are linear or antilinear alike
        # in each argument: they agree everywhere if on basis vectors.  phi
        # maps each basis vector once, when a proof first takes it
        basis = phi.domain.basis()
        image = cache(phi)
        proofs = {
            "additivity": (0, ()),
            "multiplicativity": (len(basis) ** 2, (
                (a, b, image(a), image(b)) for a in basis for b in basis)),
            "star_preservation": (len(basis), (
                (b, b, image(b), image(b)) for b in basis)),
        }
    reports = _reports(None, scan_unproved(
        pairs, samples, {check: partial(_equation, check, sides)
                         for check, sides in laws.items()}, proofs))

    def one_shot(check: str, ok: bool,
                 witness: Callable[[], tuple]) -> ConditionReport:
        """A verdict decided in one step; witness() gives the failure's
        (inputs, lhs, rhs) and runs only when ok is false."""
        return ConditionReport(check, None, 0, not ok,
                               None if ok else MapWitness(check, *witness()))

    reports.append(one_shot("linear_part_bijective", bijective_claim(phi),
                            lambda: ((), phi.domain.unit, phi.domain.unit)))

    # images of the idempotents must again be symmetric idempotents
    f1, f2 = phi(peirce.e1), phi(peirce.e2)
    infos = [classify_idempotent(phi.codomain, f) for f in (f1, f2)]
    oks = [i.is_idempotent and i.is_symmetric for i in infos]
    # the witness shows the law that fails: f f = f, else f* = f
    for tag, f, info, ok in zip(("f1", "f2"), (f1, f2), infos, oks):
        reports.append(one_shot(
            f"idempotent_image_{tag}", ok,
            lambda: ((f,), f.star() if info.is_idempotent else f * f, f)))

    # block preservation phi(A_ij) in A'_ij for the image system; without a
    # nontrivial symmetric image idempotent there is no image system for
    # the blocks to land in, so they are refuted outright.  f1 == e1 holds
    # only when the codomain is the domain, whose system is already built
    if all(oks) and not infos[0].is_trivial:
        cod_p = peirce if f1 == peirce.e1 else PeirceSystem(phi.codomain, f1)

        def block(case: tuple) -> Optional[MapWitness]:
            x, ij = case
            img = phi(x)
            if component_of(cod_p, img, ij):
                return None
            # the sum of the blocks is direct, so some off-block part is
            # nonzero; the witness removes the first one
            split = peirce_decompose(cod_p, img)
            bad = next(split[kl] for kl in IJ_PAIRS
                       if kl != ij and not split[kl].is_zero())
            return MapWitness(f"peirce_block_{ij[0]}{ij[1]}", (x,), img,
                              img - bad)

        # a case is (x, ij), x drawn from a nonzero component A_ij
        live = [ij for ij in IJ_PAIRS if peirce.component_bases[ij]]
        cases = ((random_component(peirce, ij, rng), ij)
                 for rng in (derive_rng(seed, "blocks", s)
                             for s in range(samples))
                 for ij in live)
        # A'_ij is a subspace, so an unpatched phi maps A_ij into it when
        # it maps the basis of A_ij into it
        proofs = {} if phi.patches else {"peirce_blocks": (
            phi.domain.dim, ((b, ij) for ij in live
                             for b in peirce.component_bases[ij]))}
        reports += _reports(None, scan_unproved(
            cases, samples * len(live), {"peirce_blocks": block}, proofs))
    else:
        reports.append(one_shot("peirce_blocks", False,
                                lambda: ((), f1, f1)))

    return IsomorphismReport(tuple(reports))


@dataclass(frozen=True)
class MapCheckReport:
    jordan_condition: ConditionReport
    isomorphism_checks: tuple[ConditionReport, ...]
    refuted: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "refuted", any(
            c.refuted for c in (self.jordan_condition,
                                *self.isomorphism_checks)))
