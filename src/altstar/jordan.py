"""Recursive *-Jordan products and the closed-form identity catalog.

The binary product is {x, y} = x y + y x*.  The n-ary family is the
left-nested recursion

    q_1(x) = x,        q_n(x_1, ..., x_n) = {q_{n-1}(x_1, ..., x_{n-1}), x_n}.

Useful consequences, all derivable by unwinding the recursion once per slot:
an idempotent prefix doubles each step (q_k(e, ..., e) = 2^{k-1} e), a prefix
of units doubles each step, and an off-diagonal Peirce component does NOT
double under a further idempotent slot (x_ij e_i = 0 for i != j), which is
where several of the catalogued displayed forms lose a power of two.

The one fold, ``_q_cached``, memoizes steps: {val, x} under the key
(val, x).  The product is deterministic and ``Element`` equality includes
the algebra, so one memo may serve many folds, on both sides of a map.

Each catalog entry carries two closed forms for the same argument pattern:
``derived`` (independently computed from the recursion, the expected truth)
and ``display`` (the closed form as displayed in the source material this
catalog audits, transcribed without correction).  ``display`` is None for
an entry that displays its derived form; only ID-H, J, K and L display a
different one.  ``verbatim_match`` records per run whether the displayed
form agreed with every sample; a run is one ``first_witnesses`` scan of the
two forms.  ``audit_catalog`` groups the runs of each entry in one
``EntryAudit``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from typing import Callable, Optional, Sequence

from .algebra import AlgebraError, Element, first_witnesses
from .peirce import PeirceSystem, random_component
from .sampling import derive_rng, random_element
from .scalars import TWO, half_power


# every arity n is bounded before a list of n arguments is built; the
# deepest catalog audit in use runs to n = 12
MAX_ARITY = 64


def jordan_star(x: Element, y: Element) -> Element:
    """{x, y} = x y + y x*."""
    return x * y + y * x.star()


def q_star(args: Sequence[Element]) -> Element:
    """Left-nested n-ary product; n = len(args) >= 1."""
    if not args:
        raise AlgebraError("q_star needs at least one argument")
    # arguments from different algebras fail at the first product
    return _q_cached(args, {})


def _q_cached(args: Sequence[Element], cache: dict) -> Element:
    # the left fold; a step (val, x) already in cache, from any fold, is
    # not recomputed
    val = args[0]
    for x in args[1:]:
        step = cache.get((val, x))
        if step is None:
            step = cache[(val, x)] = jordan_star(val, x)
        val = step
    return val


def collapse_prefix(e: Element, m: int) -> list[Element]:
    """m slots of scaled copies of e whose nested product is exactly e.

    q_m(e, ..., e, (1/2^{m-1}) e) = e for an idempotent e, since each slot
    doubles the accumulated multiple.
    """
    if m < 1:
        raise AlgebraError("prefix needs at least one slot")
    return [e] * (m - 1) + [e.scale(half_power(m - 1))]


# -- catalog ---------------------------------------------------------------


# Variant labels: no index, each i, or each ordered pair i != j.
_NO_INDEX = ("-",)
_EACH_I = ("i=1", "i=2")
_EACH_IJ = ("i=1,j=2", "i=2,j=1")


@dataclass(frozen=True)
class IdentityEntry:
    """One catalogued identity q_n(args) = closed form.

    ``frees`` declares the free arguments in draw order as (name, component)
    pairs.  A component is None (the whole algebra), a Peirce template such
    as "ij", "ji", "ii" or "12" read against the variant's indices, the same
    with a trailing "?" (zero when the component is zero-dimensional), or a
    pair of earlier names (their sum: t = t12 + t21 in ID-D and ID-E).  A
    variant runs only when every component without "?" is nonzero.
    """
    entry_id: str
    pattern: str
    derived_form: str
    notes: str
    n_min: int
    variants: tuple[str, ...]
    frees: tuple[tuple[str, object], ...]
    args: Callable[[PeirceSystem, str, int, dict], list[Element]]
    derived: Callable[[PeirceSystem, str, int, dict], Element]
    # None: the entry displays its derived form
    display_form: Optional[str] = None
    display: Optional[Callable[[PeirceSystem, str, int, dict], Element]] = None

    def live_variants(self, p: PeirceSystem) -> list[str]:
        """The variants whose required components are all nonzero."""
        dims = p.component_dims()
        return [v for v in self.variants
                if all(dims[_component(c, v)] for _, c in self.frees
                       if isinstance(c, str) and not c.endswith("?"))]


@dataclass(frozen=True)
class IdentitySample:
    variant: str
    frees: dict
    lhs: Element
    rhs: Element
    residual: Element


@dataclass(frozen=True)
class EntryRun:
    n: int
    samples: int
    skipped: Optional[str]
    derived_ok: bool
    verbatim_match: bool
    derived_counterexample: Optional[IdentitySample]
    display_counterexample: Optional[IdentitySample]


@lru_cache(maxsize=None)  # a few calls per sample, keyed on catalog strings
def _component(template: str, variant: str) -> tuple[int, ...]:
    """The indices a template names under a variant: "ji" under "i=1,j=2"
    is (2, 1), "12" is (1, 2) under any variant; a trailing "?" is ignored."""
    index = dict(kv.split("=") for kv in variant.split(",") if "=" in kv)
    return tuple(int(index.get(c, c)) for c in template.rstrip("?"))


def _ei(p: PeirceSystem, variant: str, index: str = "i") -> Element:
    return p.idempotent(*_component(index, variant))


def _draw(p: PeirceSystem, entry: IdentityEntry, variant: str,
          rng: random.Random) -> dict[str, Element]:
    """One sample of the entry's frees, drawn in declaration order."""
    frees: dict[str, Element] = {}
    for name, c in entry.frees:
        if c is None:
            frees[name] = random_element(p.algebra, rng)
        elif isinstance(c, tuple):
            frees[name] = frees[c[0]] + frees[c[1]]
        else:
            ij = _component(c, variant)
            frees[name] = (random_component(p, ij, rng)
                           if p.component_bases[ij] else p.algebra.zero())
    return frees


# t = t12 + t21 with zero diagonal; A21 may be zero (t21 = 0), A12 may not
_T_OFFDIAG = (("t12", "12"), ("t21", "21?"), ("t", ("t12", "t21")),
              ("c12", "12"))


def _entry_b() -> IdentityEntry:
    def rhs(p, v, n, f):
        e, t = _ei(p, v), f["t"]
        return (e * t + t * e).scale(half_power(2 - n))

    return IdentityEntry(
        entry_id="ID-B",
        pattern="q_n(e_i, ..., e_i, t) with n-1 idempotent slots, t free",
        derived_form="2^(n-2) (e_i t + t e_i)",
        notes="",
        n_min=2,
        variants=_EACH_I,
        frees=(("t", None),),
        args=lambda p, v, n, f: [_ei(p, v)] * (n - 1) + [f["t"]],
        derived=rhs,
    )


def _entry_c() -> IdentityEntry:
    return IdentityEntry(
        entry_id="ID-C",
        pattern=("q_n(e1, ..., (1/2^(n-2)) e1, x12): scaled idempotent prefix "
                 "collapsing to e1, then a free A12 component"),
        derived_form="e1 x12 + x12 e1 (= x12)",
        notes=("prefix scale normalized to 1/2^(n-2) so the n-1 leading slots "
               "collapse to exactly e1; the source text's 1/2^(n-1) halves "
               "the displayed value under an arity-n reading"),
        n_min=2,
        variants=_NO_INDEX,
        frees=(("x12", "12"),),
        args=lambda p, v, n, f: collapse_prefix(p.e1, n - 1) + [f["x12"]],
        derived=lambda p, v, n, f: p.e1 * f["x12"] + f["x12"] * p.e1,
    )


def _args_d(p: PeirceSystem, n: int, f: dict) -> list[Element]:
    return collapse_prefix(p.e2, n - 2) + [f["t"], f["c12"]]


def _entry_d() -> IdentityEntry:
    def rhs(p, v, n, f):
        t12, t21, c12 = f["t12"], f["t21"], f["c12"]
        return (t21 * c12 + t12 * c12 + c12 * t21.star()
                + c12 * t12.star())

    return IdentityEntry(
        entry_id="ID-D",
        pattern=("q_n(e2, ..., (1/2^(n-3)) e2, t, c12): collapsed e2 prefix, "
                 "then t with zero diagonal (t = t12 + t21) and c12 in A12"),
        derived_form="t21 c12 + t12 c12 + c12 t21^* + c12 t12^*",
        notes=("prefix scale normalized to collapse exactly (see ID-C note); "
               "with the collapse the displayed right side is exact"),
        n_min=3,
        variants=_NO_INDEX,
        frees=_T_OFFDIAG,
        args=lambda p, v, n, f: _args_d(p, n, f),
        derived=rhs,
    )


def _entry_e() -> IdentityEntry:
    def rhs(p, v, n, f):
        prod = f["t21"] * f["c12"]
        return (prod + prod.star()).scale(TWO)

    return IdentityEntry(
        entry_id="ID-E",
        pattern=("q_n(e2, ..., (1/2^(n-3)) e2, D, e2) where D is the ID-D "
                 "product for the same t, c12"),
        derived_form="2 (t21 c12 + (t21 c12)^*)",
        notes="inner argument D is evaluated through the recursion itself",
        n_min=3,
        variants=_NO_INDEX,
        frees=_T_OFFDIAG,
        args=lambda p, v, n, f: collapse_prefix(p.e2, n - 2)
        + [q_star(_args_d(p, n, f)), p.e2],
        derived=rhs,
    )


def _entry_f() -> IdentityEntry:
    def rhs(p, v, n, f):
        t11, t22 = p.project(f["t"], (1, 1)), p.project(f["t"], (2, 2))
        return (t11 - t22).scale(half_power(1 - n))

    return IdentityEntry(
        entry_id="ID-F",
        pattern="q_n(1, ..., 1, e1 - e2, t) with n-2 unit slots, t free",
        derived_form="2^(n-1) (t11 - t22)",
        display_form="2^(n-2) * (2 t11 - 2 t22)",
        notes=("the source displays the equation with the common factor "
               "2^(n-2) cancelled; restored here, the two forms coincide"),
        n_min=2,
        variants=_NO_INDEX,
        frees=(("t", None),),
        args=lambda p, v, n, f: [p.algebra.unit] * (n - 2)
        + [p.e1 - p.e2, f["t"]],
        derived=rhs,
    )


def _entry_g() -> IdentityEntry:
    def rhs(p, v, n, f):
        a12, b12 = f["a12"], f["b12"]
        return a12 + a12 * b12 + a12.star() + b12 * a12.star()

    return IdentityEntry(
        entry_id="ID-G",
        pattern=("q_n(1, ..., 1, a12, (1/2^(n-2)) (e2 + b12)) with n-2 unit "
                 "slots and free A12 components a12, b12"),
        derived_form="a12 + a12 b12 + a12^* + b12 a12^*",
        notes="the unit prefix doubles n-2 times, cancelled by the scale",
        n_min=2,
        variants=_NO_INDEX,
        frees=(("a12", "12"), ("b12", "12")),
        args=lambda p, v, n, f: [p.algebra.unit] * (n - 2)
        + [f["a12"], (p.e2 + f["b12"]).scale(half_power(n - 2))],
        derived=rhs,
    )


def _entry_h() -> IdentityEntry:
    def derived(p, v, n, f):
        a, b = f["a"], f["b"]
        return a + b + a.star() + a * b + b * a.star()

    def display(p, v, n, f):
        # the displayed product pairs a_ij with a (j,i) component of b;
        # b lies in A_ij, so that component is zero and the term drops
        a, b = f["a"], f["b"]
        return a + b + a.star() + b * a.star()

    def args(p, v, n, f):
        return ([p.algebra.unit] * (n - 2)
                + [(_ei(p, v) + f["a"]).scale(half_power(n - 2)),
                   _ei(p, v, "j") + f["b"]])

    return IdentityEntry(
        entry_id="ID-H",
        pattern=("q_n(1, ..., 1, (1/2^(n-2)) (e_i + a_ij), e_j + b_ij) with "
                 "free A_ij components a, b"),
        derived_form="a + b + a^* + a b + b a^*",
        display_form="a + b + a^* + [a b_ji] + b a^*",
        notes=("the displayed middle term multiplies a by a (j,i) component "
               "that the argument list never provides; it is read as the "
               "A_ji part of b, which is zero.  The derived form's a b term "
               "lies in A_ij A_ij: zero associatively, nonzero on zorn"),
        n_min=2,
        variants=_EACH_IJ,
        frees=(("a", "ij"), ("b", "ij")),
        args=args,
        derived=derived,
        display=display,
    )


def _entry_i() -> IdentityEntry:
    def rhs(p, v, n, f):
        return (f["a"] + f["a"].star()).scale(half_power(2 - n))

    return IdentityEntry(
        entry_id="ID-I",
        pattern="q_n(1, ..., 1, a, 1) with n-2 leading unit slots, a free",
        derived_form="2^(n-2) (a + a^*)",
        notes="",
        n_min=2,
        variants=_NO_INDEX,
        frees=(("a", None),),
        args=lambda p, v, n, f: [p.algebra.unit] * (n - 2)
        + [f["a"], p.algebra.unit],
        derived=rhs,
    )


def _ab_sym(f: dict, k: int) -> Element:
    """(a b + b a^*) / 2^k, the derived form of ID-J, K and L."""
    a, b = f["a"], f["b"]
    return (a * b + b * a.star()).scale(half_power(k))


def _entry_j() -> IdentityEntry:
    return IdentityEntry(
        entry_id="ID-J",
        pattern=("q_n(e_i, ..., e_i, a_ii, b_ij) with n-2 idempotent slots, "
                 "a in A_ii, b in A_ij, i != j"),
        derived_form="2^(n-2) (a b + b a^*)",
        display_form="2^(n-2) a b",
        notes=("the b a^* term lies in A_ij A_ii with j != i, which vanishes "
               "in every alternative algebra, so the two forms agree"),
        n_min=2,
        variants=_EACH_IJ,
        frees=(("a", "ii"), ("b", "ij")),
        args=lambda p, v, n, f: [_ei(p, v)] * (n - 2) + [f["a"], f["b"]],
        derived=lambda p, v, n, f: _ab_sym(f, 2 - n),
        display=lambda p, v, n, f: (f["a"] * f["b"]).scale(half_power(2 - n)),
    )


def _entry_k() -> IdentityEntry:
    return IdentityEntry(
        entry_id="ID-K",
        pattern=("q_n(e_i, ..., e_i, a_ij, b_ji) with n-2 idempotent slots, "
                 "a in A_ij, b in A_ji, i != j"),
        derived_form="2^(n-3) (a b + b a^*)",
        display_form="2^(n-3) a b",
        notes=("the omitted b a^* term lies in A_ji A_ji: zero associatively "
               "(verbatim holds on matrix algebras), nonzero on zorn"),
        n_min=3,
        variants=_EACH_IJ,
        frees=(("a", "ij"), ("b", "ji")),
        args=lambda p, v, n, f: [_ei(p, v)] * (n - 2) + [f["a"], f["b"]],
        derived=lambda p, v, n, f: _ab_sym(f, 3 - n),
        display=lambda p, v, n, f: (f["a"] * f["b"]).scale(half_power(3 - n)),
    )


def _entry_l() -> IdentityEntry:
    return IdentityEntry(
        entry_id="ID-L",
        pattern=("q_n(e_i, ..., e_i, a_ij, b_ij) with n-2 idempotent slots "
                 "and both free components in A_ij, i != j"),
        derived_form="2^(n-3) (a b + b a^*)",
        display_form="2^(n-2) a b",
        notes=("the displayed form both doubles the true coefficient (an "
               "off-diagonal slot does not double: a_ij e_i = 0) and omits "
               "b a^*, which lies in A_ij A_ji and is nonzero even in "
               "associative algebras; verbatim_match is false on matrix "
               "algebras too, e.g. q_3(E11, E12, E12) = E11, displayed 0"),
        n_min=3,
        variants=_EACH_IJ,
        frees=(("a", "ij"), ("b", "ij")),
        args=lambda p, v, n, f: [_ei(p, v)] * (n - 2) + [f["a"], f["b"]],
        derived=lambda p, v, n, f: _ab_sym(f, 3 - n),
        display=lambda p, v, n, f: (f["a"] * f["b"]).scale(half_power(2 - n)),
    )


def _entry_m() -> IdentityEntry:
    return IdentityEntry(
        entry_id="ID-M",
        pattern="q_n(e1, ..., e1, e2, x) with n-2 idempotent slots, x free",
        derived_form="0",
        notes="the prefix against e2 annihilates: {2^(n-3) e1, e2} = 0",
        n_min=3,
        variants=_NO_INDEX,
        frees=(("x", None),),
        args=lambda p, v, n, f: [p.e1] * (n - 2) + [p.e2, f["x"]],
        derived=lambda p, v, n, f: p.algebra.zero(),
    )


def _entry_n() -> IdentityEntry:
    def rhs(p, v, n, f):
        e = _ei(p, v)
        x = f["x"]
        xs = x.star()
        return ((e * x) * e + x * e + e * (xs * e)
                + e * xs).scale(half_power(3 - n))

    return IdentityEntry(
        entry_id="ID-N",
        pattern="q_n(e_i, ..., e_i, x, e_i) with n-2 idempotent slots, x free",
        derived_form="2^(n-3) (e_i x e_i + x e_i + e_i x^* e_i + e_i x^*)",
        notes="e_i x e_i is unambiguous: alternative algebras are flexible",
        n_min=3,
        variants=_EACH_I,
        frees=(("x", None),),
        args=lambda p, v, n, f: [_ei(p, v)] * (n - 2) + [f["x"], _ei(p, v)],
        derived=rhs,
    )


CATALOG: tuple[IdentityEntry, ...] = (
    _entry_b(), _entry_c(), _entry_d(), _entry_e(), _entry_f(), _entry_g(),
    _entry_h(), _entry_i(), _entry_j(), _entry_k(), _entry_l(), _entry_m(),
    _entry_n(),
)


def catalog_entry(entry_id: str) -> IdentityEntry:
    for e in CATALOG:
        if e.entry_id == entry_id:
            return e
    raise KeyError(entry_id)


def verify_identity(entry: IdentityEntry, p: PeirceSystem, n: int,
                    samples: int, seed: int) -> EntryRun:
    """Evaluate the recursion against both closed forms on seeded samples;
    an entry whose display is its derived form is evaluated once, and a
    form is no longer evaluated once it has a counterexample."""
    if samples < 1:
        raise AlgebraError(f"samples must be >= 1, got {samples}")
    if n > MAX_ARITY:
        raise AlgebraError(f"arity must be <= {MAX_ARITY}, got {n}")
    if n < entry.n_min:
        return EntryRun(n, 0, f"requires n >= {entry.n_min}", True, True,
                        None, None)
    variants = entry.live_variants(p)
    if not variants:
        return EntryRun(n, 0, "required Peirce component is zero-dimensional",
                        True, True, None, None)
    cache: dict = {}

    def cases():
        # a case is (variant, frees, lhs), folded through the one memo
        for s, v in product(range(samples), variants):
            frees = _draw(p, entry, v,
                          derive_rng(seed, entry.entry_id, n, v, s))
            yield v, frees, _q_cached(entry.args(p, v, n, frees), cache)

    def law(form: Callable, case: tuple) -> Optional[IdentitySample]:
        v, frees, lhs = case
        rhs = form(p, v, n, frees)
        return (None if lhs == rhs
                else IdentitySample(v, frees, lhs, rhs, lhs - rhs))

    laws = {"derived": partial(law, entry.derived)}
    if entry.display is not None:
        laws["display"] = partial(law, entry.display)
    found = first_witnesses(cases(), laws)
    derived_bad = found["derived"][1]
    display_bad = found.get("display", found["derived"])[1]
    return EntryRun(n, samples, None, derived_bad is None, display_bad is None,
                    derived_bad, display_bad)


@dataclass(frozen=True)
class EntryAudit:
    id: str
    runs: tuple[EntryRun, ...]


@dataclass(frozen=True)
class CatalogReport:
    entries: tuple[EntryAudit, ...]  # in CATALOG order

    @property
    def derived_all_ok(self) -> bool:
        return all(r.derived_ok for e in self.entries for r in e.runs)


def require_audit_range(n_min: int, n_max: int) -> None:
    """2 <= n_min <= n_max <= MAX_ARITY, checkable before any build."""
    if n_min < 2 or n_max < n_min:
        raise AlgebraError("audit needs 2 <= n_min <= n_max")
    if n_max > MAX_ARITY:
        raise AlgebraError(f"audit needs n_max <= {MAX_ARITY}, got {n_max}")


def audit_catalog(p: PeirceSystem, n_min: int, n_max: int, samples: int,
                  seed: int) -> CatalogReport:
    require_audit_range(n_min, n_max)
    return CatalogReport(tuple(
        EntryAudit(entry.entry_id,
                   tuple(verify_identity(entry, p, n, samples, seed)
                         for n in range(n_min, n_max + 1)))
        for entry in CATALOG))
