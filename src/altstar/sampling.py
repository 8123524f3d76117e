"""Deterministic random sampling helpers.

Every sampled object is derived from a caller-supplied integer seed plus a
string tag, so reports are reproducible and independent of batching order.
Coordinates are kept small (numerators -3..3, denominators 1..2) to bound
exact-arithmetic growth through deep product expressions.
"""

from __future__ import annotations

import random
from typing import Sequence

from .algebra import Algebra, Element
from .scalars import Scalar


def derive_rng(seed: int, *tags: object) -> random.Random:
    key = str(seed) + "".join(f"|{t}" for t in tags)
    return random.Random(key)


def random_scalar(rng: random.Random) -> Scalar:
    return Scalar(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 2))


def random_element(a: Algebra, rng: random.Random) -> Element:
    return a.element([random_scalar(rng) for _ in range(a.dim)])


def random_combination(basis: Sequence[Element],
                       rng: random.Random) -> Element:
    if not basis:
        raise ValueError("empty basis")
    out = basis[0].algebra.zero()
    for b in basis:
        out = out + b.scale(random_scalar(rng))
    return out

