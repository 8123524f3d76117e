"""Deterministic random sampling helpers.

Every sampled object is derived from a caller-supplied integer seed plus a
string tag, so reports are reproducible and independent of batching order.
Coordinates are kept small (numerators -3..3, denominators 1..2) to bound
exact-arithmetic growth through deep product expressions.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Sequence

from .algebra import Algebra, Element, _element
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
    """sum_t s_t b_t with one random scalar s_t per basis vector, in order,
    summed on integer numerators over one common denominator."""
    if not basis:
        raise ValueError("empty basis")
    terms = [(random_scalar(rng), b) for b in basis]
    den = lcm(*(s.d * b.den for s, b in terms))
    n = basis[0].algebra.dim
    re = [0] * n
    im = [0] * n
    for s, b in terms:
        f = den // (s.d * b.den)
        p, q = s.a * f, s.b * f
        for k, (x, y) in enumerate(zip(b.re, b.im)):
            if x or y:
                re[k] += p * x - q * y
                im[k] += p * y + q * x
    return _element(basis[0].algebra, re, im, den)
