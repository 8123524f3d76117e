"""Deterministic random sampling helpers.

Every sampled object is derived from a caller-supplied integer seed plus a
string tag, so reports are reproducible and independent of batching order.
Coordinates are kept small (numerators -3..3, denominators 1..2) to bound
exact-arithmetic growth through deep product expressions.  A draw goes
straight to integer numerators over 2 (``_draw``), with no Scalar in
between; ``random_scalar`` is the same draw as a Scalar.
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


def _draw(rng: random.Random) -> tuple[int, int]:
    """One random scalar as numerators (re, im) over 2: re and im in -3..3,
    then the denominator in 1..2, drawn in that order."""
    re = rng.randint(-3, 3)
    im = rng.randint(-3, 3)
    f = 3 - rng.randint(1, 2)  # 2 / denominator
    return re * f, im * f


def random_scalar(rng: random.Random) -> Scalar:
    return Scalar(*_draw(rng), 2)


def random_element(a: Algebra, rng: random.Random) -> Element:
    """One random scalar per coordinate, in order, over 2."""
    re = []
    im = []
    for _ in range(a.dim):
        p, q = _draw(rng)
        re.append(p)
        im.append(q)
    return _element(a, re, im, 2)


def random_combination(basis: Sequence[Element],
                       rng: random.Random) -> Element:
    """sum_t s_t b_t with one random scalar s_t per basis vector, in order,
    summed on integer numerators over one common denominator."""
    if not basis:
        raise ValueError("empty basis")
    den = lcm(*(b.den for b in basis))
    n = basis[0].algebra.dim
    re = [0] * n
    im = [0] * n
    for b in basis:
        p, q = _draw(rng)
        f = den // b.den
        p, q = p * f, q * f
        for k, (x, y) in enumerate(zip(b.re, b.im)):
            if x or y:
                re[k] += p * x - q * y
                im[k] += p * y + q * x
    return _element(basis[0].algebra, re, im, 2 * den)
