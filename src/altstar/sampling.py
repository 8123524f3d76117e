"""Deterministic random sampling helpers.

Every sampled object is derived from a caller-supplied integer seed plus a
string tag, so reports are reproducible and independent of batching order.
Coordinates are kept small (numerators -3..3, denominators 1..2) to bound
exact-arithmetic growth through deep product expressions.  A draw goes
straight to integer numerators over 2 (``_draws``), with no Scalar in
between; ``random_scalar`` is the same draw as a Scalar.  Draws read the
Mersenne Twister with ``getrandbits`` and redraw out-of-range values, as
``randint`` does for these ranges, so they consume the same stream;
``tests/test_sampling.py`` pins them to ``randint`` on the running
interpreter.
"""

from __future__ import annotations

import random
from itertools import compress
from math import lcm
from operator import or_
from typing import Iterator, Sequence

from .algebra import Algebra, Element, _element
from .scalars import Scalar


def derive_rng(seed: int, *tags: object) -> random.Random:
    key = str(seed) + "".join(f"|{t}" for t in tags)
    return random.Random(key)


def _draws(rng: random.Random, count: int) -> Iterator[tuple[int, int]]:
    """count random scalars as numerators (re, im) over 2: re and im in
    -3..3, then the denominator in 1..2, drawn in that order.  Each is
    randint's draw: 3 bits redrawn while 7 for -3..3, and 2 bits redrawn
    while above 1 for 1..2."""
    bits = rng.getrandbits
    for _ in range(count):
        re = bits(3)
        while re == 7:
            re = bits(3)
        im = bits(3)
        while im == 7:
            im = bits(3)
        d = bits(2)
        while d > 1:
            d = bits(2)
        f = 2 - d  # 2 / denominator
        yield (re - 3) * f, (im - 3) * f


def random_scalar(rng: random.Random) -> Scalar:
    (p, q), = _draws(rng, 1)
    return Scalar(p, q, 2)


def random_element(a: Algebra, rng: random.Random) -> Element:
    """One random scalar per coordinate, in order, over 2."""
    re, im = zip(*_draws(rng, a.dim))
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
    for b, (p, q) in zip(basis, _draws(rng, len(basis))):
        if not (p or q):
            continue
        f = den // b.den
        p, q = p * f, q * f
        bre, bim = b.re, b.im
        for k in compress(range(n), map(or_, bre, bim)):
            x = bre[k]
            y = bim[k]
            re[k] += p * x - q * y
            im[k] += p * y + q * x
    return _element(basis[0].algebra, re, im, 2 * den)
