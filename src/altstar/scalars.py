"""Exact Gaussian-rational scalars.

A scalar is (a + b*i)/d with integer a, b and d > 0, kept in lowest terms
(gcd(a, b, d) = 1), so equality of values is structural equality of the
canonical form.  Literal syntax: ``[-]p[/q][(+|-)r[/s]i]``, e.g. ``3``,
``-1/2``, ``0+1i``, ``2/3-5i``.

Scalar is the edge representation: formatting, the structure accessors,
the Scalar edges of ``linalg`` and the ``coords`` a user reads.  A literal
is read in one pass to integer numerators (``parse_numerators``), and
``parse_scalar`` makes one Scalar of them.  Elements keep integer
numerators over one shared denominator instead, and the hot path
(products, stars, sums, projections, eliminations) builds no Scalar.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


class ScalarError(ValueError):
    """Malformed scalar literal or arithmetic on an invalid value."""


class Scalar:
    __slots__ = ("a", "b", "d")

    def __init__(self, a: int = 0, b: int = 0, d: int = 1):
        if d == 0:
            raise ScalarError("denominator is zero")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self.a = a
        self.b = b
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def conj(self) -> "Scalar":
        return Scalar(self.a, -self.b, self.d)

    def __add__(self, o: "Scalar") -> "Scalar":
        return Scalar(self.a * o.d + o.a * self.d,
                      self.b * o.d + o.b * self.d, self.d * o.d)

    def __sub__(self, o: "Scalar") -> "Scalar":
        return Scalar(self.a * o.d - o.a * self.d,
                      self.b * o.d - o.b * self.d, self.d * o.d)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b, self.d)

    def __mul__(self, o: "Scalar") -> "Scalar":
        return Scalar(self.a * o.a - self.b * o.b,
                      self.a * o.b + self.b * o.a, self.d * o.d)

    def __eq__(self, o: object) -> bool:
        return (isinstance(o, Scalar) and self.a == o.a
                and self.b == o.b and self.d == o.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)


ZERO = Scalar(0)
ONE = Scalar(1)
TWO = Scalar(2)
I = Scalar(0, 1)
MINUS_ONE = Scalar(-1)


def half_power(k: int) -> Scalar:
    """1 / 2**k for k >= 0, 2**(-k) otherwise."""
    return Scalar(1, 0, 2 ** k) if k >= 0 else Scalar(2 ** (-k))


def numerators(coords: Sequence[Scalar]) -> tuple[list[int], list[int],
                                                int]:
    """(re, im, den): coords[k] = (re[k] + i im[k]) / den, over the least
    common denominator of the coords."""
    den = lcm(*(c.d for c in coords))
    fs = [den // c.d for c in coords]
    return ([c.a * f for c, f in zip(coords, fs)],
            [c.b * f for c, f in zip(coords, fs)], den)


def scalars_over(re: Sequence[int], im: Sequence[int],
                 den: int) -> list[Scalar]:
    """The Scalars (re[k] + i im[k]) / den; the zeros share ZERO."""
    return [Scalar(a, b, den) if a or b else ZERO for a, b in zip(re, im)]


_LITERAL = _re.compile(r"\s*([+-]?)\s*([0-9]+)(?:/([0-9]+))?"
                       r"(?:\s*([+-])\s*([0-9]+)(?:/([0-9]+))?\s*i)?\s*")


def _too_long(what: str) -> ScalarError:
    # Python's int() refuses more digits than this with a bare ValueError
    return ScalarError(f"{what}: a number has more than "
                       f"{sys.get_int_max_str_digits()} digits")


def _part(what: str, p: str, q: Optional[str]) -> tuple[int, int]:
    """The digits p over the digits q, or over 1 if q is None."""
    try:
        num, den = int(p), int(q or 1)
    except ValueError:
        raise _too_long(what) from None
    if den == 0:
        raise ScalarError(f"{what}: denominator is zero in {p + '/' + q!r}")
    return num, den


def parse_numerators(text: str, what: str = "scalar") -> tuple[int, int,
                                                               int]:
    """A scalar literal, parsed in one pass, as (re, im, den) with den > 0,
    not reduced; *what* names the field in error messages."""
    m = _LITERAL.fullmatch(text)
    if m is None:
        raise ScalarError(f"{what}: malformed scalar literal {text!r}")
    rsign, p, q, isign, r, s = m.groups()
    if q is None and s is None:
        # integer parts over 1, the common case in files
        try:
            return int(rsign + p), int(isign + r) if r else 0, 1
        except ValueError:
            raise _too_long(what) from None
    p, q = _part(what, p, q)
    if rsign == "-":
        p = -p
    if r is None:
        return p, 0, q
    r, s = _part(what, r, s)
    if isign == "-":
        r = -r
    # common denominator q*s
    return p * s, r * q, q * s


def parse_scalar(text: str, what: str = "scalar") -> Scalar:
    """Parse a scalar literal; *what* names the field in error messages."""
    return Scalar(*parse_numerators(text, what))


def _format_rational(num: int, den: int) -> str:
    return f"{num}/{den}" if den != 1 else str(num)


def format_scalar(s: Scalar) -> str:
    """Canonical literal: real part always present, imaginary part iff nonzero."""
    re_f = s.re
    if s.b == 0:
        return _format_rational(re_f.numerator, re_f.denominator)
    im_f = s.im
    sign = "+" if im_f >= 0 else "-"
    return (_format_rational(re_f.numerator, re_f.denominator) + sign
            + _format_rational(abs(im_f.numerator), im_f.denominator) + "i")
