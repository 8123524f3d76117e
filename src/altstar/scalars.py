"""Exact Gaussian-rational scalars.

A scalar is (a + b*i)/d with integer a, b and d > 0, kept in lowest terms
(gcd(a, b, d) = 1), so equality of values is structural equality of the
canonical form.  Literal syntax: ``[-]p[/q][(+|-)r[/s]i]``, e.g. ``3``,
``-1/2``, ``0+1i``, ``2/3-5i``.

Scalar is the edge representation: parsing, formatting, ``linalg``, the
structure accessors and the ``coords`` a user reads.  Elements keep
integer numerators over one shared denominator instead, and the hot path
(products, stars, sums, projections) builds no Scalar.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from math import gcd


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

    def inverse(self) -> "Scalar":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ScalarError("division by zero")
        return Scalar(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, o: "Scalar") -> "Scalar":
        return self * o.inverse()

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


_PART = r"[0-9]+(?:/[0-9]+)?"
_LITERAL = _re.compile(
    rf"^\s*(?P<rsign>[+-])?\s*(?P<re>{_PART})"
    rf"(?:\s*(?P<isign>[+-])\s*(?P<im>{_PART})\s*i)?\s*$"
)


def _part_to_pair(text: str, what: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError:  # past the digit limit of Python's int()
        raise ScalarError(f"{what}: a number has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    if q == 0:
        raise ScalarError(f"{what}: denominator is zero in {text!r}")
    return p, q


def parse_scalar(text: str, what: str = "scalar") -> Scalar:
    """Parse a scalar literal; *what* names the field in error messages."""
    m = _LITERAL.match(text)
    if m is None:
        raise ScalarError(f"{what}: malformed scalar literal {text!r}")
    p, q = _part_to_pair(m.group("re"), what)
    if m.group("rsign") == "-":
        p = -p
    if m.group("im") is None:
        return Scalar(p, 0, q)
    r, s = _part_to_pair(m.group("im"), what)
    if m.group("isign") == "-":
        r = -r
    # common denominator q*s, then Scalar() normalizes
    return Scalar(p * s, r * q, q * s)


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
