"""Scalar arithmetic against an independent Fraction-pair oracle, and the
one-pass literal parser against the regex parser it replaced."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

from altstar.scalars import (I, MINUS_ONE, ONE, Scalar, ScalarError, TWO,
                             ZERO, format_scalar, half_power, parse_scalar)

# oracle: a Gaussian rational is an ordered pair of Fractions (re, im)


def o_pair(s: Scalar) -> tuple[Fraction, Fraction]:
    return (s.re, s.im)


def o_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def o_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def o_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def o_conj(x):
    return (x[0], -x[1])


small = hst.integers(min_value=-30, max_value=30)
denom = hst.integers(min_value=1, max_value=12)
scalars = hst.builds(Scalar, small, small, denom)


@given(scalars, scalars)
def test_add_sub_mul_match_oracle(x, y):
    assert o_pair(x + y) == o_add(o_pair(x), o_pair(y))
    assert o_pair(x - y) == o_sub(o_pair(x), o_pair(y))
    assert o_pair(x * y) == o_mul(o_pair(x), o_pair(y))


@given(scalars)
def test_neg_conj_match_oracle(x):
    assert o_pair(-x) == (-x.re, -x.im)
    assert o_pair(x.conj()) == o_conj(o_pair(x))


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_canonical_representation():
    assert (Scalar(2, 4, 6).a, Scalar(2, 4, 6).b, Scalar(2, 4, 6).d) \
        == (1, 2, 3)
    assert Scalar(1, 0, -2) == Scalar(-1, 0, 2)
    assert Scalar(0, 0, 5) == ZERO
    assert hash(Scalar(2, 2, 2)) == hash(Scalar(1, 1, 1))


def test_zero_denominator_rejected():
    with pytest.raises(ScalarError):
        Scalar(1, 0, 0)


def test_constants():
    assert I * I == MINUS_ONE
    assert ONE + ONE == TWO
    assert Scalar(3, 0, 6) == Scalar(1, 0, 2)
    assert half_power(3) == Scalar(1, 0, 8)
    assert half_power(0) == ONE


def test_format_examples():
    assert format_scalar(Scalar(3)) == "3"
    assert format_scalar(Scalar(-1, 0, 2)) == "-1/2"
    assert format_scalar(I) == "0+1i"
    assert format_scalar(Scalar(2, -15, 3)) == "2/3-5i"
    assert format_scalar(ZERO) == "0"
    assert format_scalar(Scalar(1, 1, 2)) == "1/2+1/2i"


def test_parse_examples():
    assert parse_scalar("3") == Scalar(3)
    assert parse_scalar("-1/2") == Scalar(-1, 0, 2)
    assert parse_scalar("0+1i") == I
    assert parse_scalar("2/3-5i") == Scalar(2, -15, 3)
    assert parse_scalar(" 1/2 + 1/2 i ") == Scalar(1, 1, 2)


def test_parse_rejects_zero_denominator_naming_field():
    with pytest.raises(ScalarError) as exc:
        parse_scalar("1/0", "unit[0]")
    assert "unit[0]" in str(exc.value)
    assert "denominator" in str(exc.value)


@pytest.mark.parametrize("text", ["7" * 5000, "1/" + "7" * 5000,
                                  "1-" + "7" * 5000 + "i",
                                  "1+1/" + "7" * 5000 + "i"],
                         ids=["re", "re-denominator", "im",
                              "im-denominator"])
def test_parse_rejects_a_number_past_the_digit_limit_naming_field(text):
    # Python's int() refuses more than sys.get_int_max_str_digits() digits
    # with a bare ValueError; the parser names the field instead
    with pytest.raises(ScalarError) as exc:
        parse_scalar(text, "gamma[0]")
    assert str(exc.value).startswith("gamma[0]: ")
    assert "digits" in str(exc.value) and "7777" not in str(exc.value)


@pytest.mark.parametrize("bad", ["", "x", "1+", "i", "1//2", "1+2j",
                                 "1 2", "--3", "1/-2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ScalarError):
        parse_scalar(bad)


def test_re_im_are_fractions():
    s = Scalar(3, -4, 6)
    assert s.re == Fraction(1, 2)
    assert s.im == Fraction(-2, 3)


# -- the reference: the literal parser before the one-pass rewrite --------

_PART = r"[0-9]+(?:/[0-9]+)?"
_REF_LITERAL = re.compile(
    rf"^\s*(?P<rsign>[+-])?\s*(?P<re>{_PART})"
    rf"(?:\s*(?P<isign>[+-])\s*(?P<im>{_PART})\s*i)?\s*$"
)


def _ref_part_to_pair(text, what):
    p, _, q = text.partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError:
        raise ScalarError(f"{what}: a number has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    if q == 0:
        raise ScalarError(f"{what}: denominator is zero in {text!r}")
    return p, q


def ref_parse_scalar(text, what="scalar"):
    m = _REF_LITERAL.match(text)
    if m is None:
        raise ScalarError(f"{what}: malformed scalar literal {text!r}")
    p, q = _ref_part_to_pair(m.group("re"), what)
    if m.group("rsign") == "-":
        p = -p
    if m.group("im") is None:
        return Scalar(p, 0, q)
    r, s = _ref_part_to_pair(m.group("im"), what)
    if m.group("isign") == "-":
        r = -r
    return Scalar(p * s, r * q, q * s)


LONG = "7" * 5000
LITERALS = [
    # whitespace
    " 3", "3 ", "\t-1/2\n", " 1/2 + 1/2 i ", "1\n", "1 + 2 i", "\u20031",
    # signs
    "+3", "-3", "+0", "-0", "+1-2i", "-1+2i", "- 4 - 5/6 i", "+ 7/8",
    # zeros and unreduced fractions
    "-0+0i", "0-0i", "2/4-6/8i", "-6/4", "0/5+0/7i", "10/5-4/2i",
    "007/014", "3-5/1i",
    # a zero denominator, in either part and with either part's digits
    "1/0", "-1/0", "1/0+1i", "1+1/0i", "1/00-3i", "1/0+" + LONG + "i",
    "5+" + LONG + "/0i",
    # malformed
    "", " ", "x", "1+", "i", "1//2", "1+2j", "1 2", "--3", "1/-2", "1_0",
    "1.5", "2i", "+i", "1+i", "1/2/3", "1+2i+3i", "\u0661", "1e3", "0x10",
    # the digit limit, in every position, and just below it
    LONG, "-" + LONG, "1/" + LONG, "1-" + LONG + "i", "1+1/" + LONG + "i",
    LONG + "/0", "7" * sys.get_int_max_str_digits(),
    "-" + "7" * sys.get_int_max_str_digits() + "+1i",
]


@pytest.mark.parametrize("text", LITERALS,
                         ids=lambda t: repr(t)[:40])
def test_parse_matches_the_regex_parser(text):
    def outcome(parse):
        try:
            return parse(text, "structure[3].c")
        except ScalarError as exc:
            return f"ScalarError: {exc}"

    assert outcome(parse_scalar) == outcome(ref_parse_scalar)


@given(scalars)
def test_parse_matches_the_regex_parser_on_canonical_literals(x):
    text = format_scalar(x)
    assert parse_scalar(text) == ref_parse_scalar(text) == x
