"""Scalar arithmetic against an independent Fraction-pair oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as hst

from altstar.scalars import (I, MINUS_ONE, ONE, Scalar, ScalarError, TWO,
                             ZERO, format_scalar, half_power, integer,
                             parse_scalar, rational)

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


def o_inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


small = hst.integers(min_value=-30, max_value=30)
denom = hst.integers(min_value=1, max_value=12)
scalars = hst.builds(Scalar, small, small, denom)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


@given(scalars, scalars)
def test_add_sub_mul_match_oracle(x, y):
    assert o_pair(x + y) == o_add(o_pair(x), o_pair(y))
    assert o_pair(x - y) == o_sub(o_pair(x), o_pair(y))
    assert o_pair(x * y) == o_mul(o_pair(x), o_pair(y))


@given(scalars)
def test_neg_conj_match_oracle(x):
    assert o_pair(-x) == (-x.re, -x.im)
    assert o_pair(x.conj()) == o_conj(o_pair(x))


@given(scalars, nonzero_scalars)
def test_division_matches_oracle(x, y):
    assert o_pair(x / y) == o_mul(o_pair(x), o_inv(o_pair(y)))


@given(nonzero_scalars)
def test_inverse_is_reciprocal(x):
    assert x * x.inverse() == ONE
    assert x.inverse() == ONE / x


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


def test_division_by_zero_rejected():
    with pytest.raises(ScalarError):
        ONE / ZERO
    with pytest.raises(ScalarError):
        ZERO.inverse()


def test_constants():
    assert I * I == MINUS_ONE
    assert ONE + ONE == TWO
    assert integer(7) == Scalar(7)
    assert rational(3, 6) == Scalar(1, 0, 2)
    assert half_power(3) == rational(1, 8)
    assert half_power(0) == ONE


def test_format_examples():
    assert format_scalar(Scalar(3)) == "3"
    assert format_scalar(rational(-1, 2)) == "-1/2"
    assert format_scalar(I) == "0+1i"
    assert format_scalar(Scalar(2, -15, 3)) == "2/3-5i"
    assert format_scalar(ZERO) == "0"
    assert format_scalar(Scalar(1, 1, 2)) == "1/2+1/2i"


def test_parse_examples():
    assert parse_scalar("3") == integer(3)
    assert parse_scalar("-1/2") == rational(-1, 2)
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
