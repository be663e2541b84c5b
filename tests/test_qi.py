"""Exact Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germlab.qi import QI, format_qi

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
scalars = st.builds(QI, rationals, rationals)


def test_construction_and_equality():
    assert QI(1, 2) == QI(Fraction(1), Fraction(2))
    assert QI(Fraction(1, 2)) == QI(Fraction(2, 4))
    assert QI(3) == 3
    assert QI(0) == 0 and not QI(0)
    assert QI.zero().is_zero()
    assert QI.one() == 1
    assert QI.i() * QI.i() == -1


def test_field_operations_exact():
    a = QI(Fraction(1, 3), Fraction(-2, 5))
    b = QI(Fraction(7, 2), Fraction(1, 4))
    assert a + b == QI(Fraction(23, 6), Fraction(-3, 20))
    assert a - b == QI(Fraction(-19, 6), Fraction(-13, 20))
    # (1/3 - 2i/5)(7/2 + i/4) = 7/6 + 1/10 + i(1/12 - 7/5)
    assert a * b == QI(Fraction(7, 6) + Fraction(1, 10), Fraction(1, 12) - Fraction(7, 5))


def test_inverse_and_division():
    a = QI(3, 4)
    assert a * a.inverse() == QI.one()
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        QI.zero().inverse()


def test_coerce():
    assert QI.coerce(5) == QI(5)
    assert QI.coerce(Fraction(1, 2)) == QI(Fraction(1, 2))
    assert QI.coerce(QI(1, 1)) == QI(1, 1)


def test_to_complex():
    assert QI(Fraction(1, 2), Fraction(-3, 4)).to_complex() == complex(0.5, -0.75)


def test_immutability_and_hash():
    a = QI(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(9)
    assert hash(QI(1, 2)) == hash(QI(1, 2))
    assert len({QI(1, 2), QI(1, 2), QI(2, 1)}) == 2


def test_format():
    assert format_qi(QI.zero()) == "0"
    assert format_qi(QI(Fraction(1, 2))) == "1/2"
    assert format_qi(QI(0, 1)) == "i"
    assert format_qi(QI(0, -1)) == "-i"


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QI.zero() == a
    assert a * QI.one() == a


@given(scalars)
def test_inverse_round_trip(a):
    if not a.is_zero():
        assert a * a.inverse() == QI.one()
        assert (QI.one() / a) == a.inverse()


reals = st.builds(QI, rationals)
imaginaries = st.builds(lambda y: QI(0, y), rationals)
any_qi = st.one_of(scalars, reals, imaginaries)


def _parts(x):
    assert type(x.re) is type(x.im) is Fraction
    return x.re, x.im


@given(any_qi, any_qi)
def test_arithmetic_matches_textbook_formulas(a, b):
    (p, q), (r, s) = _parts(a), _parts(b)
    assert _parts(a * b) == (p * r - q * s, p * s + q * r)
    assert _parts(a + b) == (p + r, q + s)
    assert _parts(a - b) == (p - r, q - s)
    assert _parts(-a) == (-p, -q)
    if a:
        norm = p * p + q * q
        assert _parts(a.inverse()) == (p / norm, -q / norm)
    # results hash, compare and print like freshly constructed values
    for x in (a * b, a + b, a - b, -a):
        fresh = QI(x.re, x.im)
        assert x == fresh and hash(x) == hash(fresh) and format_qi(x) == format_qi(fresh)
