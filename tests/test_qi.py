"""Exact Gaussian-rational scalar arithmetic, checked against the Fraction-pair
class it replaced."""

import struct
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from germlab.qi import QI, RationalLike, format_qi

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


# -- QI as a pair of Fractions, before it stored integer triples: kept verbatim
# under a new name as the oracle for the tests below ------------------------


class _FractionQI:
    """A Gaussian rational ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("QI values are immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "_FractionQI":
        return _ZERO

    @staticmethod
    def one() -> "_FractionQI":
        return _ONE

    @staticmethod
    def i() -> "_FractionQI":
        return _I

    @classmethod
    def coerce(cls, value) -> "_FractionQI":
        if isinstance(value, _FractionQI):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to QI")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    # -- arithmetic (results built by the private ``_make``) -------------

    def __add__(self, other) -> "_FractionQI":
        other = _FractionQI.coerce(other)
        if not self.im and not other.im:
            return _make(self.re + other.re, _FZERO)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "_FractionQI":
        return _make(-self.re, -self.im)

    def __sub__(self, other) -> "_FractionQI":
        other = _FractionQI.coerce(other)
        if not self.im and not other.im:
            return _make(self.re - other.re, _FZERO)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "_FractionQI":
        return _FractionQI.coerce(other) - self

    def __mul__(self, other) -> "_FractionQI":
        other = _FractionQI.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _make(a * c, _FZERO)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "_FractionQI":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(i)")
        if not self.im:
            return _make(1 / self.re, _FZERO)
        norm = self.re * self.re + self.im * self.im
        return _make(self.re / norm, -self.im / norm)

    def __truediv__(self, other) -> "_FractionQI":
        return self * _FractionQI.coerce(other).inverse()

    def __rtruediv__(self, other) -> "_FractionQI":
        return _FractionQI.coerce(other) * self.inverse()

    # -- conversions ---------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    # -- equality / hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _FractionQI(other)
        if not isinstance(other, _FractionQI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return _fraction_format_qi(self)


def _frac_str(x: Fraction) -> str:
    return str(x)  # Fraction prints "a" or "a/b"


def _fraction_format_qi(c: _FractionQI) -> str:
    """Canonical text form, re-parseable by the polynomial grammar.

    Pure rationals print bare (``3``, ``-1/2``), pure imaginaries print as
    ``i``/``-i``/``2*i``/``-2/3*i``, mixed values are parenthesized in the
    ``(a+b*i)`` shape required by the coefficient grammar.
    """
    if c.is_zero():
        return "0"
    if not c.im:
        return _frac_str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_frac_str(c.im)}*i"
    im = c.im
    if im > 0:
        im_part = "i" if im == 1 else f"{_frac_str(im)}*i"
        return f"({_frac_str(c.re)}+{im_part})"
    im_part = "i" if im == -1 else f"{_frac_str(-im)}*i"
    return f"({_frac_str(c.re)}-{im_part})"


_FZERO = Fraction(0)
_new = object.__new__
_set_re = _FractionQI.re.__set__
_set_im = _FractionQI.im.__set__


def _make(re: Fraction, im: Fraction) -> _FractionQI:
    """A QI with the given Fraction parts, stored as they are."""
    c = _new(_FractionQI)
    _set_re(c, re)
    _set_im(c, im)
    return c


_ZERO = _FractionQI(0)
_ONE = _FractionQI(1)
_I = _FractionQI(0, 1)


# -- the new arithmetic against the Fraction-pair class it replaced -----------

big_rationals = st.builds(Fraction, st.integers(-(10**60), 10**60), st.integers(1, 10**60))
parts = st.one_of(st.just(Fraction(0)), rationals, big_rationals)

# Gaussian primes over rational primes that split in Z[i], and their quotients
# by 5 or by their norm: (1+i)(1-i) = 2, (2+i)/5 * (2-i)/5 = 1/5 and
# (3+4i)/5 = (2+i)^2/5, so their products lose a factor the parts do not show.
SPLIT = [(1, 1), (1, -1), (2, 1), (2, -1), (3, 4), (3, -2), (4, 1)]


@st.composite
def split_products(draw):
    x = _FractionQI(draw(rationals) or 1)
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.sampled_from(SPLIT))
        over = draw(st.sampled_from([1, 5, a * a + b * b]))
        x = x * _FractionQI(Fraction(a, over), Fraction(b, over))
    return x.re, x.im


values = st.one_of(
    st.tuples(parts, parts),
    st.tuples(parts, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), parts),
    st.just((Fraction(0), Fraction(0))),
    split_products(),
)


def _both(parts):
    return QI(*parts), _FractionQI(*parts)


def _assert_canonical(x):
    a, b, d = x._a, x._b, x._d
    assert type(a) is type(b) is type(d) is int
    assert d > 0 and gcd(d, a, b) == 1
    assert a or b or d == 1


def _assert_matches(x, oracle):
    _assert_canonical(x)
    assert type(x.re) is type(x.im) is Fraction
    assert (x.re, x.im) == (oracle.re, oracle.im)
    assert format_qi(x) == _fraction_format_qi(oracle) and str(x) == str(oracle)
    assert repr(x) == repr(oracle)
    assert bool(x) == bool(oracle) and x.is_zero() == oracle.is_zero()
    fresh = QI(oracle.re, oracle.im)
    assert x == fresh and hash(x) == hash(fresh)


@settings(max_examples=400, deadline=None)
@given(values, values, st.integers(-3, 3))
def test_arithmetic_matches_the_fraction_oracle(p, q, k):
    (x, o), (y, w) = _both(p), _both(q)
    _assert_matches(x, o)
    pairs = [(x + y, o + w), (x - y, o - w), (x * y, o * w), (-x, -o),
             (x * k, o * k), (k * x, k * o), (x + k, o + k), (k - x, k - o)]
    if w:
        pairs += [(x / y, o / w), (y.inverse(), w.inverse()), (k / y, k / w)]
    else:
        for fails in (y.inverse, lambda: x / y):
            with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
                fails()
    for got, want in pairs:
        _assert_matches(got, want)
    # equality agrees with the oracle's, and equal values hash alike
    assert (x == y) == (o == w) and (x != y) == (o != w)
    assert (x == k) == (o == k) and (x == Fraction(k, 2)) == (o == Fraction(k, 2))
    if x == y:
        assert hash(x) == hash(y)


def test_products_over_split_primes_come_out_reduced():
    assert QI(1, 1) * QI(1, -1) == 2 and (QI(1, 1) * QI(1, -1))._d == 1
    fifth = QI(Fraction(2, 5), Fraction(1, 5)) * QI(Fraction(2, 5), Fraction(-1, 5))
    assert (fifth._a, fifth._b, fifth._d) == (1, 0, 5)
    square = QI(2, 1) * QI(2, 1) / 5
    assert (square._a, square._b, square._d) == (3, 4, 5)
    assert (square * square.inverse())._d == 1
    assert (QI(1, 1).inverse()._a, QI(1, 1).inverse()._b, QI(1, 1).inverse()._d) == (1, -1, 2)


float_range_edges = st.one_of(
    parts,
    st.builds(Fraction, st.integers(-(10**420), 10**420), st.integers(1, 10**30)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**420)),
    st.builds(Fraction, st.integers(10**400, 10**401), st.integers(10**399, 10**401)),
)


def _words(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


@settings(max_examples=300, deadline=None)
@given(st.tuples(float_range_edges, float_range_edges))
@example((Fraction(10**400), Fraction(0)))
@example((Fraction(1, 3), Fraction(-(10**400), 7)))
@example((Fraction(-1, 10**400), Fraction(1, 6)))
@example((Fraction(-1, 10**400), Fraction(-1, 10**400)))
@example((Fraction(1, 2), Fraction(-1, 10**400)))
def test_to_complex_gives_the_oracle_words(p):
    x, o = _both(p)
    try:
        want = o.to_complex()
    except OverflowError as err:
        with pytest.raises(OverflowError, match=str(err)):
            x.to_complex()
        return
    assert _words(x.to_complex()) == _words(want)
