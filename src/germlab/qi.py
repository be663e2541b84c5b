"""Exact Gaussian-rational scalars Q(i).

All symbolic computation in the package runs over the field Q(i): complex
numbers a + b*i with rational a, b.  A value is three Python ints
``(a, b, d)`` meaning ``(a + b*i)/d``, kept canonical: ``d > 0`` and
``gcd(d, a, b) == 1``, so zero is ``(0, 0, 1)`` and ``==`` compares ints.
Values are immutable and hashable; ``.re`` and ``.im`` read the parts as
:class:`fractions.Fraction`.

Arithmetic cancels before it multiplies, as ``Fraction`` does (Henrici;
Knuth, TAOCP vol. 2, 4.5.1), with the content gcd(a, b) in place of a
numerator.  A product first divides each factor's (a, b) by its gcd with the
other factor's d.  Only a product of two non-real values can then still
share a factor with its denominator, through primes that split in Z[i]
((1+i)(1-i) = 2), so it takes one more gcd.  A sum over coprime denominators
takes no gcd; otherwise it takes one, with the common denominator or with
g = gcd(d1, d2), which every common factor of the result divides.  Only
``to_complex`` leaves exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction]


class QI:
    """A Gaussian rational ``re + im*i`` with exact rational parts."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> "QI":
        re, im = Fraction(re), Fraction(im)  # reduced, so both triples are canonical
        return _sum(re.numerator, 0, re.denominator, 0, im.numerator, im.denominator)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("QI values are immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "QI":
        return _ZERO

    @staticmethod
    def one() -> "QI":
        return _ONE

    @staticmethod
    def i() -> "QI":
        return _I

    @classmethod
    def coerce(cls, value) -> "QI":
        if isinstance(value, QI):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to QI")

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- arithmetic (results built by the private ``_make``) -------------

    def __add__(self, other) -> "QI":
        if other.__class__ is not QI:
            other = QI.coerce(other)
        return _sum(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self) -> "QI":
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other) -> "QI":
        return self + -QI.coerce(other)

    def __rsub__(self, other) -> "QI":
        return QI.coerce(other) - self

    def __mul__(self, other) -> "QI":
        if other.__class__ is not QI:
            other = QI.coerce(other)
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if d2 != 1:
            g = gcd(d2, a1, b1)
            if g != 1:
                a1, b1, d2 = a1 // g, b1 // g, d2 // g
        if d1 != 1:
            g = gcd(d1, a2, b2)
            if g != 1:
                a2, b2, d1 = a2 // g, b2 // g, d1 // g
        if not b1:
            return _make(a1 * a2, a1 * b2, d1 * d2)
        if not b2:
            return _make(a1 * a2, b1 * a2, d1 * d2)
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
        if d != 1:
            g = gcd(d, a, b)
            if g != 1:
                return _make(a // g, b // g, d // g)
        return _make(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero in Q(i)")
            return _make(d, 0, a) if a > 0 else _make(-d, 0, -a)
        norm = a * a + b * b
        g = gcd(norm, a * d, b * d)
        return _make(a * d // g, -b * d // g, norm // g)

    def __truediv__(self, other) -> "QI":
        return self * QI.coerce(other).inverse()

    def __rtruediv__(self, other) -> "QI":
        return QI.coerce(other) * self.inverse()

    # -- conversions ---------------------------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is, so the words
        # (and the OverflowError past the float range) are those of the parts
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    # -- equality / hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not QI:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QI(other)
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_qi(self)


def format_qi(c: QI) -> str:
    """Canonical text form, re-parseable by the polynomial grammar.

    Pure rationals print bare (``3``, ``-1/2``), pure imaginaries print as
    ``i``/``-i``/``2*i``/``-2/3*i``, mixed values are parenthesized in the
    ``(a+b*i)`` shape required by the coefficient grammar.
    """
    re, im = c.re, c.im  # Fractions print "a" or "a/b"
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    if im > 0:
        im_part = "i" if im == 1 else f"{im}*i"
        return f"({re}+{im_part})"
    im_part = "i" if im == -1 else f"{-im}*i"
    return f"({re}-{im_part})"


_new = object.__new__
_set_a = QI._a.__set__
_set_b = QI._b.__set__
_set_d = QI._d.__set__


def _make(a: int, b: int, d: int) -> QI:
    """A QI with the given canonical triple, stored as it is."""
    c = _new(QI)
    _set_a(c, a)
    _set_b(c, b)
    _set_d(c, d)
    return c


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> QI:
    """(a1 + b1*i)/d1 + (a2 + b2*i)/d2 of two canonical triples, canonical."""
    if d1 == d2:
        a, b = a1 + a2, b1 + b2
        if d1 != 1:
            g = gcd(d1, a, b)
            if g != 1:
                return _make(a // g, b // g, d1 // g)
        return _make(a, b, d1)
    g = gcd(d1, d2)
    if g == 1:
        return _make(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    g2 = gcd(g, a, b)
    if g2 == 1:
        return _make(a, b, s * d2)
    return _make(a // g2, b // g2, s * (d2 // g2))


_ZERO = QI(0)
_ONE = QI(1)
_I = QI(0, 1)
