"""Exact Gaussian-rational scalars Q(i).

All symbolic computation in the package runs over the field Q(i): complex
numbers a + b*i with rational a, b.  Arithmetic is exact (built on
:class:`fractions.Fraction`); there is no floating point anywhere in this
module.  Values are immutable and hashable.  The public constructor coerces
its arguments through ``Fraction()``; arithmetic results, whose parts are
Fractions already, are built by the private ``_make`` without that copy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class QI:
    """A Gaussian rational ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("QI values are immutable")

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
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    # -- arithmetic (results built by the private ``_make``) -------------

    def __add__(self, other) -> "QI":
        other = QI.coerce(other)
        if not self.im and not other.im:
            return _make(self.re + other.re, _FZERO)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "QI":
        return _make(-self.re, -self.im)

    def __sub__(self, other) -> "QI":
        other = QI.coerce(other)
        if not self.im and not other.im:
            return _make(self.re - other.re, _FZERO)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "QI":
        return QI.coerce(other) - self

    def __mul__(self, other) -> "QI":
        other = QI.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _make(a * c, _FZERO)
        return _make(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(i)")
        if not self.im:
            return _make(1 / self.re, _FZERO)
        norm = self.re * self.re + self.im * self.im
        return _make(self.re / norm, -self.im / norm)

    def __truediv__(self, other) -> "QI":
        return self * QI.coerce(other).inverse()

    def __rtruediv__(self, other) -> "QI":
        return QI.coerce(other) * self.inverse()

    # -- conversions ---------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    # -- equality / hashing --------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QI(other)
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_qi(self)


def _frac_str(x: Fraction) -> str:
    return str(x)  # Fraction prints "a" or "a/b"


def format_qi(c: QI) -> str:
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
_set_re = QI.re.__set__
_set_im = QI.im.__set__


def _make(re: Fraction, im: Fraction) -> QI:
    """A QI with the given Fraction parts, stored as they are."""
    c = _new(QI)
    _set_re(c, re)
    _set_im(c, im)
    return c


_ZERO = QI(0)
_ONE = QI(1)
_I = QI(0, 1)
