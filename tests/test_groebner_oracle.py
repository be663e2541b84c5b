"""buchberger against an independent implementation: sympy's groebner.

Random ideals of two or three generators in x, y, z, of total degree at
most 3 and without constant terms (so never the unit ideal), over Q and
over Q(i).  Both sides must give the same reduced monic grevlex basis, term
for term.  The sympy polynomials are built from the
terms and the exact real and imaginary parts of each coefficient, so no
text round trip stands between the two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from germlab.groebner import Budget, BudgetExhausted, buchberger
from germlab.orders import grevlex
from germlab.poly import Poly
from germlab.qi import QI

X, Y, Z = sympy.symbols("x y z")

_MONOMIALS = [m for m in itertools.product(range(4), repeat=3) if 1 <= sum(m) <= 3]
_RATIONALS = sorted({Fraction(n, d) for n in range(-3, 4) for d in range(1, 5)})


def _ideals(coefficients):
    terms = st.dictionaries(st.sampled_from(_MONOMIALS), st.sampled_from(coefficients), min_size=1, max_size=4)
    return st.lists(terms.map(lambda t: Poly(3, t)), min_size=2, max_size=3)


_rational_ideals = _ideals([QI(r) for r in _RATIONALS if r])
_gaussian_ideals = _ideals([QI(a, b) for a in _RATIONALS for b in _RATIONALS if a or b])


def _rational(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def _sympy_expr(f: Poly):
    return sum(
        (_rational(c.re) + sympy.I * _rational(c.im)) * X ** m[0] * Y ** m[1] * Z ** m[2]
        for m, c in f.terms.items()
    )


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def _sympy_basis(gens: list[Poly], domain) -> set:
    basis = sympy.groebner([_sympy_expr(f) for f in gens], X, Y, Z, order="grevlex", domain=domain)
    return {
        frozenset((m, (_fraction(sympy.re(c)), _fraction(sympy.im(c)))) for m, c in p.terms())
        for p in basis.polys
    }


def _our_basis(gens: list[Poly]) -> set:
    try:
        basis = buchberger(gens, grevlex(gens[0].nvars), Budget(20_000))
    except BudgetExhausted:
        assume(False)
    event(f"{len(basis.generators)} basis elements")
    return {frozenset((m, (c.re, c.im)) for m, c in g.terms.items()) for g in basis.generators}


@settings(max_examples=40, deadline=None)
@given(_rational_ideals)
def test_buchberger_matches_sympy_over_the_rationals(gens):
    assert _our_basis(gens) == _sympy_basis(gens, sympy.QQ)


@settings(max_examples=40, deadline=None)
@given(_gaussian_ideals)
def test_buchberger_matches_sympy_over_the_gaussian_rationals(gens):
    assert _our_basis(gens) == _sympy_basis(gens, sympy.QQ_I)
