"""buchberger against an independent implementation: sympy's groebner.

Random ideals of two or three generators in x, y, z, of total degree at
most 3 and without constant terms (so never the unit ideal), over Q and
over Q(i).  Both sides must give the same reduced monic grevlex basis, term
for term.  Zero-dimensional ideals also check quotient_dimension: their
colength is the number of monomials under none of the leading monomials of
sympy's basis, counted in a box.  The sympy polynomials are built from the
terms and the exact real and imaginary parts of each coefficient, so no
text round trip stands between the two.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from germlab.groebner import Budget, BudgetExhausted, buchberger, quotient_dimension
from germlab.orders import grevlex
from germlab.poly import Poly
from germlab.qi import QI

X, Y, Z = sympy.symbols("x y z")

_MONOMIALS = [m for m in itertools.product(range(4), repeat=3) if 1 <= sum(m) <= 3]
_RATIONALS = sorted({Fraction(n, d) for n in range(-3, 4) for d in range(1, 5)})


def _polys(coefficients, monomials=_MONOMIALS, min_size=1):
    terms = st.dictionaries(st.sampled_from(monomials), st.sampled_from(coefficients), min_size=min_size, max_size=4)
    return terms.map(lambda t: Poly(3, t))


def _ideals(coefficients):
    return st.lists(_polys(coefficients), min_size=2, max_size=3)


@st.composite
def _zero_dimensional_ideals(draw, coefficients):
    """A monic pure power of each variable over lower-degree terms, so the
    grevlex leading ideal holds a power of every variable, and up to two
    more generators that cut the staircase down."""
    gens = []
    for j in range(3):
        k = draw(st.integers(1, 4))
        wall = Poly(3, {tuple(k if i == j else 0 for i in range(3)): QI.one()})
        below = [m for m in _MONOMIALS if sum(m) < k]  # no constant: the origin is a zero
        gens.append(wall + draw(_polys(coefficients, below, 0)) if below else wall)
    return gens + draw(st.lists(_polys(coefficients), max_size=2))


_RATIONAL_COEFFICIENTS = [QI(r) for r in _RATIONALS if r]
_GAUSSIAN_COEFFICIENTS = [QI(a, b) for a in _RATIONALS for b in _RATIONALS if a or b]
_rational_ideals = _ideals(_RATIONAL_COEFFICIENTS)
_gaussian_ideals = _ideals(_GAUSSIAN_COEFFICIENTS)


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


def _sympy_colength(gens: list[Poly], domain) -> int:
    basis = sympy.groebner([_sympy_expr(f) for f in gens], X, Y, Z, order="grevlex", domain=domain)
    assert basis.is_zero_dimensional
    heads = [p.monoms(order="grevlex")[0] for p in basis.polys]
    box = [min(m[j] for m in heads if m[j] == sum(m)) for j in range(3)]
    return sum(
        not any(all(e >= h for e, h in zip(m, head)) for head in heads)
        for m in itertools.product(*map(range, box))
    )


def _our_colength(gens: list[Poly]) -> int:
    try:
        basis = buchberger(gens, grevlex(3), Budget(20_000))
    except BudgetExhausted:
        assume(False)
    colength = quotient_dimension(basis, Budget())
    event(f"colength {colength}")
    return colength


@settings(max_examples=40, deadline=None)
@given(_zero_dimensional_ideals(_RATIONAL_COEFFICIENTS))
def test_colength_matches_sympys_staircase_over_the_rationals(gens):
    assert _our_colength(gens) == _sympy_colength(gens, sympy.QQ)


@settings(max_examples=40, deadline=None)
@given(_zero_dimensional_ideals(_GAUSSIAN_COEFFICIENTS))
def test_colength_matches_sympys_staircase_over_the_gaussian_rationals(gens):
    assert _our_colength(gens) == _sympy_colength(gens, sympy.QQ_I)
