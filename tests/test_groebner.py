"""Groebner bases, local standard bases, dimension, saturation, and Milnor
numbers — frozen worked examples plus randomized soundness audits."""

import hashlib
import itertools
import random
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import prod
from operator import ge, mul, sub

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from germlab import groebner
from germlab.groebner import (
    Budget,
    BudgetExhausted,
    GroebnerBasis,
    _monic,
    _Packing,
    _s_polynomial,
    buchberger,
    dehomogenize,
    determinant,
    division,
    homogenize,
    ideal_membership,
    is_groebner_basis,
    krull_dimension,
    leading_monomial,
    local_standard_basis,
    milnor_number,
    minors,
    normal_form,
    quotient_dimension,
    saturation,
)
from germlab.germ import singular_locus_ideal
from germlab.orders import MonomialOrder, eliminate_last, grevlex, homogenized_local, local_antigraded
from germlab.parse import poly_to_string
from germlab.poly import Monomial, Poly, mono_mul
from germlab.qi import QI

from conftest import P


# The tuple helpers of germlab.poly and the leading-term helpers of
# germlab.groebner that the oracles below call, copied verbatim
# (``Poly.mul_monomial`` as a function, ``Poly.scale`` folded into
# ``make_monic``): the packed kernel no longer uses them.


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    if all(map(ge, a, b)):
        return tuple(map(sub, a, b))
    return None


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(mul, a, b))  # exponents are never negative


def mul_monomial(f: Poly, mono: Monomial, coeff: QI) -> Poly:
    return Poly(f.nvars, {mono_mul(m, mono): coeff * c for m, c in f.terms.items()})


def leading_term(f: Poly, order: MonomialOrder) -> tuple[Monomial, QI]:
    m = leading_monomial(f, order)
    return m, f.terms[m]


def make_monic(f: Poly, order: MonomialOrder) -> Poly:
    _, c = leading_term(f, order)
    if c == QI.one():
        return f
    inverse = c.inverse()
    return Poly(f.nvars, {m: inverse * v for m, v in f.terms.items()})


def strs(basis, variables="x y z"):
    names = variables.split()
    return sorted(poly_to_string(g, names) for g in basis.generators)


# -- global bases ------------------------------------------------------------


def test_buchberger_textbook_example():
    gb = buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")], grevlex(2), Budget())
    assert strs(gb, "x y") == ["x - y", "y^2 - 1"]
    assert is_groebner_basis(gb.generators, gb.order, Budget())


def test_unit_ideal_reduces_to_one():
    gb = buchberger([P("x", "x y"), P("x + 1", "x y")], grevlex(2), Budget())
    assert gb.is_unit_ideal()
    assert strs(gb, "x y") == ["1"]


def test_zero_generators_are_dropped():
    gb = buchberger([Poly.zero(2), P("x", "x y")], grevlex(2), Budget())
    assert strs(gb, "x y") == ["x"]


def test_normal_form_is_zero_exactly_on_members():
    gb = buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")], grevlex(2), Budget())
    member = P("x^2 - 1", "x y") * P("y^3", "x y") + P("x*y - 1", "x y") * P("x - 7", "x y")
    assert ideal_membership(member, gb, Budget())
    assert not ideal_membership(P("x", "x y"), gb, Budget())


def _reference_division(f, divisors, order, budget=None):
    """The Poly-level division kernel that the in-place one replaced, kept
    as an oracle for its remainders and its charge points (its coefficient
    quotient written as a product with the inverse)."""
    if not order.is_global:
        raise ValueError("division requires a global monomial order")
    budget = budget or Budget()
    nvars = f.nvars
    lts = [leading_term(d, order) for d in divisors]
    remainder_terms = {}
    work = f
    while not work.is_zero():
        budget.charge()
        wm, wc = leading_term(work, order)
        for k, (dm, dc) in enumerate(lts):
            q = mono_div(wm, dm)
            if q is not None:
                work = work - mul_monomial(divisors[k], q, wc * dc.inverse())
                break
        else:
            remainder_terms[wm] = wc
            work = Poly(nvars, {m: c for m, c in work.terms.items() if m != wm})
    return Poly(nvars, remainder_terms)


def _random_qi_poly(rng, nvars, max_terms=4, max_deg=3):
    def part():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[mono] = QI(part(), part() if rng.random() < 0.5 else 0)
    return Poly(nvars, terms)


def test_division_matches_the_poly_level_reference():
    nvars = 3
    weights = (Fraction(1, 2), 1, Fraction(1, 3))
    # graded by the weights first (times 6, for integer rows), then by total
    # degree, then grevlex
    weighted = MonomialOrder(
        "weighted-grevlex", nvars,
        [[int(6 * w) for w in weights], (1, 1, 1), (1, 1, 0), (1, 0, 0)],
        is_global=True,
    )
    orders = [grevlex(nvars), weighted, eliminate_last(nvars), homogenized_local(nvars)]
    rng = random.Random(20241)
    zero_remainders = nonreal = 0
    for order in orders:
        for trial in range(60):
            divisors = [_random_qi_poly(rng, nvars) for _ in range(rng.randint(1, 3))]
            divisors = [d for d in divisors if d] or [P("x + i*y")]
            if trial % 3 == 0:
                # a multiple of a single divisor (zero included) leaves no remainder
                divisors = divisors[:1]
                f = divisors[0] * (_random_qi_poly(rng, nvars) if trial else Poly.zero(nvars))
            elif trial % 3 == 1:
                f = _random_qi_poly(rng, nvars, max_terms=8, max_deg=5)
            else:
                f = sum((d * _random_qi_poly(rng, nvars) for d in divisors), Poly.zero(nvars))
                f = f + _random_qi_poly(rng, nvars)
            nonreal += any(c.im for d in divisors for c in d.terms.values())
            expected_budget = Budget()
            expected = _reference_division(f, divisors, order, expected_budget)
            # heads found by normal_form, and heads kept by the caller
            packing = _Packing(nvars, 8, order.rows)
            heads = [_monic(packing.terms(d)) for d in divisors]
            kept = lambda f, _, __, budget: packing.poly(division(packing.terms(f), heads, budget, packing.guard))
            for divide in (normal_form, kept):
                got_budget = Budget()
                got = divide(f, divisors, order, got_budget)
                assert got == expected
                assert list(got.terms) == list(expected.terms)
                assert got_budget.used == expected_budget.used
            zero_remainders += expected.is_zero()
    assert zero_remainders >= 80 and nonreal >= 100


def test_s_polynomial_definition():
    o = grevlex(2)
    f, g = P("x^2", "x y"), P("x*y - 1", "x y")
    # lcm = x^2 y: S = y*f - x*g = x
    packing = _Packing(2, 8, o.rows)
    heads = _monic(packing.terms(f)), _monic(packing.terms(g))
    assert packing.poly(_s_polynomial(*heads, packing.pack((2, 1)), packing.guard)) == P("x", "x y")


# -- dimensions --------------------------------------------------------------


def test_krull_and_quotient_dimension_zero_dimensional():
    gb = buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")], grevlex(2), Budget())
    assert krull_dimension(gb) == 0
    assert quotient_dimension(gb, Budget()) == 2  # standard monomials {1, y}


def test_krull_dimension_positive():
    gb = buchberger([P("x*y")], grevlex(3), Budget())  # V(xy) in 3-space: two planes
    assert krull_dimension(gb) == 2
    assert quotient_dimension(gb, Budget()) is None  # infinite-dimensional quotient
    assert krull_dimension(buchberger([Poly.zero(3), P("x")], grevlex(3), Budget())) == 2


def test_krull_dimension_empty_variety():
    gb = buchberger([P("x", "x"), P("x - 1", "x")], grevlex(1), Budget())
    assert krull_dimension(gb) == -1


# -- local standard bases ----------------------------------------------------


def test_local_basis_unit_times_generator():
    # (x - x^2) = (x) locally: 1 - x is a unit at the origin
    gb = local_standard_basis([P("x - x^2", "x")], Budget())
    assert [leading_monomial(g, gb.order) for g in gb.generators] == [(1,)]
    assert quotient_dimension(gb, Budget()) == 1


def test_local_vs_global_distinction():
    # globally (x - x^2) = (x(1-x)) has a 2-point variety; locally only {0}
    f = P("x - x^2", "x")
    assert quotient_dimension(buchberger([f], grevlex(1), Budget()), Budget()) == 2
    assert quotient_dimension(local_standard_basis([f], Budget()), Budget()) == 1


def substitute_constant(f: Poly, index: int, value: QI) -> Poly:
    """Set variable ``index`` to an exact constant, keeping its slot: the
    term-by-term substitution ``Poly.substitute_constant`` made, with its
    power loop, kept as the oracle of ``dehomogenize``."""
    acc = {}
    for mono, c in f.terms.items():
        e = mono[index]
        coeff = c
        if e:
            if value.is_zero():
                continue
            power = QI.one()
            for _ in range(e):
                power = power * value
            coeff = c * power
        new = mono[:index] + (0,) + mono[index + 1:]
        prev = acc.get(new)
        acc[new] = coeff if prev is None else prev + coeff
    return Poly(f.nvars, acc)


@st.composite
def _germ_generators(draw):
    """1-3 generators vanishing at the origin in 2-4 variables, with Q or
    Q(i) coefficients."""
    nvars = draw(st.integers(2, 4))
    monomials = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda m: 0 < sum(m) <= 4)
    field = _GAUSSIAN if draw(st.booleans()) else [c for c in _GAUSSIAN if not c.im]
    terms = st.dictionaries(monomials, st.sampled_from(field), min_size=1, max_size=4)
    return draw(st.lists(terms.map(lambda t: Poly(nvars, t)), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(gens=_germ_generators())
def test_local_basis_generators_are_monic_dehomogenized_heads(gens):
    # local_standard_basis makes no generator monic: Buchberger's homogeneous
    # generators are, and setting h = 1 keeps their leading terms
    nvars = gens[0].nvars
    try:
        basis = local_standard_basis(gens, Budget(2000))
    except BudgetExhausted:
        assume(False)
    homogeneous = buchberger([homogenize(f) for f in gens], homogenized_local(nvars + 1), Budget(2000))
    heads = {}
    for g in homogeneous.generators:
        local = dehomogenize(g)
        assert local == substitute_constant(g, nvars, QI.one()).drop_variable(nvars)
        heads[local] = leading_monomial(g, homogeneous.order)[:-1]
    for g in basis.generators:
        monomial, coefficient = leading_term(g, basis.order)
        assert coefficient == QI.one()
        assert monomial == heads[g]


# -- saturation --------------------------------------------------------------


def test_saturation_removes_the_plane():
    # (xy, xz) : x^inf = (y, z)
    sat = saturation([P("x*y"), P("x*z")], P("x"), Budget())
    assert strs(sat) == ["y", "z"]


def test_saturation_of_reduced_ideal_is_identity():
    sat = saturation([P("y", "x y")], P("x", "x y"), Budget())
    assert strs(sat, "x y") == ["y"]


@st.composite
def _saturation_cases(draw):
    """1 to nvars generators through the origin in 2 or 3 variables, and a
    torus generator: the product of a nonempty set of the variables."""
    nvars = draw(st.integers(2, 3))
    monomials = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda m: 1 <= sum(m) <= 3)
    coefficients = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(QI)
    polys = st.dictionaries(monomials, coefficients, min_size=2, max_size=3).map(lambda t: Poly(nvars, t))
    torus = draw(st.lists(st.integers(0, 1), min_size=nvars, max_size=nvars).filter(any))
    return draw(st.lists(polys, min_size=1, max_size=nvars)), Poly(nvars, {tuple(torus): QI.one()})


@settings(max_examples=80, deadline=None)
@given(_saturation_cases())
def test_saturation_comes_out_in_descending_grevlex_order(case):
    # eliminate_last ranks every head with t above every t-free one and
    # compares t-free heads by grevlex, so the kept generators need no sort
    gens, torus = case
    try:
        sat = saturation(gens, torus, Budget(400))
    except BudgetExhausted:
        return
    keys = [grevlex(torus.nvars).key(m) for m in sat.leading_monomials()]
    assert keys == sorted(keys, reverse=True)


# -- determinants and minors -------------------------------------------------


def test_determinant_of_polynomial_matrix():
    m = [[P("x"), P("y")], [P("z"), P("x")]]
    assert determinant(m) == P("x^2 - y*z")


def test_minors_of_jacobian_shape():
    m = [[P("x"), P("y"), P("z")]]
    assert sorted(minors(m, 1), key=str) == sorted([P("x"), P("y"), P("z")], key=str)


# -- Milnor numbers ----------------------------------------------------------


def test_milnor_cusp_family():
    assert milnor_number(P("x^3 + y^3", "x y"), Budget()) == 4
    assert milnor_number(P("x^2 + y^2", "x y"), Budget()) == 1
    assert milnor_number(P("x^2 + y^3", "x y"), Budget()) == 2


def test_milnor_non_isolated_is_none():
    assert milnor_number(P("x^2*y", "x y"), Budget()) is None
    assert milnor_number(P("x^2", "x y"), Budget()) is None


def test_milnor_with_gaussian_higher_terms_runs_the_same_basis():
    # Gaussian coefficients make the local standard basis long (1,787 steps
    # against 34 without the last two terms); the count pins the algorithm,
    # whatever the scalar arithmetic underneath.
    budget = Budget()
    f = P("x^5 + y^6 - 2*x*y^2 + (-3-2*i)*x^2*y^5 + (2+i)*x^2*y^6", "x y")
    assert milnor_number(f, budget) == 6
    assert budget.used == 1787
    budget = Budget()
    assert milnor_number(P("x^5 + y^6 - 2*x*y^2", "x y"), budget) == 6
    assert budget.used == 34


def test_milnor_smooth_point():
    # nonvanishing gradient at the origin: Jacobian ideal is the unit ideal
    assert milnor_number(P("x + y^5", "x y"), Budget()) == 0


def _staircase_milnor(a: int, b: int) -> int:
    """Independent staircase oracle for the Jacobian ideal of x^a + y^b:
    (x^{a-1}, y^{b-1}) is monomial, so the local quotient dimension is the
    number of lattice points strictly under the staircase."""
    return sum(1 for i in range(a - 1) for j in range(b - 1))


def test_milnor_brieskorn_table_dual_route():
    for a in range(2, 6):
        for b in range(2, 6):
            f = P(f"x^{a} + y^{b}", "x y")
            expected = (a - 1) * (b - 1)
            assert _staircase_milnor(a, b) == expected
            assert milnor_number(f, Budget()) == expected


def _milnor_orlik(weights) -> int:
    """Milnor-Orlik: an isolated weighted-homogeneous germ of weighted degree 1
    with weights w_i has mu = prod(1/w_i - 1)."""
    mu = prod(1 / Fraction(w) - 1 for w in weights)
    assert mu.denominator == 1
    return int(mu)


# two-variable weighted-homogeneous normal forms (degree 1) and their weights
_SIMPLE_NORMAL_FORMS = {
    **{f"D{k}": (f"x^2*y + y^{k - 1}", (Fraction(k - 2, 2 * (k - 1)), Fraction(1, k - 1))) for k in range(4, 10)},
    "E6": ("x^3 + y^4", (Fraction(1, 3), Fraction(1, 4))),
    "E7": ("x^3 + x*y^3", (Fraction(1, 3), Fraction(2, 9))),
    "E8": ("x^3 + y^5", (Fraction(1, 3), Fraction(1, 5))),
}


@settings(max_examples=40, deadline=None)
@given(exponents=st.lists(st.integers(2, 6), min_size=3, max_size=4), mix=st.sampled_from([-3, -1, 1, 2]))
def test_milnor_number_matches_milnor_orlik_on_brieskorn_pham(exponents, mix):
    # sum of (x_j + mix*x_{j+1})^a_j over runs of equal exponents: a linear,
    # weight-preserving change of the Brieskorn-Pham germ, so the Jacobian
    # ideal is not monomial but mu is still prod(a_j - 1)
    n = len(exponents)
    f = Poly.zero(n)
    for j, a in enumerate(exponents):
        base = Poly.variable(n, j)
        if j + 1 < n and exponents[j + 1] == a:
            base = base + Poly.constant(n, mix) * Poly.variable(n, j + 1)
        f = f + reduce(mul, [base] * a)
    assert milnor_number(f, Budget()) == _milnor_orlik(Fraction(1, a) for a in exponents)


@settings(max_examples=40, deadline=None)
@given(form=st.sampled_from(sorted(_SIMPLE_NORMAL_FORMS)), extra=st.lists(st.integers(2, 6), min_size=1, max_size=2))
def test_milnor_number_matches_milnor_orlik_on_simple_normal_forms(form, extra):
    # D_k, E6, E7, E8 plus Brieskorn-Pham terms in the remaining variables
    text, weights = _SIMPLE_NORMAL_FORMS[form]
    names = "x y z w".split()[: 2 + len(extra)]
    f = P(text + "".join(f" + {v}^{a}" for v, a in zip(names[2:], extra)), " ".join(names))
    assert milnor_number(f, Budget()) == _milnor_orlik([*weights, *(Fraction(1, a) for a in extra)])


def _local_route_milnor(f: Poly, budget: Budget) -> int | None:
    """The local standard basis route alone: the local colength of J(f)."""
    partials = [p for p in (f.partial(j) for j in range(f.nvars)) if p]
    return quotient_dimension(local_standard_basis(partials, budget), budget)


def test_milnor_number_routes_are_pinned():
    # bs_pert4 and bs_6633: with w_j = 1/a_j from the pure powers x_j^a_j, the
    # initial form is isolated, so a grevlex basis of its Jacobian ideal
    # decides.  x^5 + y^5 + x^2*y^2: the initial form x^2*y^2 is not isolated,
    # so the certificate's 3 steps come on top of the local route's 26.  The
    # last two lack a pure power of one variable and skip the certificate.
    for text, variables, mu, used, local_used in (
        ("x^12 + y^6 + z^4 + w^3 + x^3*y*z*w + y^5*z", "x y z w", 330, 860, 12441),
        ("x^6 + y^6 + z^3 + w^3 + x*y*z*w + x^5*z", "x y z w", 100, 261, 1539),
        ("x^5 + y^5 + x^2*y^2", "x y", 11, 29, 26),
        ("x^2*y + y^5", "x y", 6, 13, 13),
        ("x^3 + x*y^3", "x y", 7, 14, 14),
    ):
        f = P(text, variables)
        budget, local = Budget(), Budget()
        assert milnor_number(f, budget) == mu == _local_route_milnor(f, local)
        assert (budget.used, local.used) == (used, local_used)


@st.composite
def _perturbed_brieskorn_pham(draw):
    """(f, principal part, exponents, whether the principal part stays
    initial): x_1^a_1 + ... + x_n^a_n, n = 2 or 3, a_j in 2..6, plus up to two
    monomials on its degree-1 hyperplane, plus 0-3 monomials of w-degree
    below 1 or in (1, 3/2) (w_j = 1/a_j); added coefficients are in Z[i]."""
    n = draw(st.integers(2, 3))
    exponents = draw(st.lists(st.integers(2, 6), min_size=n, max_size=n))
    coefficient = st.sampled_from([QI(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b])

    def degree(m):
        return sum(Fraction(e, a) for e, a in zip(m, exponents))

    box = itertools.product(*(range(a + 1) for a in exponents))
    monomials = [m for m in box if 0 < degree(m) < Fraction(3, 2)]
    hyperplane = [m for m in monomials if degree(m) == 1 and max(m) < sum(m)]
    terms = {tuple(a if k == j else 0 for k in range(n)): QI.one() for j, a in enumerate(exponents)}
    for m in draw(st.lists(st.sampled_from(hyperplane), max_size=2, unique=True)) if hyperplane else ():
        terms[m] = draw(coefficient)
    principal = Poly(n, terms)
    extra = draw(st.lists(st.sampled_from([m for m in monomials if degree(m) != 1]), max_size=3, unique=True))
    f = principal + Poly(n, {m: draw(coefficient) for m in extra})
    return f, principal, exponents, all(degree(m) > 1 for m in extra)


@settings(max_examples=40, deadline=None)
@given(case=_perturbed_brieskorn_pham())
@example(case=(
    # the local route alone takes 1,496 steps; the certificate's 5 come first
    P("(-2-2*i)*x1^3*x2*x3^2 + x3^6 + x1^5 + (-2-2*i)*x1^4 + x2^4 + (-2-2*i)*x1*x2*x3^2", "x1 x2 x3"),
    P("x1^5 + x2^4 + x3^6", "x1 x2 x3"),
    [5, 4, 6],
    False,
))
def test_milnor_number_matches_the_local_route_on_perturbed_brieskorn_pham(case):
    # The certificate route must agree with the local standard basis whichever
    # route milnor_number takes; where the principal part is isolated and stays
    # initial, both must also give the Milnor-Orlik number prod(a_j - 1).
    # Only the local route is capped: milnor_number charges the certificate's
    # steps on top of it, so it gets the default budget and must not run out.
    f, principal, exponents, stays_initial = case
    try:
        expected = _local_route_milnor(f, Budget(1500))
        principal_mu = _local_route_milnor(principal, Budget(1500))
    except BudgetExhausted:
        assume(False)
    assert milnor_number(f, Budget()) == expected
    if principal_mu is not None:
        assert principal_mu == _milnor_orlik(Fraction(1, a) for a in exponents)
        if stays_initial:
            assert expected == principal_mu


def test_local_basis_pair_order_is_pinned():
    # The pair counts pin the pop order, (deg lcm, i, j): a degree tie goes
    # to the pair index, not the order.  Popping equal-degree pairs newest
    # first, for one, changes them.  The steps
    # charged pin the division kernel's charge points (one per step).
    f = P("x^6 + y^6 + z^3 + w^3 + x*y*z*w + x^5*z", "x y z w")
    budget = Budget()
    gb = local_standard_basis([f.partial(j) for j in range(4)], budget)
    assert gb.stats == {"s_pairs": 142, "reductions_to_zero": 103, "skip_coprime": 47, "skip_chain": 714}
    assert budget.used == 1439
    assert len(gb.generators) == 18
    # Milnor-Orlik: weights (1/6, 1/6, 1/3, 1/3) give mu = prod(1/w - 1) = 5*5*2*2
    assert quotient_dimension(gb, Budget()) == 100


def test_global_basis_and_saturation_are_pinned():
    # Recorded from the kernel that rescanned every divisor's head on each
    # division: interreduction and the S-pair reductions must keep the same
    # pairs, the same charge points and the same reduced generators.
    names = "x y z".split()
    gens = [P("x^3 - 2*x*y + i*z"), P("x^2*y - 2*y^2 + x"), P("y*z^2 - x*z + 3*y")]
    budget = Budget()
    gb = buchberger(gens, grevlex(3), budget)
    assert gb.stats == {"s_pairs": 15, "reductions_to_zero": 8, "skip_coprime": 12, "skip_chain": 18}
    assert budget.used == 128
    assert [poly_to_string(g, names) for g in gb.generators] == [
        "x*z^2 - i*z^2 + 3*x",
        "y*z^2 - x*z + 3*y",
        "z^3 - 2*x*z - 3*i*y*z - z^2 - 3*i*x + 6*y + 3*z",
        "x^2 - i*y*z",
        "x*y + i*x*z + z^2 - 3*i*y - 2*i*z",
        "y^2 + (-2-i)*x*z + 2*i*z^2 - 2*x + 6*y + 3*z",
    ]
    gens = [P("x*y^2 - z^2*x"), P("x^2*z - y*z^2 + i*x*y*z"), P("y^3*x - x^3")]
    budget = Budget()
    sat = saturation(gens, P("x*y"), budget)
    assert sat.stats == {"s_pairs": 66, "reductions_to_zero": 40, "skip_coprime": 93, "skip_chain": 276}
    assert budget.used == 407
    assert [poly_to_string(g, names) for g in sat.generators] == [
        "y^2 + y - 2*z + 1", "z^2 + y - 2*z + 1", "x + i*y - i*z + i",
    ]



def test_the_slowest_global_basis_is_pinned():
    # c3_c's Sing[X0], the grevlex basis behind `sigma c3_c`: a faster
    # coefficient kernel must pop the same pairs, charge the same steps and
    # print the same reduced generators
    names = "x y z w v"
    principal = [P("x^2 + y^2 + z^2 + w^2 + v^2", names), P("x*y + z*w + v^2", names), P("x^2 - y*z + w*v", names)]
    budget = Budget()
    gb = buchberger(singular_locus_ideal(principal), grevlex(5), budget)
    assert len(gb.generators) == 25
    assert gb.stats == {"s_pairs": 86, "reductions_to_zero": 66, "skip_coprime": 151, "skip_chain": 291}
    assert budget.used == 1740
    text = "\n".join(poly_to_string(g, names.split()) for g in gb.generators)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "ae9af935f9f48a38"

# -- differential test against the previous kernel ---------------------------
#
# The kernel before the partner-set chain test and the tail-only heads,
# copied verbatim (renamed, helpers included, so that no line of it runs the
# current division): the same pairs must be popped and skipped, the same
# divisors chosen and the same steps charged.


def _oracle_head(d: Poly, order: MonomialOrder) -> tuple[tuple, QI, dict]:
    """Leading monomial, negated inverse leading coefficient and terms of d."""
    dm, dc = leading_term(d, order)
    return dm, -dc.inverse(), d.terms


def _oracle_division(
    f: Poly,
    divisors: list[Poly],
    order: MonomialOrder,
    budget: Budget,
    *,
    heads: list[tuple],
) -> Poly:
    if not order.is_global:
        raise ValueError("division requires a global monomial order")
    cached_key = lru_cache(maxsize=None)(order.key)
    remainder_terms: dict[tuple, QI] = {}
    work = dict(f.terms)
    while work:
        budget.charge()
        wm = max(work, key=cached_key)
        wc = work.pop(wm)
        for dm, neg_inv, dterms in heads:
            q = mono_div(wm, dm)
            if q is not None:
                t = wc * neg_inv
                for m, c in dterms.items():
                    if m == dm:
                        continue  # the leading term cancels wc exactly
                    m = mono_mul(m, q)
                    prev = work.get(m)
                    v = t * c if prev is None else prev + t * c
                    if v:
                        work[m] = v
                    else:
                        del work[m]
                break
        else:
            remainder_terms[wm] = wc
    return Poly(f.nvars, remainder_terms)


def _oracle_s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    lcm = mono_lcm(fm, gm)
    return mul_monomial(f, mono_div(lcm, fm), fc.inverse()) - mul_monomial(g, mono_div(lcm, gm), gc.inverse())


def _oracle_buchberger(gens: list[Poly], order: MonomialOrder, budget: Budget) -> GroebnerBasis:
    if not gens:
        raise ValueError("empty generator list (the zero ideal has no basis here)")
    nvars = gens[0].nvars
    if not order.is_global:
        raise ValueError("buchberger requires a global order; use local_standard_basis")

    basis: list[Poly] = []
    for f in gens:
        if f.is_zero():
            continue
        basis.append(make_monic(f, order))
    if not basis:
        raise ValueError("all generators are zero")
    stats = {"s_pairs": 0, "reductions_to_zero": 0, "skip_coprime": 0, "skip_chain": 0}

    one = Poly.constant(nvars, 1)
    if any(g.is_constant() for g in basis):
        return GroebnerBasis([one], order, stats)

    heads = [_oracle_head(g, order) for g in basis]
    lt = [h[0] for h in heads]
    pairs = [(sum(mono_lcm(lt[i], lt[j])), i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    done: set[tuple[int, int]] = set()

    with budget.stage("buchberger"):
        while pairs:
            _, i, j = heappop(pairs)
            done.add((i, j))
            if mono_coprime(lt[i], lt[j]):
                stats["skip_coprime"] += 1
                continue
            lcm_ij = mono_lcm(lt[i], lt[j])
            chain = False
            for k in range(len(basis)):
                if k == i or k == j:
                    continue
                if mono_div(lcm_ij, lt[k]) is None:
                    continue
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    chain = True
                    break
            if chain:
                stats["skip_chain"] += 1
                continue
            budget.charge()
            stats["s_pairs"] += 1
            s = _oracle_s_polynomial(basis[i], basis[j], order)
            r = _oracle_division(s, basis, order, budget, heads=heads)
            if r.is_zero():
                stats["reductions_to_zero"] += 1
                continue
            if r.is_constant():
                return GroebnerBasis([one], order, stats)
            r = make_monic(r, order)
            basis.append(r)
            heads.append(_oracle_head(r, order))
            lt.append(heads[-1][0])
            new = len(basis) - 1
            for k in range(new):
                heappush(pairs, (sum(mono_lcm(lt[k], lt[new])), k, new))

        reduced = _oracle_interreduce(_oracle_minimalize(basis, lt, order), order, budget)
    reduced.sort(key=lambda g: order.key(leading_monomial(g, order)), reverse=True)
    return GroebnerBasis(reduced, order, stats)


def _oracle_minimalize(basis: list[Poly], lt: list[tuple], order: MonomialOrder) -> list[Poly]:
    lts_sorted = sorted(zip(lt, basis), key=lambda t: order.key(t[0]), reverse=not order.is_global)
    survivors: list[tuple[tuple, Poly]] = []
    for m, g in lts_sorted:
        if not any(mono_div(m, sm) is not None for sm, _ in survivors):
            survivors.append((m, g))
    return [g for _, g in survivors]


def _oracle_interreduce(basis: list[Poly], order: MonomialOrder, budget: Budget) -> list[Poly]:
    out = list(basis)
    heads = [_oracle_head(g, order) for g in out]
    for k in range(len(out) if len(out) > 1 else 0):
        r = _oracle_division(out[k], out[:k] + out[k + 1:], order, budget, heads=heads[:k] + heads[k + 1:])
        if r:
            out[k] = make_monic(r, order)
            heads[k] = _oracle_head(out[k], order)
    return out


def _outcome(kernel, gens: list[Poly], order: MonomialOrder, limit: int) -> tuple:
    """What one run shows: its basis term for term, its stats and the steps
    it charged, or where and after how many steps its budget ran out."""
    budget = Budget(limit)
    try:
        gb = kernel(gens, order, budget)
    except BudgetExhausted as exc:
        return "exhausted", exc.context, exc.used, budget.used
    return [list(g.terms.items()) for g in gb.generators], gb.stats, budget.used


# b = 0 is listed twice, so two in five coefficients are real
_GAUSSIAN = [QI(a, b) for a in (-2, -1, Fraction(1, 2), 1, 3) for b in (0, 0, -1, Fraction(2, 3), 1)]


@st.composite
def _oracle_cases(draw):
    nvars = draw(st.integers(2, 5))
    monomials = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda m: 0 < sum(m) <= 3)
    terms = st.dictionaries(monomials, st.sampled_from(_GAUSSIAN), min_size=1, max_size=4)
    gens = draw(st.lists(terms.map(lambda t: Poly(nvars, t)), min_size=1, max_size=5))
    order = draw(st.sampled_from([grevlex, eliminate_last, homogenized_local]))(nvars)
    return gens, order, draw(st.integers(1, 300))


@settings(max_examples=200, deadline=None)
@given(case=_oracle_cases())
def test_buchberger_matches_the_previous_kernel(case):
    # 400 steps finish nearly every drawn ideal; a larger limit lets a rare
    # one run for minutes, since a step charges 1 whatever its coefficients'
    # size (one eliminate_last ideal took 0.05 s at 700 steps, 37 s at 1000)
    gens, order, small = case
    for limit in (400, small):
        assert _outcome(buchberger, gens, order, limit) == _outcome(_oracle_buchberger, gens, order, limit)


# -- the packing boundary ------------------------------------------------------


@pytest.mark.parametrize(
    "gens, order",
    [
        # the S-polynomial y*f - x^254*g of these two holds y^256
        ([P("x^255 + y^255", "x y"), P("x*y - 1", "x y")], grevlex(2)),
        # their S-polynomial is t*x^10*y - t*x^250, and reducing t*x^250 by
        # t - x^250 makes x^500
        ([P("t - x^250", "x y t"), P("t^2 - t*x^10*y", "x y t")], eliminate_last(3)),
    ],
    ids=["grevlex-s-polynomial", "eliminate-last-reduction"],
)
def test_an_exponent_past_its_field_restarts_wider_and_charges_once(gens, order, monkeypatch):
    # The exponents sit just below 2^8, the narrowest field: the run meets an
    # overflow, starts again on 16-bit fields from the steps it had on entry,
    # and ends as the tuple kernel does, at every budget.
    widths = []

    class Recording(groebner._Packing):
        def __init__(self, nvars, width, rows):
            widths.append(width)
            super().__init__(nvars, width, rows)

    monkeypatch.setattr(groebner, "_Packing", Recording)
    expected = _outcome(_oracle_buchberger, gens, order, 10 ** 6)
    assert _outcome(buchberger, gens, order, 10 ** 6) == expected
    assert widths == [8, 16]
    for limit in range(1, expected[2] + 1):
        assert _outcome(buchberger, gens, order, limit) == _outcome(_oracle_buchberger, gens, order, limit)
    budget = Budget()
    budget.charge(5)
    assert buchberger(gens, order, budget).stats == expected[1]
    assert budget.used == 5 + expected[2]


# -- budget ------------------------------------------------------------------


def test_budget_exhaustion_raises():
    gens = [P("x^4 + y^4 + z^4"), P("x*y*z + x^3"), P("y^3*z - x*z^3")]
    with pytest.raises(BudgetExhausted) as plain:
        buchberger(gens, grevlex(3), Budget(3))
    assert plain.value.context == "buchberger"
    # the message names the stage that ran out, not the kernel under it:
    # bs_6633 has a pure power of every variable, so its Milnor number starts
    # with the weighted initial form; briancon_speder has no pure power of y
    # and goes to the local standard basis at once
    f = P("x^6 + y^6 + z^3 + w^3 + x*y*z*w + x^5*z", "x y z w")
    with pytest.raises(BudgetExhausted) as initial:
        milnor_number(f, Budget(20))
    assert initial.value.context == "weighted initial form"
    assert "during weighted initial form" in str(initial.value)
    with pytest.raises(BudgetExhausted) as local:
        milnor_number(P("z^5 + x^15 + x*y^7 + z*y^6"), Budget(20))
    assert local.value.context == "local standard basis"
    assert "during local standard basis" in str(local.value)


def test_budget_is_shared_and_reported():
    b = Budget(10**6)
    buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")], grevlex(2), b)
    assert 0 < b.used <= b.limit


def test_budget_outside_every_stage_names_computation():
    # a finished buchberger and staircase count leave no label behind: the
    # Groebner-basis check after them runs out as plain "computation"
    gens = [P("x^4 + y^4 + z^4"), P("x*y*z + x^3"), P("y^3*z - x*z^3")]
    probe = Budget()
    assert quotient_dimension(buchberger(gens, grevlex(3), probe), probe) == 48
    budget = Budget(probe.used + 3)
    gb = buchberger(gens, grevlex(3), budget)
    quotient_dimension(gb, budget)
    with pytest.raises(BudgetExhausted) as exc:
        is_groebner_basis(gb.generators, grevlex(3), budget)
    assert str(exc.value) == f"budget exhausted during computation (steps used: {probe.used + 4})"


def test_budget_stage_names_the_outermost_open_stage():
    budget = Budget(2)
    with budget.stage("outer"):
        with budget.stage("inner"):
            budget.charge(2)
            with pytest.raises(BudgetExhausted) as exc:
                budget.charge()
    assert exc.value.context == "outer"
    # the local standard basis runs buchberger inside its own stage
    gens = [P("x^4 + y^4 + z^4"), P("x*y*z + x^3"), P("y^3*z - x*z^3")]
    with pytest.raises(BudgetExhausted) as exc:
        local_standard_basis(gens, Budget(3))
    assert exc.value.context == "local standard basis"


def test_leaving_a_stage_restores_its_label():
    budget = Budget(3)
    with budget.stage("outer"):
        with budget.stage("inner"):
            budget.charge()
        with budget.stage("second"):
            budget.charge()
    with pytest.raises(BudgetExhausted) as exc:
        with budget.stage("first"):
            budget.charge(2)
    assert exc.value.context == "first"
    with pytest.raises(BudgetExhausted) as exc:
        budget.charge()
    assert exc.value.context == "computation"
    with pytest.raises(BudgetExhausted) as exc:
        with budget.stage("next"):
            budget.charge()
    assert exc.value.context == "next"


def test_exhausted_budget_stays_at_limit_plus_one():
    budget = Budget(5)
    budget.charge(3)
    with pytest.raises(BudgetExhausted) as exc:
        budget.charge(10)
    assert exc.value.used == budget.used == 6
    for n in (1, 1, 100):
        with pytest.raises(BudgetExhausted) as exc:
            budget.charge(n)
        assert exc.value.used == budget.used == 6
    # whoever catches it: a later basis and a later Milnor number on the same
    # budget raise at their first charge with the same count
    with pytest.raises(BudgetExhausted) as exc:
        buchberger([P("x^2 + y^3"), P("x*y + z^2")], grevlex(3), budget)
    assert (exc.value.context, exc.value.used) == ("buchberger", 6)
    with pytest.raises(BudgetExhausted) as exc:
        milnor_number(P("x^2 + y^3 + z^4"), budget)
    assert (exc.value.context, exc.value.used) == ("weighted initial form", 6)


# -- randomized soundness audits ---------------------------------------------


def _random_poly(rng: random.Random, nvars: int) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        while True:
            mono = tuple(rng.randint(0, 2) for _ in range(nvars))
            if sum(mono) <= 4:
                break
        terms[mono] = QI(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(nvars, terms)


def _brute_force_independent_set_dim(leading: list[tuple], nvars: int) -> int:
    """Largest set S of variables meeting the support of no leading monomial:
    the combinatorial Krull dimension of a monomial ideal."""
    if any(sum(m) == 0 for m in leading):
        return -1
    best = -(10**9)
    for k in range(nvars, -1, -1):
        for subset in itertools.combinations(range(nvars), k):
            s = set(subset)
            if all(not set(j for j in range(nvars) if m[j]) <= s for m in leading):
                return k
    return best


def test_random_ideal_audit_spolys_and_dimension():
    rng = random.Random(20260822)
    for trial in range(60):
        nvars = rng.randint(1, 4)
        gens = [_random_poly(rng, nvars) for _ in range(rng.randint(1, 4))]
        try:
            gb = buchberger(gens, grevlex(nvars), Budget(200_000))
        except BudgetExhausted:
            continue
        assert is_groebner_basis(gb.generators, gb.order, Budget()), f"audit failed on trial {trial}"
        # membership: random combinations of the generators reduce to zero
        combo = Poly.zero(nvars)
        for g in gens:
            combo = combo + g * _random_poly(rng, nvars)
        assert normal_form(combo, gb.generators, gb.order, Budget()).is_zero()
        # dimension agrees with the combinatorial oracle on the leading terms
        lead = [leading_monomial(g, gb.order) for g in gb.generators if not g.is_zero()]
        if lead:
            assert krull_dimension(gb) == _brute_force_independent_set_dim(lead, nvars)


def test_random_monomial_ideals_dimension_oracle():
    rng = random.Random(7)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        monos = [
            tuple(rng.randint(0, 2) for _ in range(nvars))
            for _ in range(rng.randint(1, 4))
        ]
        gens = [Poly(nvars, {m: QI.one()}) for m in monos]
        gb = buchberger(gens, grevlex(nvars), Budget())
        lead = [leading_monomial(g, gb.order) for g in gb.generators]
        assert krull_dimension(gb) == _brute_force_independent_set_dim(lead, nvars)
