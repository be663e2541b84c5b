"""Groebner bases, local standard bases, dimension, saturation, and Milnor
numbers — frozen worked examples plus randomized soundness audits."""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from germlab.groebner import (
    Budget,
    BudgetExhausted,
    _head,
    buchberger,
    determinant,
    division,
    ideal_membership,
    is_groebner_basis,
    krull_dimension,
    leading_monomial,
    leading_term,
    local_standard_basis,
    milnor_number,
    minors,
    normal_form,
    quotient_dimension,
    s_polynomial,
    saturation,
)
from germlab.orders import eliminate_last, grevlex, homogenized_local, local_antigraded, weighted_grevlex
from germlab.parse import poly_to_string
from germlab.poly import Poly, mono_div
from germlab.qi import QI

from conftest import P


def strs(basis, variables="x y z"):
    names = variables.split()
    return sorted(poly_to_string(g, names) for g in basis.generators)


# -- global bases ------------------------------------------------------------


def test_buchberger_textbook_example():
    gb = buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")])
    assert strs(gb, "x y") == ["x - y", "y^2 - 1"]
    assert is_groebner_basis(gb.generators, gb.order)


def test_unit_ideal_reduces_to_one():
    gb = buchberger([P("x", "x y"), P("x + 1", "x y")])
    assert gb.is_unit_ideal()
    assert strs(gb, "x y") == ["1"]


def test_zero_generators_are_dropped():
    gb = buchberger([Poly.zero(2), P("x", "x y")])
    assert strs(gb, "x y") == ["x"]


def test_normal_form_is_zero_exactly_on_members():
    gb = buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")])
    member = P("x^2 - 1", "x y") * P("y^3", "x y") + P("x*y - 1", "x y") * P("x - 7", "x y")
    assert ideal_membership(member, gb)
    assert not ideal_membership(P("x", "x y"), gb)


def _reference_division(f, divisors, order, budget=None):
    """The Poly-level division kernel that the in-place one replaced, kept
    verbatim as an oracle for its remainders and its charge points."""
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
                work = work - divisors[k].mul_monomial(q, wc / dc)
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
    orders = [grevlex(nvars), weighted_grevlex([Fraction(1, 2), 1, Fraction(1, 3)]),
              eliminate_last(nvars), homogenized_local(nvars)]
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
            # heads found by division itself, and heads kept by the caller
            for heads in (None, [_head(d, order) for d in divisors]):
                got_budget = Budget()
                got = division(f, divisors, order, got_budget, heads=heads)
                assert got == expected
                assert list(got.terms) == list(expected.terms)
                assert got_budget.used == expected_budget.used
            zero_remainders += expected.is_zero()
    assert zero_remainders >= 80 and nonreal >= 100


def test_s_polynomial_definition():
    o = grevlex(2)
    f, g = P("x^2", "x y"), P("x*y - 1", "x y")
    # lcm = x^2 y: S = y*f - x*g = x
    assert s_polynomial(f, g, o) == P("x", "x y")


# -- dimensions --------------------------------------------------------------


def test_krull_and_quotient_dimension_zero_dimensional():
    gb = buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")])
    assert krull_dimension(gb) == 0
    assert quotient_dimension(gb) == 2  # standard monomials {1, y}


def test_krull_dimension_positive():
    gb = buchberger([P("x*y")])  # V(xy) in 3-space: two planes
    assert krull_dimension(gb) == 2
    assert quotient_dimension(gb) is None  # infinite-dimensional quotient
    assert krull_dimension(buchberger([Poly.zero(3), P("x")])) == 2


def test_krull_dimension_empty_variety():
    gb = buchberger([P("x", "x"), P("x - 1", "x")])
    assert krull_dimension(gb) == -1


# -- local standard bases ----------------------------------------------------


def test_local_basis_unit_times_generator():
    # (x - x^2) = (x) locally: 1 - x is a unit at the origin
    gb = local_standard_basis([P("x - x^2", "x")])
    assert [leading_monomial(g, gb.order) for g in gb.generators] == [(1,)]
    assert quotient_dimension(gb) == 1


def test_local_vs_global_distinction():
    # globally (x - x^2) = (x(1-x)) has a 2-point variety; locally only {0}
    f = P("x - x^2", "x")
    assert quotient_dimension(buchberger([f])) == 2
    assert quotient_dimension(local_standard_basis([f])) == 1


# -- saturation --------------------------------------------------------------


def test_saturation_removes_the_plane():
    # (xy, xz) : x^inf = (y, z)
    sat = saturation([P("x*y"), P("x*z")], P("x"))
    assert strs(sat) == ["y", "z"]


def test_saturation_of_reduced_ideal_is_identity():
    sat = saturation([P("y", "x y")], P("x", "x y"))
    assert strs(sat, "x y") == ["y"]


# -- determinants and minors -------------------------------------------------


def test_determinant_of_polynomial_matrix():
    m = [[P("x"), P("y")], [P("z"), P("x")]]
    assert determinant(m) == P("x^2 - y*z")


def test_minors_of_jacobian_shape():
    m = [[P("x"), P("y"), P("z")]]
    assert sorted(minors(m, 1), key=str) == sorted([P("x"), P("y"), P("z")], key=str)


# -- Milnor numbers ----------------------------------------------------------


def test_milnor_cusp_family():
    assert milnor_number(P("x^3 + y^3", "x y")) == 4
    assert milnor_number(P("x^2 + y^2", "x y")) == 1
    assert milnor_number(P("x^2 + y^3", "x y")) == 2


def test_milnor_non_isolated_is_none():
    assert milnor_number(P("x^2*y", "x y")) is None
    assert milnor_number(P("x^2", "x y")) is None


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
    assert milnor_number(P("x + y^5", "x y")) == 0


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
            assert milnor_number(f) == expected


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
            base = base + Poly.variable(n, j + 1).scale(mix)
        f = f + base ** a
    assert milnor_number(f) == _milnor_orlik(Fraction(1, a) for a in exponents)


@settings(max_examples=40, deadline=None)
@given(form=st.sampled_from(sorted(_SIMPLE_NORMAL_FORMS)), extra=st.lists(st.integers(2, 6), min_size=1, max_size=2))
def test_milnor_number_matches_milnor_orlik_on_simple_normal_forms(form, extra):
    # D_k, E6, E7, E8 plus Brieskorn-Pham terms in the remaining variables
    text, weights = _SIMPLE_NORMAL_FORMS[form]
    names = "x y z w".split()[: 2 + len(extra)]
    f = P(text + "".join(f" + {v}^{a}" for v, a in zip(names[2:], extra)), " ".join(names))
    assert milnor_number(f) == _milnor_orlik([*weights, *(Fraction(1, a) for a in extra)])


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
def test_milnor_number_matches_the_local_route_on_perturbed_brieskorn_pham(case):
    # The certificate route must agree with the local standard basis whichever
    # route milnor_number takes; where the principal part is isolated and stays
    # initial, both must also give the Milnor-Orlik number prod(a_j - 1).
    f, principal, exponents, stays_initial = case
    try:
        expected = _local_route_milnor(f, Budget(1500))
        principal_mu = _local_route_milnor(principal, Budget(1500))
    except BudgetExhausted:
        assume(False)
    assert milnor_number(f, Budget(1500)) == expected
    if principal_mu is not None:
        assert principal_mu == _milnor_orlik(Fraction(1, a) for a in exponents)
        if stays_initial:
            assert expected == principal_mu


def test_local_basis_pair_order_is_pinned():
    # The pair counts pin the pop order of the normal strategy: popping
    # equal-degree pairs newest first, for one, changes them.  The steps
    # charged pin the division kernel's charge points (one per step).
    f = P("x^6 + y^6 + z^3 + w^3 + x*y*z*w + x^5*z", "x y z w")
    budget = Budget()
    gb = local_standard_basis([f.partial(j) for j in range(4)], budget)
    assert gb.stats == {"s_pairs": 142, "reductions_to_zero": 103, "skip_coprime": 47, "skip_chain": 714}
    assert budget.used == 1439
    assert len(gb.generators) == 18
    # Milnor-Orlik: weights (1/6, 1/6, 1/3, 1/3) give mu = prod(1/w - 1) = 5*5*2*2
    assert quotient_dimension(gb) == 100


def test_global_basis_and_saturation_are_pinned():
    # Recorded from the kernel that rescanned every divisor's head on each
    # division: interreduction and the S-pair reductions must keep the same
    # pairs, the same charge points and the same reduced generators.
    names = "x y z".split()
    gens = [P("x^3 - 2*x*y + i*z"), P("x^2*y - 2*y^2 + x"), P("y*z^2 - x*z + 3*y")]
    budget = Budget()
    gb = buchberger(gens, budget=budget)
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


# -- budget ------------------------------------------------------------------


def test_budget_exhaustion_raises():
    gens = [P("x^4 + y^4 + z^4"), P("x*y*z + x^3"), P("y^3*z - x*z^3")]
    with pytest.raises(BudgetExhausted) as plain:
        buchberger(gens, budget=Budget(3))
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
    buchberger([P("x^2 - 1", "x y"), P("x*y - 1", "x y")], budget=b)
    assert 0 < b.used <= b.limit


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
            gb = buchberger(gens, budget=Budget(200_000))
        except BudgetExhausted:
            continue
        assert is_groebner_basis(gb.generators, gb.order), f"audit failed on trial {trial}"
        # membership: random combinations of the generators reduce to zero
        combo = Poly.zero(nvars)
        for g in gens:
            combo = combo + g * _random_poly(rng, nvars)
        assert normal_form(combo, gb.generators, gb.order).is_zero()
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
        gb = buchberger(gens)
        lead = [leading_monomial(g, gb.order) for g in gb.generators]
        assert krull_dimension(gb) == _brute_force_independent_set_dim(lead, nvars)
