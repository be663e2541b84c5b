"""Weighted germ systems: validation, weight blocks, perturbation order,
the obstruction locus, the hypothesis ledger, and the diagram-route
analyzer."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlab import germ
from germlab.germ import (
    GermSystem,
    _random_slice_values,
    analyze,
    analyze_newton,
    delta,
    exponent_bound,
    germ_system,
    sigma,
    singular_locus_ideal,
)
from germlab.germfile import load_system
from germlab.groebner import Budget
from germlab.parse import poly_to_string
from germlab.poly import Poly
from germlab.qi import QI

from conftest import FIXTURES, ROOT, F, P


def ledger_map(report):
    return {e.key: e for e in report.hypothesis_ledger}


# -- weight blocks -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 6), max_value=F(3, 2), max_denominator=6), min_size=1, max_size=6))
def test_breakpoints_end_the_blocks_of_equal_weights(weights):
    weights = tuple(sorted(weights))
    # the oracle: the running total of the run lengths of equal weights
    ends = tuple(itertools.accumulate(len(list(run)) for _, run in itertools.groupby(weights)))
    names = tuple(f"x{i}" for i in range(len(weights)))
    system = GermSystem(names, (), (), weights, ())
    assert system.breakpoints == ends
    assert system.breakpoints[-1] == system.nvars


# -- system construction -----------------------------------------------------


def test_germ_system_validation_errors():
    zero = [P("0", "x y")]
    with pytest.raises(ValueError, match="ascend"):
        germ_system(["x", "y"], [P("x*y", "x y")], zero, [F("1/2"), F("1/3")])
    with pytest.raises(ValueError, match="weighted-homogeneous"):
        germ_system(["x", "y"], [P("x^2 + y^3", "x y")], zero, [F("1/2"), F("1/2")])
    with pytest.raises(ValueError, match="total degree < 2"):
        germ_system(["x", "y"], [P("x", "x y")], zero, [F("1/2"), F("1/2")])
    with pytest.raises(ValueError, match="below the principal degree"):
        germ_system(
            ["x", "y"],
            [P("x^2 + y^2", "x y")],
            [P("x", "x y")],
            [F("1/2"), F("1/2")],
        )
    with pytest.raises(ValueError, match="fewer equations"):
        germ_system(["x", "y"], [P("x^2", "x y"), P("y^2", "x y")], zero * 2, [F("1/2"), F("1/2")])


def test_germ_system_rejects_weights_and_perturbations_over_another_variable_count():
    f, zero = [P("x^2 + y^2 + x^2*z")], [P("0")]
    with pytest.raises(ValueError, match="weight/variable count mismatch"):
        germ_system(["x", "y", "z"], f, zero, [F(1, 2)] * 2)
    with pytest.raises(ValueError, match="weight/variable count mismatch"):
        germ_system(["x", "y", "z"], [P("x^2 + y^2 + z^2")], zero, [F(1, 2)] * 4)
    with pytest.raises(ValueError, match="perturbation/variable count mismatch"):
        germ_system(["x", "y", "z"], [P("x^2 + y^2 + z^2")], [P("x^3", "x y")], [F(1, 2)] * 3)


def test_same_order_perturbation_is_allowed(briancon_speder):
    assert briancon_speder.is_same_order()
    assert briancon_speder.is_perturbed()


# -- perturbation order and the exponent bound -------------------------------


def test_delta_and_bound_unperturbed():
    g = germ_system(["z", "x", "y"], [P("z^3 + x^2 + y^2", "z x y")], [P("0")], [F("1/3"), F("1/2"), F("1/2")])
    assert delta(g) is None
    assert exponent_bound(g) == F("3/2")  # w_2 / w_1


def test_delta_and_bound_higher_order(sphere_cubic):
    assert delta(sphere_cubic) == F("1/2")
    # single weight block: the bound is 1 + delta/w_1 = 2
    assert exponent_bound(sphere_cubic) == F(2)


def test_delta_and_bound_same_order(briancon_speder):
    assert delta(briancon_speder) == 0
    assert exponent_bound(briancon_speder) == F(1)


# -- obstruction locus -------------------------------------------------------


def test_sigma_briancon_speder_exact(briancon_speder):
    locus = sigma(briancon_speder, Budget())
    names = list(briancon_speder.variables)
    got = {
        c.label: (c.dimension, c.status, sorted(poly_to_string(g, names) for g in c.basis.generators))
        for c in locus.components
    }
    assert got == {
        "Sing[X0]": (0, "computed", ["x*y^6", "x^14 + 1/15*y^7", "y^13", "z^4"]),
        "Sing[X0 n V(x)]": (1, "computed", ["x", "z^4"]),
        "Sing[X0 n V(x, y)]": (0, "computed", ["x", "y", "z^4"]),
    }
    assert locus.total_dim == 1
    assert locus.is_origin_only is False


def test_sigma_equal_weights_has_single_component():
    g = germ_system(["x", "y", "z"], [P("x^2 + y^2 + z^2")], [P("0")], [F(1, 2)] * 3)
    locus = sigma(g, Budget())
    assert [c.label for c in locus.components] == ["Sing[X0]"]
    assert locus.components[0].dimension == 0
    assert locus.total_dim == 0
    assert locus.is_origin_only is True


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=4), st.sampled_from([2, 3]))
def test_sigma_equal_weights_property(seed, nvars, degree):
    # any homogeneous principal part = equal weights 1/degree: the locus is
    # Sing[X0] alone (no breakpoint slices exist)
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(nvars)]
    terms = {}
    for _ in range(rng.randint(2, 4)):
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = QI(rng.choice([-2, -1, 1, 2, 3]))
    f = Poly(nvars, terms)
    g = germ_system(names, [f], [Poly.zero(nvars)], [F(1, degree)] * nvars)
    locus = sigma(g, Budget())
    assert [c.label for c in locus.components] == ["Sing[X0]"]


# -- the weighted analyzer ---------------------------------------------------


def test_analyze_a1_is_silent():
    g = germ_system(["z", "x", "y"], [P("z^2 + x^2 + y^2", "z x y")], [P("0")], [F(1, 2)] * 3)
    rep = analyze(g, frozenset(), 0, Budget())
    assert rep.verdict == "NO_OBSTRUCTION_FOUND"
    assert rep.l == 2
    assert rep.certificates is None
    assert rep.notes == ["weights w_1 = 1/2 and w_l = 1/2 coincide; the criterion is silent"]
    assert all(e.status == "verified" for e in rep.hypothesis_ledger)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_analyze_ak_finds_the_fast_cycle(k):
    g = germ_system(
        ["z", "x", "y"],
        [P(f"z^{k + 1} + x^2 + y^2", "z x y")],
        [P("0")],
        [F(1, k + 1), F("1/2"), F("1/2")],
    )
    rep = analyze(g, frozenset(), 0, Budget())
    assert rep.verdict == "FAST_CYCLE_FOUND"
    assert rep.l == 2
    c = rep.certificates
    assert c.fast_cycle_dim == 1
    assert c.mu == 1
    assert c.homotopy == "wedge of 1 spheres S^1"
    assert c.tangent_cone_coordinate_span == 1
    assert c.exponent_bound == F(k + 1, 2)


def test_analyze_quadric_cone_ledger():
    names = ["x1", "x2", "x3", "x4"]
    g = germ_system(
        names,
        [P("x1*x4 - x2*x3", "x1 x2 x3 x4")],
        [P("0", "x1 x2 x3 x4")],
        [F("1/5"), F("2/5"), F("3/5"), F("4/5")],
    )
    rep = analyze(g, frozenset(), 0, Budget())
    assert rep.verdict == "HYPOTHESES_UNVERIFIED"
    led = ledger_map(rep)
    assert led["order"].status == "verified"
    assert led["a"].status == "verified"
    assert led["b"].status == "verified"
    assert led["c"].status == "failed"
    assert "slice is not ICIS" in led["c"].evidence
    assert led["d"].status == "verified"
    assert led["e"].status == "verified"
    assert led["e"].evidence == "dim Sing = 1, l = 2"
    assert rep.l == 2
    assert rep.certificates is None


def test_analyze_quadric_cone_with_asserted_milnor_fibre():
    names = ["x1", "x2", "x3", "x4"]
    g = germ_system(
        names,
        [P("x1*x4 - x2*x3", "x1 x2 x3 x4")],
        [P("0", "x1 x2 x3 x4")],
        [F("1/5"), F("2/5"), F("3/5"), F("4/5")],
    )
    rep = analyze(g, {"milnor-fibre"}, 0, Budget())
    assert rep.verdict == "FAST_CYCLE_FOUND"
    led = ledger_map(rep)
    assert led["c"].status == "user-asserted"
    c = rep.certificates
    assert c.fast_cycle_dim == 1
    # the slice -x2*x3 is non-isolated, so mu is honestly unavailable
    assert c.mu is None
    assert c.homotopy == "Milnor fibre of the slice germ X n V(x1)"
    assert c.tangent_cone_coordinate_span == 1
    assert c.exponent_bound == F(2)
    assert "slice Milnor number unavailable; fast-cycle existence is unaffected" in rep.notes


def test_analyze_same_order_family_is_unverified(briancon_speder):
    rep = analyze(briancon_speder, frozenset(), 0, Budget())
    assert rep.verdict == "HYPOTHESES_UNVERIFIED"
    led = ledger_map(rep)
    assert led["order"].status == "failed"
    assert "same-order perturbation" in led["order"].evidence
    assert (
        "same-order families fall outside the fast-cycle criterion; only the foliation construction applies"
        in rep.notes
    )


def test_analyze_surface_branch_fires_only_with_assumption():
    g = germ_system(
        ["a", "b", "c"],
        [P("a^2*c - b^3", "a b c")],
        [P("0", "a b c")],
        [F("1/4"), F("1/3"), F("1/2")],
    )
    plain = analyze(g, frozenset(), 0, Budget())
    assert plain.verdict == "HYPOTHESES_UNVERIFIED"
    assert ledger_map(plain)["b"].status == "failed"

    surf = analyze(g, {"noncontractible-component"}, 0, Budget())
    assert surf.verdict == "FAST_CYCLE_FOUND"
    assert ledger_map(surf)["surface"].status == "user-asserted"
    assert "verdict via the user-asserted surface branch (fast loop)" in surf.notes
    c = surf.certificates
    assert c.fast_cycle_dim == 1
    assert c.homotopy == "non-contractible loop in a section component (user-asserted)"
    assert c.mu is None
    assert c.exponent_bound == F("4/3")


def test_surface_assumption_ignored_off_dimension():
    names = ["x1", "x2", "x3", "x4"]
    g = germ_system(
        names,
        [P("x1*x4 - x2*x3", "x1 x2 x3 x4")],
        [P("0", "x1 x2 x3 x4")],
        [F("1/5"), F("2/5"), F("3/5"), F("4/5")],
    )
    rep = analyze(g, {"noncontractible-component"}, 0, Budget())
    assert "surface" not in ledger_map(rep)
    assert "noncontractible-component assumption ignored: germ dimension is not 2" in rep.notes


@pytest.mark.parametrize("path", [
    FIXTURES / "a3.json", FIXTURES / "x2y3z7.json", FIXTURES / "sphere_cubic.json",
    FIXTURES / "briancon_speder.json", ROOT / "bench" / "germs" / "bs_6633.json", ROOT / "bench" / "germs" / "c2_a.json",
])
@pytest.mark.parametrize("seed", [0, 5])
def test_analyze_sections_are_the_singular_locus_ideals(path, seed, monkeypatch):
    # entry (c) appends the slice's minors once built to each section: they
    # must be the lists singular_locus_ideal builds for the section, in order
    system = load_system(json.loads(path.read_text())).system
    seen, dimension = [], germ.variety_dimension

    def recording(gens, *args, **kwargs):
        seen.append(gens)
        return dimension(gens, *args, **kwargs)

    monkeypatch.setattr(germ, "variety_dimension", recording)
    rep = analyze(system, frozenset(), seed, Budget())
    assert ledger_map(rep)["c"].status == "verified"
    x1, full = Poly.variable(system.nvars, 0), system.full_equations()
    expected = [singular_locus_ideal(full + [x1 - Poly.constant(system.nvars, t0)]) for t0 in _random_slice_values(seed)]
    first = next(k for k, gens in enumerate(seen) if gens == expected[0])
    assert seen[first:first + 3] == expected


def test_analyze_determinism():
    g = germ_system(["z", "x", "y"], [P("z^3 + x^2 + y^2", "z x y")], [P("0")], [F(1, 3), F(1, 2), F(1, 2)])
    a, b = analyze(g, frozenset(), 3, Budget()), analyze(g, frozenset(), 3, Budget())
    assert a == b


def test_analyze_budget_exhaustion_is_unchecked_not_wrong():
    weights = [F(1, 3), F(1, 2), F(1, 2)]
    g = germ_system(["z", "x", "y"], [P("z^3 + x^2 + y^2", "z x y")], [P("0")], weights)
    budget = Budget(5)
    rep = analyze(g, frozenset(), 0, budget)
    assert rep.verdict == "HYPOTHESES_UNVERIFIED"
    assert any(e.status == "unchecked" for e in rep.hypothesis_ledger)
    entries = {e.key: e for e in rep.hypothesis_ledger}
    # (a) runs the budget out; the later entries that need it are not attempted
    assert entries["a"].status == "unchecked"
    assert entries["a"].evidence.startswith("budget exhausted during")
    for key in ("b", "c", "e"):
        assert entries[key].status == "unchecked"
        assert entries[key].evidence == "not attempted: the shared budget was exhausted in entry (a)"
    # (d) needs no budget on an unperturbed germ, and nothing is charged after (a)
    assert entries["d"].status == "verified"
    assert budget.used == 6
    # an entry's statement does not depend on whether it ran, here or on a
    # perturbed germ, where (d) is not attempted either
    perturbed = germ_system(["z", "x", "y"], [P("z^3 + x^2 + y^2", "z x y")], [P("z^2*x", "z x y")], weights)
    for system in (g, perturbed):
        budgeted = {e.key: e for e in analyze(system, frozenset(), 0, Budget(5)).hypothesis_ledger}
        unbudgeted = {e.key: e for e in analyze(system, frozenset(), 0, Budget()).hypothesis_ledger}
        for key in ("b", "c", "d", "e"):
            assert budgeted[key].statement == unbudgeted[key].statement
    assert budgeted["d"].evidence == "not attempted: the shared budget was exhausted in entry (a)"


# -- the diagram-route analyzer ----------------------------------------------


def test_newton_route_brieskorn_certificate():
    na = analyze_newton(P("x^2 + y^3 + z^7"), Budget(), False, 0)
    assert na.criterion_applicable is False  # single top face
    assert na.any_certificate is True
    (v,) = na.face_verdicts
    assert v.sorted_weights == (F("1/7"), F("1/3"), F("1/2"))
    assert v.lower_weights_coincide is False
    assert v.certificate is True
    assert v.status == "certificate"
    assert v.dim_condition is True  # automatic for surface germs
    assert na.notes == [
        "single top face: the diagram criterion does not apply (the germ is "
        "weighted-homogeneous up to higher-order terms; use the weighted "
        "analyzer); face facts reported anyway"
    ]


def test_newton_route_cube_is_silent():
    na = analyze_newton(P("x^3 + y^3 + z^3"), Budget(), False, 0)
    assert na.any_certificate is False
    (v,) = na.face_verdicts
    assert v.sorted_weights == (F("1/3"), F("1/3"), F("1/3"))
    assert v.lower_weights_coincide is True
    assert v.certificate is False


def test_newton_route_two_faces_applicable():
    na = analyze_newton(P("x^2 + z^6 + y^3*z + y^5"), Budget(), False, 0)
    assert na.criterion_applicable is True
    assert [v.certificate for v in na.face_verdicts] == [True, True]
    assert [v.sorted_weights for v in na.face_verdicts] == [
        (F("1/5"), F("2/5"), F("1/2")),
        (F("1/6"), F("5/18"), F("1/2")),
    ]
    assert na.notes == []


def test_newton_route_rejects_non_convenient():
    with pytest.raises(ValueError, match="convenient"):
        analyze_newton(P("x*y + z^2"), Budget(), False, 0)


def test_newton_route_rejects_curves():
    with pytest.raises(ValueError, match="at least 3 variables"):
        analyze_newton(P("x^2 + y^3", "x y"), Budget(), False, 0)
