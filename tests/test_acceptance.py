"""Acceptance suite: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

Each test drives the public surface — the CLI or the top-level library
calls — and checks exact values, statistical thresholds, and the stated
wall-clock bounds.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np

from germlab import foliation
from germlab.cli import main
from germlab.foliation import (
    LINK_TOLERANCE,
    LinkSample,
    _gauss_newton_project,
    deform_arc,
    sample_link,
    sigma_link_cloud,
    tangency_exponent,
)
from germlab.germ import analyze_newton, germ_system, sigma
from germlab.groebner import (
    Budget,
    BudgetExhausted,
    buchberger,
    is_groebner_basis,
    krull_dimension,
    leading_monomial,
    local_standard_basis,
    milnor_number,
)
from germlab.orders import grevlex
from germlab.parse import parse_poly
from germlab.poly import NumericEvaluator, Poly, jacobian
from germlab.qi import QI

from conftest import F, P, fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def briancon_speder_system():
    variables = ["x", "y", "z"]
    return germ_system(
        variables,
        [parse_poly("z^5 + x^15 + x*y^7", variables)],
        [parse_poly("z*y^6", variables)],
        [F(1, 15), F(2, 15), F(3, 15)],
    )


def test_criterion_01_briancon_speder_sigma(capsys):
    started = time.monotonic()
    code, out, _ = run_cli(capsys, "sigma", str(fixture_path("briancon_speder.json")))
    elapsed = time.monotonic() - started
    assert code == 0
    doc = json.loads(out)["sigma"]
    assert doc["is_origin_only"] is False
    assert doc["total_dim"] == 1
    # the one positive-dimensional component is the slice singular locus,
    # whose zero set is V(x, z)
    by_label = {c["label"]: c for c in doc["components"]}
    slice_component = by_label["Sing[X0 n V(x)]"]
    assert slice_component["dimension"] == 1
    assert slice_component["status"] == "computed"
    assert sorted(slice_component["basis"]) == ["x", "z^4"]
    # the other components contribute nothing beyond the origin
    assert by_label["Sing[X0]"]["dimension"] == 0
    assert by_label["Sing[X0 n V(x, y)]"]["dimension"] == 0
    assert elapsed < 5.0


def test_criterion_02_equal_weights_single_component():
    rng = random.Random(9)
    names = ["x", "y", "z", "w"]
    for trial in range(20):
        nvars = rng.randint(2, 4)
        degree = rng.choice([2, 3])
        while True:
            terms = {}
            for _ in range(rng.randint(2, 5)):
                mono = [0] * nvars
                for _ in range(degree):
                    mono[rng.randrange(nvars)] += 1
                terms[tuple(mono)] = QI(rng.choice([-2, -1, 1, 2, 3]))
            f = Poly(nvars, terms)
            if not f.is_zero():
                break
        system = germ_system(
            names[:nvars], [f], [Poly.zero(nvars)], [Fraction(1, degree)] * nvars
        )
        locus = sigma(system, Budget())
        labels = [c.label for c in locus.components]
        assert labels == ["Sing[X0]"], f"trial {trial}: {labels}"


def test_criterion_03_a_k_family_verdicts(capsys):
    for k in range(1, 7):
        started = time.monotonic()
        code, out, _ = run_cli(capsys, "analyze", str(fixture_path(f"a{k}.json")))
        elapsed = time.monotonic() - started
        verdict = json.loads(out)["analysis"]["verdict"]
        if k == 1:
            assert code == 0 and verdict == "NO_OBSTRUCTION_FOUND"
        else:
            assert code == 10 and verdict == "FAST_CYCLE_FOUND"
        assert elapsed < 10.0


def test_criterion_04_quadric_needs_the_user_flag(capsys):
    path = str(fixture_path("quadric_cone_4d.json"))
    for seed in ("0", "1", "2"):
        code, out, _ = run_cli(capsys, "analyze", path, "--seed", seed)
        assert code == 20
        assert json.loads(out)["analysis"]["verdict"] == "HYPOTHESES_UNVERIFIED"


def _brute_force_staircase_count(leading):
    """Lattice points divisible by no leading monomial, counted directly."""
    nvars = len(leading[0])
    bounds = [max(m[j] for m in leading) for j in range(nvars)]
    # a variable missing from every leading monomial would make the
    # staircase infinite; the inputs here are isolated singularities
    assert all(b > 0 for b in bounds)
    count = 0
    for point in itertools.product(*(range(b) for b in bounds)):
        if not any(all(point[j] >= m[j] for j in range(nvars)) for m in leading):
            count += 1
    return count


def test_criterion_05_milnor_numbers_dual_route():
    for a, b in itertools.product(range(2, 6), repeat=2):
        started = time.monotonic()
        f = P(f"x^{a} + y^{b}", "x y")
        mu = milnor_number(f, Budget())
        # independent route: brute-force staircase count over the leading
        # monomials of the Jacobian ideal's local standard basis
        basis = local_standard_basis([f.partial(j) for j in range(f.nvars)], Budget())
        leading = [leading_monomial(g, basis.order) for g in basis.generators]
        staircase = _brute_force_staircase_count(leading)
        elapsed = time.monotonic() - started
        assert mu == (a - 1) * (b - 1)
        assert staircase == mu
        assert elapsed < 2.0


def test_criterion_06_newton_face_weight_flags():
    flagged = analyze_newton(P("x^2 + y^3 + z^7"), Budget(), False, 0)
    assert len(flagged.face_verdicts) == 1  # one top face
    verdict = flagged.face_verdicts[0]
    assert verdict.certificate is True
    assert verdict.status == "certificate"
    assert verdict.sorted_weights[0] == F(1, 7)
    assert verdict.sorted_weights[1] == F(1, 3)
    assert verdict.lower_weights_coincide is False

    silent = analyze_newton(P("x^3 + y^3 + z^3"), Budget(), False, 0)
    assert len(silent.face_verdicts) == 1
    verdict = silent.face_verdicts[0]
    assert verdict.certificate is False
    assert verdict.status == "silent"
    assert verdict.lower_weights_coincide is True


def test_criterion_07_foliation_residuals_and_contact_order():
    started = time.monotonic()
    variables = ["x", "y", "z"]
    sphere = germ_system(
        variables,
        [parse_poly("x^2 + y^2 + z^2", variables)],
        [parse_poly("z^3", variables)],
        [F(1, 2), F(1, 2), F(1, 2)],
    )
    samples = sample_link(sphere, 50, seed=0, sigma_cloud=[])
    assert len(samples) == 50
    full_grid = 0
    for s in samples:
        arc = deform_arc(sphere, 0.5, s)
        if all(arc.converged) and max(arc.residuals) < 1e-9:
            full_grid += 1
            reference = deform_arc(sphere, 0.0, s)
            (est,) = tangency_exponent(
                np.array([arc.points, reference.points]),
                np.array([arc.converged, reference.converged]),
                np.array([[0, 1]]),
            )
            # delta/w_N = (3/2 - 1)/(1/2) = 1, so the contact order is 2
            assert est.alpha >= 1.95
    elapsed = time.monotonic() - started
    assert full_grid >= 0.95 * 50
    assert elapsed < 60.0


def test_criterion_08_divergence_near_sigma_statistics(monkeypatch):
    monkeypatch.setattr(foliation, "SIGMA_CLOUD_POINTS", 120)
    system = briancon_speder_system()
    principal = list(system.principal)
    equations = NumericEvaluator(principal)
    partials = NumericEvaluator([d for row in jacobian(principal) for d in row])
    epsilon = 0.1  # 1/10
    for seed in (0, 1, 2):
        cloud = sigma_link_cloud(system, seed=seed, budget=Budget())
        cloud_arr = np.array(cloud)
        rng = np.random.default_rng([seed, 77])
        near = []
        attempts = 0
        while len(near) < 8 and attempts < 400:
            attempts += 1
            anchor = cloud_arr[rng.integers(len(cloud_arr))]
            direction = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            start = anchor + rng.uniform(0.01, 0.045) * direction
            points, _, oks = _gauss_newton_project(
                equations, partials, start[np.newaxis], LINK_TOLERANCE, 60
            )
            point, ok = points[0], bool(oks[0])
            if not ok:
                continue
            distance = float(np.min(np.linalg.norm(cloud_arr - point, axis=1)))
            if 1e-6 < distance <= 0.05:
                near.append(LinkSample(s=tuple(map(complex, point)), distance_to_sigma=distance))
        assert len(near) >= 6, f"seed {seed}: too few near-locus samples"
        non_convergent = sum(
            1 for s in near if not all(deform_arc(system, epsilon, s).converged)
        )
        assert non_convergent >= 0.5 * len(near), (
            f"seed {seed}: {non_convergent}/{len(near)} diverged"
        )

        far = [
            s
            for s in sample_link(system, 8, seed=seed, sigma_cloud=cloud)
            if s.distance_to_sigma > 0.5
        ]
        assert far, f"seed {seed}: no far samples"
        for s in far:
            arc = deform_arc(system, epsilon, s)
            assert all(arc.converged), f"seed {seed}: far sample failed to converge"


def test_criterion_09_groebner_soundness_on_random_ideals():
    def random_monomial(rng, nvars):
        degree = rng.randint(0, 4)
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        return tuple(mono)

    def random_poly(rng, nvars):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[random_monomial(rng, nvars)] = QI(rng.choice([-3, -2, -1, 1, 2, 3]))
        return Poly(nvars, terms)

    def independent_set_dimension(leading, nvars):
        # largest variable subset S meeting no leading support: the
        # combinatorial Krull dimension of the monomial ideal
        if any(sum(m) == 0 for m in leading):
            return -1
        for k in range(nvars, -1, -1):
            for subset in itertools.combinations(range(nvars), k):
                chosen = set(subset)
                if all(
                    not {j for j in range(nvars) if m[j]} <= chosen for m in leading
                ):
                    return k
        raise AssertionError("unreachable")

    rng = random.Random(12345)
    audited = 0
    for trial in range(200):
        nvars = rng.randint(1, 4)
        gens = [
            p
            for p in (random_poly(rng, nvars) for _ in range(rng.randint(1, 4)))
            if not p.is_zero()
        ] or [random_poly(rng, nvars)]
        try:
            gb = buchberger(gens, grevlex(nvars), Budget(200_000))
            assert is_groebner_basis(gb.generators, gb.order, budget=Budget(400_000)), (
                f"trial {trial}: S-polynomial audit failed"
            )
        except BudgetExhausted:  # no basis returned, nothing to audit
            continue
        audited += 1
        leading = [leading_monomial(g, gb.order) for g in gb.generators]
        monomial_gens = [Poly(nvars, {m: QI.one()}) for m in leading]
        monomial_gb = buchberger(monomial_gens, grevlex(nvars), Budget())
        monomial_leading = [
            leading_monomial(g, monomial_gb.order) for g in monomial_gb.generators
        ]
        assert krull_dimension(monomial_gb) == independent_set_dimension(
            monomial_leading, nvars
        ), f"trial {trial}: dimension mismatch"
    assert audited >= 190  # budget skips must stay exceptional


def test_criterion_10_byte_identical_reports(capsys, tmp_path):
    outputs = {}
    jobs = {
        "analyze": ["analyze", str(fixture_path("briancon_speder.json")), "--seed", "5"],
        "sigma": ["sigma", str(fixture_path("briancon_speder.json"))],
        "newton": ["newton", str(fixture_path("x2y3z7.json"))],
        "foliate": [
            "foliate",
            str(fixture_path("sphere_cubic.json")),
            "--samples", "4",
            "--seed", "5",
            "--csv", str(tmp_path / "arcs.csv"),
        ],
    }
    for name, argv in jobs.items():
        blobs = []
        for run in ("first", "second"):
            out_path = tmp_path / f"{name}-{run}.json"
            code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
            assert code in (0, 10, 20)
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1], f"{name} report is not byte-stable"
        outputs[name] = blobs[0]
    # distinct commands do produce distinct reports
    assert len({v for v in outputs.values()}) == len(outputs)
