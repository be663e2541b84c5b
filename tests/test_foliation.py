"""Tests for link sampling, arc deformation, tangency fitting, and the
foliation property checks.

Numeric expectations were computed independently before being frozen here:
power-law contact orders from hand-built curves, deviation scaling from the
first-order theory (deviation linear in the deformation scale), and the
obstruction-locus geometry of the z^5 + x^15 + x*y^7 family (singular locus
the y-axis, so its link is the circle (0, e^{i*theta}, 0)).
"""

from __future__ import annotations

import csv
import itertools
import math
import multiprocessing
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germlab import foliation
from germlab.foliation import (
    DEFAULT_T_GRID,
    ArcSample,
    LinkSample,
    PairDichotomy,
    TangencyEstimate,
    _distance_to_cloud,
    _gauss_newton_project,
    _project_attempts,
    deform_arc,
    rescaled_gradient,
    sample_link,
    sigma_link_cloud,
    tangency_exponent,
    verify_foliation,
    write_arc_csv,
)
from germlab.germ import germ_system, sigma
from germlab.germfile import load_system
from germlab.groebner import Budget
from germlab.poly import NumericEvaluator, _stacked_lstsq, jacobian_evaluator

from conftest import P, F, load_fixture


@pytest.fixture(scope="module")
def sphere():
    return germ_system(
        ["x", "y", "z"],
        [P("x^2 + y^2 + z^2")],
        [P("z^3")],
        [F(1, 2), F(1, 2), F(1, 2)],
    )


@pytest.fixture(scope="module")
def briancon_speder():
    return germ_system(
        ["x", "y", "z"],
        [P("z^5 + x^15 + x*y^7")],
        [P("z*y^6")],
        [F(1, 15), F(2, 15), F(3, 15)],
    )


# ---------------------------------------------------------------------------
# link sampling


def test_link_samples_lie_on_link(sphere):
    samples = sample_link(sphere, 10, seed=0, sigma_cloud=[])
    assert len(samples) == 10
    for s in samples:
        norm = math.sqrt(sum(abs(c) ** 2 for c in s.s))
        assert abs(norm - 1.0) < 1e-10
        value = sphere.principal[0].evaluate_numeric(s.s)
        assert abs(value) < 1e-12


def test_link_sampling_is_deterministic(sphere):
    a = sample_link(sphere, 5, seed=3, sigma_cloud=[])
    b = sample_link(sphere, 5, seed=3, sigma_cloud=[])
    assert a == b
    c = sample_link(sphere, 5, seed=4, sigma_cloud=[])
    assert a != c


def test_link_sampling_warns_when_link_is_empty(sphere, monkeypatch):
    # no residual is at most a negative tolerance, so every projection fails
    monkeypatch.setattr(foliation, "LINK_TOLERANCE", -1.0)
    monkeypatch.setattr(foliation, "LINK_ATTEMPT_FACTOR", 5)
    with pytest.warns(UserWarning) as caught:
        out = sample_link(sphere, 3, seed=0, sigma_cloud=[])
    assert out == []
    assert [str(w.message) for w in caught] == [
        "link sampling produced 0/3 points after 15 attempts; the link may be "
        "empty at tolerance -1"
    ]


def test_link_sampling_rejects_constant_equations(sphere):
    # a constant equation never reaches the sampler: no germ system has one
    with pytest.raises(ValueError, match="total degree < 2"):
        germ_system(["x", "y", "z"], [P("3")], [P("0")], [F(1, 2)] * 3)
    with pytest.raises(ValueError):
        sample_link(sphere, -1, seed=0, sigma_cloud=[])


def test_sigma_cloud_fills_distances(sphere, briancon_speder, monkeypatch):
    # The sphere germ has isolated singularity: empty cloud, inf distances.
    monkeypatch.setattr(foliation, "SIGMA_CLOUD_POINTS", 20)
    assert sigma_link_cloud(sphere, seed=0, budget=Budget()) == []
    plain = sample_link(sphere, 3, seed=0, sigma_cloud=[])
    assert all(s.distance_to_sigma == math.inf for s in plain)

    monkeypatch.setattr(foliation, "SIGMA_CLOUD_POINTS", 30)
    cloud = sigma_link_cloud(briancon_speder, seed=0, budget=Budget())
    assert len(cloud) == 30
    samples = sample_link(briancon_speder, 3, seed=0, sigma_cloud=cloud)
    assert all(math.isfinite(s.distance_to_sigma) for s in samples)


def test_sigma_link_cloud_gives_each_component_the_rounded_up_share(monkeypatch):
    # each of the k positive-dimensional components of Sigma gets
    # ceil(SIGMA_CLOUD_POINTS / k) points, so the cloud can hold up to
    # SIGMA_CLOUD_POINTS + k - 1
    monkeypatch.setattr(foliation, "SIGMA_CLOUD_POINTS", 10)
    system = load_system(load_fixture("quadric_cone_4d.json")).system
    locus = sigma(system, Budget())
    k = sum(1 for c in locus.components if c.dimension is not None and c.dimension >= 1)
    assert k == 3
    assert len(sigma_link_cloud(system, seed=0, budget=Budget())) == 12


def test_sigma_link_cloud_lands_on_singular_circle(briancon_speder, monkeypatch):
    # Sing of z^5 + x^15 + x*y^7 is the y-axis; its link is the circle
    # (0, e^{i*theta}, 0).
    monkeypatch.setattr(foliation, "SIGMA_CLOUD_POINTS", 40)
    cloud = sigma_link_cloud(briancon_speder, seed=0, budget=Budget())
    assert len(cloud) == 40
    arr = np.array(cloud)
    assert np.max(np.abs(arr[:, 0])) < 1e-8
    assert np.max(np.abs(arr[:, 2])) < 1e-4
    assert np.max(np.abs(np.abs(arr[:, 1]) - 1.0)) < 1e-8


# ---------------------------------------------------------------------------
# arc deformation


def test_zero_epsilon_arc_is_the_exact_power_law(sphere):
    samples = sample_link(sphere, 4, seed=1, sigma_cloud=[])
    w = np.array([float(wi) for wi in sphere.weights])
    for s in samples:
        arc = deform_arc(sphere, 0.0, s)
        assert arc.t_grid == DEFAULT_T_GRID
        assert all(arc.converged)
        assert arc.iteration_residuals == ((),) * len(DEFAULT_T_GRID)
        for t, point in zip(arc.t_grid, arc.points):
            expected = (t**w) * np.asarray(s.s, dtype=complex)
            assert np.array_equal(np.asarray(point), expected)


def test_perturbed_sphere_arc_converges_on_the_full_grid(sphere):
    samples = sample_link(sphere, 10, seed=0, sigma_cloud=[])
    arc = deform_arc(sphere, 0.5, samples[0])
    assert all(arc.converged)
    assert max(arc.residuals) < 1e-10
    assert arc.gram_determinant == pytest.approx(4.0, abs=1e-9)


def test_arc_residual_matches_direct_evaluation(sphere):
    eps = 0.5
    s = sample_link(sphere, 1, seed=2, sigma_cloud=[])[0]
    arc = deform_arc(sphere, eps, s)
    f = sphere.principal[0]
    q = sphere.perturbation[0]
    for t, point, reported in zip(arc.t_grid, arc.points, arc.residuals):
        value = f.evaluate_numeric(point) + eps * q.evaluate_numeric(point)
        assert abs(value) / t == pytest.approx(reported, rel=1e-9, abs=1e-15)


def test_newton_runs_are_short_and_quadratic(sphere):
    s = sample_link(sphere, 1, seed=0, sigma_cloud=[])[0]
    arc = deform_arc(sphere, 0.5, s)
    lengths = [len(h) for h in arc.iteration_residuals]
    assert max(lengths) <= 5  # warm starts keep every run short
    assert lengths[-1] <= lengths[0]
    first = arc.iteration_residuals[0]
    assert all(b < a for a, b in zip(first, first[1:]))
    # quadratic contraction once inside the basin
    for a, b in zip(first, first[1:]):
        assert b <= 10.0 * a * a


def test_arc_deviation_scales_linearly_with_epsilon(sphere):
    s = sample_link(sphere, 1, seed=0, sigma_cloud=[])[0]
    reference = deform_arc(sphere, 0.0, s)
    deviations = []
    for eps in (0.08, 0.04, 0.02, 0.01):
        arc = deform_arc(sphere, eps, s)
        deviations.append(
            max(
                np.linalg.norm(np.asarray(p) - np.asarray(q)) / np.linalg.norm(np.asarray(q))
                for p, q in zip(arc.points, reference.points)
            )
        )
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    for a, b in zip(deviations, deviations[1:]):
        assert a / b == pytest.approx(2.0, abs=0.15)


def test_same_order_epsilon_cap(briancon_speder):
    samples = sample_link(briancon_speder, 2, seed=0, sigma_cloud=[])
    s = samples[0]
    assert briancon_speder.is_same_order()
    # the library takes any scale: the same-order cap is the command line's note
    assert repr(deform_arc(briancon_speder, 0.5, s)) == repr(_oracle_arc(briancon_speder, 0.5, s))
    arc = verify_foliation(briancon_speder, 0.5, samples, seed=0).arcs[0]
    assert arc.epsilon == 0.5
    deform_arc(briancon_speder, 0.1, s)


def test_coordinate_plane_membership_is_bitwise(briancon_speder):
    # (0, 1, 0) lies on the link (the equation and the perturbation both
    # vanish on the y-axis); the deformed arc must stay in V(x, z) exactly.
    plane = LinkSample(s=(0j, 1 + 0j, 0j), distance_to_sigma=math.inf)
    arc = deform_arc(briancon_speder, 0.1, plane)
    points = np.array(arc.points)
    assert np.all(points[:, 0] == 0.0)
    assert np.all(points[:, 2] == 0.0)
    assert all(arc.converged)
    # the gradient certificate degenerates on the singular axis
    assert arc.gram_determinant == 0.0


def _bs_link_point_near_axis(system, eta):
    """An exact point of the principal link at distance ~ (eta)^(1/5)
    from the singular circle (0, e^{i*theta}, 0), built by hand."""
    y = 1.0
    z = 0.0
    for _ in range(60):
        z = -((eta**15 + eta * y**7) ** (1 / 5))
        y = math.sqrt(1.0 - eta * eta - z * z)
    s = (eta + 0j, y + 0j, z + 0j)
    assert abs(system.principal[0].evaluate_numeric(s)) < 1e-12
    return LinkSample(s=s, distance_to_sigma=math.hypot(eta, z))


def test_divergence_near_the_obstruction_locus(briancon_speder):
    near = _bs_link_point_near_axis(briancon_speder, 1e-10)
    assert near.distance_to_sigma < 0.02
    arc = deform_arc(briancon_speder, 0.1, near)
    # the Newton continuation escapes past the iterate cap: non-convergence
    # across the grid is the numerical signature of the shrinking
    # convergence radius near the obstruction locus
    assert not any(arc.converged)
    # the cap is what stops it: without it the same continuation reaches a
    # distant root of the scaled condition at every t
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foliation, "_Z_CAP", math.inf)
        assert all(deform_arc(briancon_speder, 0.1, near).converged)

    cloud = sigma_link_cloud(briancon_speder, seed=0, budget=Budget())
    far = [
        s
        for s in sample_link(briancon_speder, 6, seed=0, sigma_cloud=cloud)
        if s.distance_to_sigma > 0.5
    ]
    assert far
    arc_far = deform_arc(briancon_speder, 0.1, far[0])
    assert all(arc_far.converged)
    assert max(arc_far.residuals) < 1e-10


def test_failure_marks_all_smaller_t(briancon_speder):
    near = _bs_link_point_near_axis(briancon_speder, 1e-10)
    arc = deform_arc(briancon_speder, 0.1, near)
    seen_failure = False
    for ok in arc.converged:
        if not ok:
            seen_failure = True
        assert not (seen_failure and ok)


# ---------------------------------------------------------------------------
# tangency exponents


def _arcs(*curves, converged=None):
    """Hand-built arcs through the points ``curves[i]`` on ``DEFAULT_T_GRID``,
    every point converged unless ``converged`` flags say otherwise."""
    points = np.array(curves, dtype=complex)
    if converged is None:
        converged = np.ones(points.shape[:2], dtype=bool)
    return _family_arcs(points, np.broadcast_to(converged, points.shape[:2]))


def _fit_pair(a, b):
    """``tangency_exponent`` of two arcs: the batch fit on the one pair, its
    ValueError raised."""
    (fit,) = tangency_exponent(
        np.array([a.points, b.points], dtype=complex),
        np.array([a.converged, b.converged], dtype=bool),
        np.array([[0, 1]]),
    )
    if isinstance(fit, ValueError):
        raise fit
    return fit


def _power_law_pair(alpha, converged=None):
    t = DEFAULT_T_GRID
    return _arcs([(ti, ti**alpha) for ti in t], [(ti, 0.0) for ti in t], converged=converged)


def test_tangency_of_synthetic_power_law_curves():
    a, b = _power_law_pair(2.0)
    est = _fit_pair(a, b)
    assert est.alpha == pytest.approx(2.0, abs=0.05)
    assert est.r2 > 0.999
    assert est.window[0] < est.window[1] <= 0.5


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.2, max_value=3.0, allow_nan=False))
def test_tangency_recovers_random_exponents(alpha):
    a, b = _power_law_pair(alpha)
    est = _fit_pair(a, b)
    assert est.alpha == pytest.approx(alpha, abs=0.08)


def test_tangency_of_identical_arcs_is_infinite(sphere):
    s = sample_link(sphere, 1, seed=0, sigma_cloud=[])[0]
    arc = deform_arc(sphere, 0.5, s)
    est = _fit_pair(arc, arc)
    assert est.alpha == math.inf
    assert est.r2 == 1.0


def test_tangency_grid_and_count_validation(sphere):
    # every arc is on DEFAULT_T_GRID; a fit needs MIN_FIT_POINTS commonly
    # converged points of it
    assert all(arc.t_grid is DEFAULT_T_GRID for arc in _power_law_pair(2.0))
    tiny, tiny2 = _power_law_pair(2.0, converged=np.arange(len(DEFAULT_T_GRID)) < 5)
    with pytest.raises(ValueError, match=r"insufficient converged points for a tangency fit \(5 < 6\)"):
        _fit_pair(tiny, tiny2)


def test_perturbed_arc_contacts_its_reference_at_the_predicted_order(sphere):
    # delta = 3/2 - 1 = 1/2 and the largest weight is 1/2, so the deformed
    # arc should contact the unperturbed one at order 1 + delta/w = 2.
    s = sample_link(sphere, 1, seed=0, sigma_cloud=[])[0]
    perturbed = deform_arc(sphere, 0.5, s)
    reference = deform_arc(sphere, 0.0, s)
    est = _fit_pair(perturbed, reference)
    assert est.alpha == pytest.approx(2.0, abs=0.05)
    assert est.r2 > 0.999


# ---------------------------------------------------------------------------
# the foliation report


def test_verify_foliation_on_the_perturbed_sphere(sphere):
    samples = sample_link(sphere, 12, seed=0, sigma_cloud=[])
    report = verify_foliation(sphere, 0.5, samples, seed=0)
    assert report.passed
    assert report.failures == ()
    assert report.converged_fraction == 1.0
    assert report.separation_ok
    assert report.coordinate_planes_ok
    assert report.min_separation > 0.1
    assert len(report.arcs) == len(report.reference_arcs) == 12
    assert 0 < len(report.dichotomy) <= 60
    for pair in report.dichotomy:
        assert pair.ok
        # generic link points are pairwise transverse: contact order 1
        assert pair.unperturbed.alpha == pytest.approx(1.0, abs=0.05)
        assert pair.perturbed.alpha == pytest.approx(1.0, abs=0.1)


def test_verify_foliation_is_deterministic(sphere):
    samples = sample_link(sphere, 6, seed=5, sigma_cloud=[])
    a = verify_foliation(sphere, 0.5, samples, seed=1)
    b = verify_foliation(sphere, 0.5, samples, seed=1)
    assert a == b


def test_verify_foliation_needs_two_samples(sphere):
    samples = sample_link(sphere, 1, seed=0, sigma_cloud=[])
    with pytest.raises(ValueError, match="at least 2"):
        verify_foliation(sphere, 0.5, samples, seed=0)


# ---------------------------------------------------------------------------
# CSV export


def test_write_arc_csv_layout(tmp_path, sphere):
    samples = sample_link(sphere, 2, seed=0, sigma_cloud=[])
    arcs = [deform_arc(sphere, 0.5, s) for s in samples]
    path = tmp_path / "arcs.csv"
    write_arc_csv(path, arcs, seed=7)
    rows = list(csv.reader(path.open()))
    assert rows[0] == [
        "seed",
        "s0_re", "s0_im", "s1_re", "s1_im", "s2_re", "s2_im",
        "epsilon_re", "epsilon_im",
        "t",
        "x0_re", "x0_im", "x1_re", "x1_im", "x2_re", "x2_im",
        "residual", "converged",
    ]
    assert len(rows) == 1 + 2 * len(DEFAULT_T_GRID)
    first = rows[1]
    assert first[0] == "7"
    assert float(first[7]) == 0.5 and float(first[8]) == 0.0
    assert float(first[9]) == 0.5  # largest grid point first
    assert first[-1] == "1"
    # values round-trip through repr: the recorded point matches the arc
    point = complex(float(first[10]), float(first[11]))
    assert point == arcs[0].points[0][0]


# ---------------------------------------------------------------------------
# lockstep solvers against the one-point-at-a-time solvers they replaced
#
# The oracles below are the sequential implementations as they stood before
# the solvers ran in lockstep.  Every batched result must equal them bit for
# bit: projections as bytes, arcs by repr.


def _at(evaluator, x):
    """The evaluator at one point, as a one-row block."""
    return evaluator.rows(np.asarray(x, dtype=complex)[np.newaxis])[0]


def _oracle_project(equations, partials, start, tolerance, max_iterations=60):
    x = np.asarray(start, dtype=complex)
    nvars = x.shape[0]
    for _ in range(max_iterations):
        vals = _at(equations, x)
        sphere = float(np.vdot(x, x).real) - 1.0
        residual = float(np.max(np.abs(vals))) if len(vals) else 0.0
        if residual <= tolerance and abs(sphere) <= 1e-12:
            return x, residual, True
        res_real = np.concatenate([vals.real, vals.imag, [sphere]])
        jac = _at(partials, x).reshape(len(vals), nvars)
        jac_real = np.zeros((2 * len(vals) + 1, 2 * nvars))
        jac_real[: len(vals), :nvars] = jac.real
        jac_real[: len(vals), nvars:] = -jac.imag
        jac_real[len(vals) : 2 * len(vals), :nvars] = jac.imag
        jac_real[len(vals) : 2 * len(vals), nvars:] = jac.real
        jac_real[-1, :nvars] = 2.0 * x.real
        jac_real[-1, nvars:] = 2.0 * x.imag
        step, *_ = np.linalg.lstsq(jac_real, -res_real, rcond=None)
        delta = step[:nvars] + 1j * step[nvars:]
        norm_old = float(np.linalg.norm(res_real))
        lam = 1.0
        accepted = False
        while lam >= 2.0**-20:
            x_try = x + lam * delta
            vals_try = _at(equations, x_try)
            sphere_try = float(np.vdot(x_try, x_try).real) - 1.0
            norm_try = float(
                np.linalg.norm(np.concatenate([vals_try.real, vals_try.imag, [sphere_try]]))
            )
            if norm_try < norm_old or norm_try <= tolerance:
                x = x_try
                accepted = True
                break
            lam /= 2.0
        if not accepted:
            break
    vals = _at(equations, x)
    sphere = float(np.vdot(x, x).real) - 1.0
    residual = float(np.max(np.abs(vals))) if len(vals) else 0.0
    return x, residual, residual <= tolerance and abs(sphere) <= 1e-12


def _oracle_attempts(equations, partials, nvars, want, limit, seed, tolerance, max_iterations,
                     project=_oracle_project):
    found = []
    attempts = 0
    while len(found) < want and attempts < limit:
        rng = np.random.default_rng([*seed, attempts])
        attempts += 1
        start = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        start /= np.linalg.norm(start)
        point, residual, ok = project(equations, partials, start, tolerance, max_iterations)
        if ok:
            found.append((point, residual))
    return found, attempts


def _oracle_rescaled_gradient(system, s):
    cumulative = np.cumsum(np.abs(s) ** 2)
    scales = np.empty(system.nvars)
    for j in range(system.nvars):
        boundary = next(b for b in system.breakpoints if b >= j + 1)
        if np.all(s[:boundary] == 0.0):
            scales[j] = 0.0
        else:
            scales[j] = math.sqrt(float(cumulative[boundary - 1]))
    _, _, df_p, _ = system.evaluators
    grad = _at(df_p, s).reshape(system.c, system.nvars)
    return grad * scales[np.newaxis, :]


def _oracle_arc(system, epsilon, sample, *, tolerance=1e-11, max_iterations=40, z_cap=1e3):
    epsilon = complex(epsilon)
    nvars = system.nvars
    r = system.c
    s_arr = np.asarray(sample.s, dtype=complex)
    w_float = np.array([float(w) for w in system.weights])
    p_float = np.array([float(d) for d in system.degrees])
    grad = _oracle_rescaled_gradient(system, s_arr)
    gram = grad @ grad.conj().T
    gram_determinant = float(np.linalg.det(gram).real)
    conj_t = grad.conj().T
    zero_rows = np.all(conj_t == 0.0, axis=1)
    f_p, f_q, df_p, df_q = system.evaluators

    def scaled_residual(t_neg, t_pow, z):
        h = conj_t @ z
        h[zero_rows] = 0.0
        x = t_pow * (s_arr + epsilon * h)
        values = _at(f_p, x) + epsilon * _at(f_q, x)
        f_scaled = t_neg * values
        return x, f_scaled, float(np.max(np.abs(f_scaled)))

    point_rows, residual_rows, converged_rows, history_rows = [], [], [], []
    z = np.zeros(r, dtype=complex)
    failed = False
    for t in DEFAULT_T_GRID:
        t_pow = t**w_float
        t_neg = t ** (-p_float)
        if failed or epsilon == 0:
            x, _, resid = scaled_residual(t_neg, t_pow, z)
            point_rows.append(tuple(complex(v) for v in x))
            residual_rows.append(resid)
            converged_rows.append(not failed)
            history_rows.append(())
            continue
        history = []
        x, f_scaled, resid = scaled_residual(t_neg, t_pow, z)
        history.append(resid)
        within_cap = bool(np.all(np.isfinite(z)) and np.max(np.abs(z), initial=0.0) <= z_cap)
        ok = resid <= tolerance and within_cap
        for _ in range(max_iterations):
            if ok or not within_cap:
                break
            jac = _at(df_p, x) + epsilon * _at(df_q, x)
            jac = jac.reshape(r, nvars)
            j_z = (t_neg[:, np.newaxis] * (jac * t_pow[np.newaxis, :])) @ (epsilon * conj_t)
            try:
                delta = np.linalg.solve(j_z, -f_scaled)
            except np.linalg.LinAlgError:
                delta, *_ = np.linalg.lstsq(j_z, -f_scaled, rcond=None)
            lam = 1.0
            accepted = False
            while lam >= 2.0**-16:
                z_try = z + lam * delta
                if not np.all(np.isfinite(z_try)):
                    lam /= 2.0
                    continue
                x_try, f_try, resid_try = scaled_residual(t_neg, t_pow, z_try)
                if resid_try < resid or resid_try <= tolerance:
                    z, x, f_scaled, resid = z_try, x_try, f_try, resid_try
                    accepted = True
                    break
                lam /= 2.0
            history.append(resid)
            if not accepted:
                break
            within_cap = bool(np.all(np.isfinite(z)) and np.max(np.abs(z), initial=0.0) <= z_cap)
            ok = resid <= tolerance and within_cap
        point_rows.append(tuple(complex(v) for v in x))
        residual_rows.append(resid)
        converged_rows.append(ok)
        history_rows.append(tuple(history))
        if not ok:
            failed = True
    return ArcSample(
        s=sample, epsilon=epsilon, points=tuple(point_rows), residuals=tuple(residual_rows),
        converged=tuple(converged_rows), gram_determinant=gram_determinant,
        iteration_residuals=tuple(history_rows),
    )


def _assert_projections_match(equations, partials, starts, tolerance=1e-10):
    x, residual, ok = _gauss_newton_project(equations, partials, starts, tolerance, 60)
    for i, start in enumerate(starts):
        point, res, good = _oracle_project(equations, partials, start, tolerance)
        assert (point.tobytes(), repr(res), good) == (
            x[i].tobytes(), repr(float(residual[i])), bool(ok[i])
        )
    return ok


def _unit_starts(count, nvars, seed):
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((count, nvars)) + 1j * rng.standard_normal((count, nvars))
    return starts / np.linalg.norm(starts, axis=1)[:, np.newaxis]


def test_lockstep_projection_matches_the_per_point_oracle(sphere, briancon_speder):
    for system in (sphere, briancon_speder):
        equations, _, partials, _ = system.evaluators
        ok = _assert_projections_match(equations, partials, _unit_starts(24, 3, 11))
        assert ok.all()
        # a tolerance below what some rows reach: converged and failed rows mix
        ok = _assert_projections_match(
            equations, partials, _unit_starts(24, 3, 12), tolerance=1e-17
        )
        assert ok.any() and not ok.all()


def test_lockstep_projection_of_huge_starts_matches_the_oracle(sphere, briancon_speder):
    starts = _unit_starts(6, 3, 13)
    starts[::2] *= 1e200
    equations, _, partials, _ = sphere.evaluators
    with pytest.warns(RuntimeWarning):
        ok = _assert_projections_match(equations, partials, starts)
    assert list(ok) == [False, True] * 3
    # here an overflowing row stops least squares itself in the oracle; the
    # lockstep solver drops such rows unconverged and projects the others
    equations, _, partials, _ = briancon_speder.evaluators
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(np.linalg.LinAlgError):
            _oracle_project(equations, partials, starts[0], 1e-10)
        x, residual, ok = _gauss_newton_project(equations, partials, starts, 1e-10, 60)
    assert not ok[::2].any()
    assert x[::2].tobytes() == starts[::2].tobytes()
    for i in range(1, len(starts), 2):
        point, res, good = _oracle_project(equations, partials, starts[i], 1e-10)
        assert (point.tobytes(), repr(res), good) == (x[i].tobytes(), repr(float(residual[i])), bool(ok[i]))


def test_link_sampling_over_several_blocks_matches_the_oracle(sphere, monkeypatch):
    # At tolerance 1e-16 about half the attempts fail, so filling the sample
    # takes several blocks; with too few attempts allowed it runs out.
    equations, _, partials, _ = sphere.evaluators
    monkeypatch.setattr(foliation, "LINK_TOLERANCE", 1e-16)
    for count, factor in ((12, 100), (12, 1)):
        monkeypatch.setattr(foliation, "LINK_ATTEMPT_FACTOR", factor)
        found, attempts = _oracle_attempts(
            equations, partials, 3, count, factor * count, (4,), 1e-16, 60
        )
        assert attempts > count if factor > 1 else len(found) < count
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            samples = sample_link(sphere, count, 4, sigma_cloud=[])
        assert [s.s for s in samples] == [tuple(point.tolist()) for point, _ in found]
        assert [str(w.message) for w in caught] == (
            [] if len(found) == count else [
                f"link sampling produced {len(found)}/{count} points after {attempts} "
                "attempts; the link may be empty at tolerance 1e-16"
            ]
        )


def test_sigma_cloud_over_several_blocks_matches_the_oracle(monkeypatch):
    # Sigma of this codim-3 germ is a curve whose projections often fail, so
    # the cloud fills over several blocks.
    monkeypatch.setattr(foliation, "SIGMA_CLOUD_POINTS", 30)
    system = germ_system(
        ["x", "y", "z", "w"],
        [P("x^2 - y*z", "x y z w"), P("y^2 - z*w", "x y z w"), P("z^2 - x*w", "x y z w")],
        [P("w^3", "x y z w"), P("x^3", "x y z w"), P("y^3", "x y z w")],
        [F(1, 2)] * 4,
    )
    cloud = sigma_link_cloud(system, seed=2, budget=Budget())
    (comp,) = [c for c in sigma(system, Budget()).components if c.dimension and c.dimension >= 1]
    gens = comp.basis.generators
    args = (NumericEvaluator(gens), jacobian_evaluator(gens), 4, 30, 600, (2, 0), 1e-10, 80)
    found, attempts = _oracle_attempts(*args)
    assert attempts > 30
    assert cloud == [tuple(point.tolist()) for point, _ in found]
    assert _project_attempts(*args)[1] == attempts


def test_nine_variable_attempts_over_several_blocks_match_the_oracle():
    # Each attempt draws its 18 start words at once; at tolerance 3e-17 half
    # of these projections fail, so the points come from several blocks, and
    # with 15 attempts allowed the search runs out.
    names = "a b c d e f g h k"
    equations = [
        P("a^2 + b^2 + c^2 + d^2 + e^2 + f^2 + g^2 + h^2 + k^2", names),
        P("a*b - c*d + e*f - g*h + k^3", names),
    ]
    evaluators = (NumericEvaluator(equations), jacobian_evaluator(equations), 9)
    for limit in (200, 15):
        args = (*evaluators, 10, limit, (3,), 3e-17, 60)
        found, attempts = _oracle_attempts(*args)
        assert attempts > 10 if limit > 15 else len(found) < 10
        points, made = _project_attempts(*args)
        assert [point.tobytes() for point in points] == [point.tobytes() for point, _ in found]
        assert made == attempts


def _stub_projections(pattern, poison, seed, nvars=2):
    """Stand-ins for the block and one-point projections: attempt a succeeds
    iff pattern[a], its residual is a, and a block holding the poisoned
    attempt raises LinAlgError as a failed least-squares step would.  The
    attempts of each block are recorded."""
    index = {}
    for attempt in range(len(pattern)):
        rng = np.random.default_rng([*seed, attempt])
        start = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
        start /= np.linalg.norm(start)
        index[start.tobytes()] = attempt
    blocks = []

    def project_block(equations, partials, starts, tolerance, max_iterations=60):
        attempts = [index[start.tobytes()] for start in starts]
        blocks.append(attempts)
        if poison in attempts:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        return starts.copy(), np.array(attempts, dtype=float), np.array([pattern[a] for a in attempts])

    def project_one(equations, partials, start, tolerance, max_iterations):
        x, residual, ok = project_block(equations, partials, start[np.newaxis], tolerance)
        return x[0], float(residual[0]), bool(ok[0])

    return project_block, project_one, blocks


@settings(max_examples=300, deadline=None)
@given(
    pattern=st.lists(st.booleans(), min_size=1, max_size=80),
    want=st.integers(1, 20),
    poison=st.none() | st.integers(0, 79),
)
# no success in the first block; the limit cuts the 4x block after it
@example(pattern=[False] * 4 + [True, False], want=4, poison=None)
# one success in three; the limit cuts the predicted block short
@example(pattern=[True, False, False, True, False], want=3, poison=None)
# the poisoned attempt lies only in the second block's surplus: no error
@example(pattern=[True, False, False, False, True, True, True] + [False] * 9, want=4, poison=10)
def test_block_sizing_keeps_the_one_at_a_time_results(pattern, want, poison):
    seed = (5,)
    project_block, project_one, blocks = _stub_projections(pattern, poison, seed)
    try:
        found, attempts = _oracle_attempts(
            None, None, 2, want, len(pattern), seed, 1e-10, 60, project=project_one
        )
    except np.linalg.LinAlgError:
        found = None
    blocks.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foliation, "_gauss_newton_project", project_block)
        if found is None:
            with pytest.raises(np.linalg.LinAlgError):
                _project_attempts(None, None, 2, want, len(pattern), seed, 1e-10, 60)
            return
        points, ours = _project_attempts(None, None, 2, want, len(pattern), seed, 1e-10, 60)
    assert [p.tobytes() for p in points] == [p.tobytes() for p, _ in found]
    assert ours == attempts
    # a block is never more than four times the points it still needs
    assert blocks[0] == list(range(min(want, len(pattern))))
    assert all(len(block) <= 4 * want for block in blocks)


def test_blocks_follow_the_success_rate():
    for pattern, want, expected in (
        # every other attempt succeeds: the second block is exactly enough
        ([True, False] * 20, 10, [10, 10]),
        # no success at all: four times the missing points, up to the limit
        ([False] * 40, 3, [3, 12, 12, 12, 1]),
        # two successes in ten: ceil(8 * 10 / 2) = 40 is clamped to 4 * 8
        ([True] + [False] * 8 + [True] + [False] * 90, 10, [10, 32, 32, 26]),
    ):
        project_block, _, blocks = _stub_projections(pattern, None, (0,))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(foliation, "_gauss_newton_project", project_block)
            _project_attempts(None, None, 2, want, len(pattern), (0,), 1e-10, 60)
        assert [len(block) for block in blocks] == expected


def test_distance_to_cloud_matches_the_norm_loop(briancon_speder, monkeypatch):
    monkeypatch.setattr(foliation, "SIGMA_CLOUD_POINTS", 40)
    cloud = sigma_link_cloud(briancon_speder, seed=0, budget=Budget())
    samples = sample_link(briancon_speder, 8, seed=0, sigma_cloud=cloud)
    for s in samples:
        point = np.asarray(s.s, dtype=complex)
        best = math.inf
        for q in cloud:
            best = min(best, float(np.linalg.norm(point - np.asarray(q, dtype=complex))))
        assert repr(s.distance_to_sigma) == repr(best)
    with_nan = np.array(cloud[:3] + [(math.nan, 0j, 0j)], dtype=complex)
    assert _distance_to_cloud(np.asarray(samples[0].s), with_nan) == min(
        float(np.linalg.norm(np.asarray(samples[0].s) - q)) for q in with_nan[:3]
    )
    assert _distance_to_cloud(np.zeros(3, dtype=complex), with_nan[3:]) == math.inf


def _assert_arcs_match(system, epsilon, samples):
    arcs = verify_foliation(system, epsilon, samples, seed=0).arcs
    for sample, arc in zip(samples, arcs):
        assert repr(arc) == repr(_oracle_arc(system, epsilon, sample))
        assert repr(deform_arc(system, epsilon, sample)) == repr(arc)
    return arcs


def test_lockstep_arcs_match_the_per_arc_oracle(sphere, briancon_speder):
    samples = sample_link(sphere, 8, seed=3, sigma_cloud=[])
    _assert_arcs_match(sphere, 0.5, samples)
    _assert_arcs_match(sphere, 0.0, samples)
    # Near Sigma one arc diverges: an escape past z_cap, every smaller t
    # marked failed, while its batch mates converge on the whole grid.
    near = _bs_link_point_near_axis(briancon_speder, 1e-10)
    samples = [near] + sample_link(briancon_speder, 5, seed=0, sigma_cloud=[])
    arcs = _assert_arcs_match(briancon_speder, 0.1, samples)
    assert not any(arcs[0].converged)
    assert any(all(arc.converged) for arc in arcs[1:])
    # the escape is past z_cap: without the cap that arc converges, as the
    # oracle without the cap says
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foliation, "_Z_CAP", math.inf)
        uncapped = verify_foliation(briancon_speder, 0.1, samples, seed=0).arcs[0]
    assert all(uncapped.converged)
    assert repr(uncapped) == repr(_oracle_arc(briancon_speder, 0.1, near, z_cap=math.inf))


def test_singular_newton_matrix_falls_back_per_row(briancon_speder):
    # At (0, 1, 0) the rescaled gradient vanishes, so that arc's Newton
    # matrix is zero while the perturbation y^8 keeps the residual nonzero:
    # the stacked solve fails and each row is solved (or least-squared) alone.
    system = germ_system(
        ["x", "y", "z"],
        [P("z^5 + x^15 + x*y^7")],
        [P("y^8")],
        [F(1, 15), F(2, 15), F(3, 15)],
    )
    axis = LinkSample(s=(0j, 1 + 0j, 0j), distance_to_sigma=math.inf)
    samples = [axis] + sample_link(system, 3, seed=1, sigma_cloud=[])
    arcs = _assert_arcs_match(system, 0.1, samples)
    assert arcs[0].gram_determinant == 0.0
    assert not arcs[0].converged[0]
    assert all(arcs[1].converged)


def test_separation_scan_matches_the_pair_loop(briancon_speder):
    near = _bs_link_point_near_axis(briancon_speder, 1e-10)
    samples = sample_link(briancon_speder, 7, seed=0, sigma_cloud=[]) + [near, near]
    report = verify_foliation(briancon_speder, 0.1, samples, seed=0)
    arcs = report.arcs
    failures, min_separation = [], math.inf
    for i, j in itertools.combinations(range(len(arcs)), 2):
        common = [k for k in range(len(DEFAULT_T_GRID)) if arcs[i].converged[k] and arcs[j].converged[k]]
        if not common:
            failures.append(f"separation pair ({i}, {j}): no common converged t")
            continue
        k = max(common)
        x_i = np.asarray(arcs[i].points[k], dtype=complex)
        x_j = np.asarray(arcs[j].points[k], dtype=complex)
        denom = max(float(np.linalg.norm(x_i)), float(np.linalg.norm(x_j)))
        rel = float(np.linalg.norm(x_i - x_j)) / denom if denom > 0.0 else 0.0
        min_separation = min(min_separation, rel)
        if rel < 1e-8:
            failures.append(
                f"separation pair ({i}, {j}): relative distance {rel:.3e} "
                f"below 1e-08 at t = {DEFAULT_T_GRID[k]:g}"
            )
    assert any("no common converged t" in f for f in failures)
    assert [f for f in report.failures if f.startswith("separation")] == failures
    assert repr(report.min_separation) == repr(min_separation)
    assert not report.separation_ok


def test_rescaled_gradient_matches_the_per_sample_oracle(sphere, briancon_speder):
    # each row of the batch is bit for bit the one-sample oracle; the arc
    # oracles check whole arc batches.  (0, 1, 0) has an exactly-zero first
    # block on briancon_speder.
    for system in (sphere, briancon_speder):
        samples = [s.s for s in sample_link(system, 6, seed=5, sigma_cloud=[])] + [(0j, 1 + 0j, 0j)]
        s_arr = np.array(samples, dtype=complex)
        grads = rescaled_gradient(system, s_arr)
        assert grads.shape == (len(samples), system.c, system.nvars)
        for grad, row in zip(grads, s_arr):
            assert grad.tobytes() == _oracle_rescaled_gradient(system, row).tobytes()


# ---------------------------------------------------------------------------
# stacked tangency fits against the per-pair polyfit fit they replaced
#
# _oracle_tangency_exponent is tangency_exponent's body as it stood while
# each pair was its own np.polyfit call.  The stacked fits must give the
# same float words, the same error texts and the same RankWarnings.


def _oracle_tangency_exponent(a, b, *, min_points=6):
    t_a = np.asarray(a.t_grid)
    pts_a, pts_b = np.asarray(a.points, dtype=complex), np.asarray(b.points, dtype=complex)
    mask = np.asarray(a.converged, dtype=bool) & np.asarray(b.converged, dtype=bool)
    if int(mask.sum()) < min_points:
        raise ValueError(
            f"insufficient converged points for a tangency fit "
            f"({int(mask.sum())} < {min_points})"
        )
    t = t_a[mask]
    order = np.argsort(t)
    t = t[order]
    diff = np.linalg.norm(pts_a[mask][order] - pts_b[mask][order], axis=1)
    scale = 0.5 * (
        np.linalg.norm(pts_a[mask][order], axis=1)
        + np.linalg.norm(pts_b[mask][order], axis=1)
    )
    window_count = min(len(t), max(min_points, -(-len(t) // 2)))
    t = t[:window_count]
    diff = diff[:window_count]
    scale = scale[:window_count]
    window = (float(t[0]), float(t[-1]))
    if np.all(diff == 0.0):
        return TangencyEstimate(alpha=math.inf, r2=1.0, window=window)
    keep = diff > 0.0
    if int(keep.sum()) < min_points:
        raise ValueError(
            "arcs coincide at some grid points but not others; "
            "not enough nonzero separations to fit"
        )
    x = np.log(scale[keep])
    y = np.log(diff[keep])
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-30 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    )
    return TangencyEstimate(alpha=float(slope), r2=r2, window=window)


def _family_arcs(points, converged):
    return [
        ArcSample(
            s=LinkSample(s=tuple(pts[0].tolist()), distance_to_sigma=math.inf),
            epsilon=0j,
            points=tuple(map(tuple, pts.tolist())),
            residuals=(0.0,) * len(pts), converged=tuple(flags.tolist()),
            gram_determinant=0.0, iteration_residuals=(),
        )
        for pts, flags in zip(points, converged)
    ]


def _fit_words(fit):
    """A fit's float words, or its error's type and text."""
    if isinstance(fit, ValueError):
        return type(fit), str(fit)
    return np.array([fit.alpha, fit.r2, *fit.window]).tobytes()


def _recorded(call):
    """``call()``'s result (or ValueError) and its warnings as (category, text)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ValueError as exc:
            result = exc
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_fits_match_the_oracle(points, converged, pairs, min_points=6):
    arcs = _family_arcs(points, converged)
    expected, expected_warnings = [], []
    for i, j in pairs:
        fit, caught = _recorded(
            lambda: _oracle_tangency_exponent(arcs[i], arcs[j], min_points=min_points)
        )
        expected.append(fit)
        expected_warnings += caught
    # the fits read their minimum from the module; set it for this family
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foliation, "MIN_FIT_POINTS", min_points)
        fits, caught = _recorded(lambda: tangency_exponent(
            points, converged, np.array(pairs).reshape(-1, 2)
        ))
        assert [_fit_words(fit) for fit in fits] == [_fit_words(fit) for fit in expected]
        rank = (np.exceptions.RankWarning, "Polyfit may be poorly conditioned")
        assert caught.count(rank) == expected_warnings.count(rank)
        assert set(caught) == set(expected_warnings)
        for (i, j), fit in zip(pairs, expected):
            one, _ = _recorded(lambda: _fit_pair(arcs[i], arcs[j]))
            assert _fit_words(one) == _fit_words(fit)
    return fits


@st.composite
def _fit_families(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 12))
    grid = np.array(DEFAULT_T_GRID)
    n = draw(st.integers(1, 4))
    # power laws in t, scaled arc by arc from 1e-135 to 1e135
    powers = rng.uniform(0.0, 1.0, (m, 1, n))
    points = (rng.standard_normal((m, len(grid), n)) + 1j * rng.standard_normal((m, len(grid), n)))
    points *= grid[np.newaxis, :, np.newaxis] ** powers
    points *= 10.0 ** rng.integers(-135, 136, size=(m, 1, 1))
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(0, m, 2)
        shared = rng.random(len(grid)) < draw(st.sampled_from([1.0, 0.5, 0.2]))
        points[j, shared] = points[i, shared]
    converged = rng.random((m, len(grid))) < draw(st.sampled_from([1.0, 0.9, 0.6, 0.3]))
    if draw(st.booleans()):  # arcs that stop converging at some t, as solved ones do
        converged &= np.arange(len(grid)) < rng.integers(0, len(grid) + 1, (m, 1))
    pairs = list(itertools.combinations(range(m), 2))
    return points, converged, pairs, draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(_fit_families())
def test_stacked_tangency_fits_match_the_per_pair_oracle(family):
    _assert_fits_match_the_oracle(*family)


def test_constant_distance_scale_warns_as_polyfit_does():
    # every point has norm 2, so the fit's x column is constant: rank 1
    angles = np.arange(20.0)
    points = np.stack([
        2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1),
        2.0 * np.stack([np.cos(angles**1.5), np.sin(angles**1.5)], axis=1),
        2.0 * np.stack([np.cos(-angles), np.sin(-angles)], axis=1),
    ]).astype(complex)
    fits = _assert_fits_match_the_oracle(points, np.ones((3, 20), dtype=bool), [(0, 1), (0, 2), (1, 2)])
    assert all(isinstance(fit, TangencyEstimate) for fit in fits)
    a, b = _arcs(points[0], points[1])
    _, caught = _recorded(lambda: _fit_pair(a, b))
    assert caught == [(np.exceptions.RankWarning, "Polyfit may be poorly conditioned")]


def test_a_failed_svd_lands_on_its_own_pair():
    # An infinite point puts inf into its pairs' x and y, and the column
    # scaling makes nan of it: their least squares raise, and the other pairs
    # of the same stacked group are solved again one by one.  (A nan point
    # drops out of a fit instead: its distance is nan, never > 0.)
    rng = np.random.default_rng(5)
    t = np.array(DEFAULT_T_GRID)
    points = (rng.standard_normal((4, 20, 3)) + 1j * rng.standard_normal((4, 20, 3))) * t[:, None]
    points[2, 15, 1] = math.inf
    pairs = list(itertools.combinations(range(4), 2))
    fits = _assert_fits_match_the_oracle(points, np.ones((4, 20), dtype=bool), pairs)
    failed = {pair: _fit_words(fit) for pair, fit in zip(pairs, fits) if not isinstance(fit, TangencyEstimate)}
    assert failed == dict.fromkeys(
        [(0, 2), (1, 2), (2, 3)], (np.linalg.LinAlgError, "SVD did not converge in Linear Least Squares")
    )


def _oracle_dichotomy(report, margin=0.1, seed=0, max_pairs=60, fit_tolerance=0.05):
    """verify_foliation's pair loop as it stood, over the report's own arcs."""
    arcs, reference = report.arcs, report.reference_arcs
    all_pairs = list(itertools.combinations(range(len(arcs)), 2))
    if len(all_pairs) > max_pairs:
        all_pairs = sorted(random.Random(seed).sample(all_pairs, max_pairs))
    dichotomy, failures = [], []
    for i, j in all_pairs:
        try:
            alpha_0 = _oracle_tangency_exponent(reference[i], reference[j])
            alpha_e = _oracle_tangency_exponent(arcs[i], arcs[j])
        except ValueError as exc:
            failures.append(f"dichotomy pair ({i}, {j}): {exc}")
            continue
        if alpha_0.alpha <= 1.0 + margin:
            ok = alpha_e.alpha <= 1.0 + margin + fit_tolerance
        else:
            ok = alpha_e.alpha >= 1.0 + margin - fit_tolerance
        dichotomy.append(PairDichotomy((i, j), alpha_0, alpha_e, ok))
        if not ok:
            failures.append(
                f"dichotomy pair ({i}, {j}): unperturbed contact "
                f"{alpha_0.alpha:.4f}, perturbed {alpha_e.alpha:.4f}"
            )
    return dichotomy, failures


def test_verify_foliation_fits_match_the_pair_loop(sphere, briancon_speder):
    near = _bs_link_point_near_axis(briancon_speder, 1e-10)
    for system, epsilon, samples, seed in (
        (sphere, 0.5, sample_link(sphere, 12, seed=2, sigma_cloud=[]), 4),
        (briancon_speder, 0.1, [near] + sample_link(briancon_speder, 7, seed=0, sigma_cloud=[]), 0),
    ):
        report = verify_foliation(system, epsilon, samples, seed=seed)
        dichotomy, failures = _oracle_dichotomy(report, seed=seed)
        assert repr(report.dichotomy) == repr(tuple(dichotomy))
        assert [f for f in report.failures if f.startswith("dichotomy")] == failures
    # the near-axis arc never converges: each of its pairs fails the fit
    assert any("insufficient converged points" in f for f in failures)
    assert len(report.dichotomy) > 0


# ---------------------------------------------------------------------------
# the least-squares kernel, poly._stacked_lstsq, on non-finite input; its
# bitwise tests against np.linalg.lstsq are in test_poly.py


LSTSQ_FAILED = "SVD did not converge in Linear Least Squares"
LSTSQ_PATIENCE_S = 1.0  # a 9x9 lstsq takes microseconds


class _LstsqWorker:
    """np.linalg.lstsq in a child process, because on some matrices with an
    infinite entry LAPACK never returns (with OpenBLAS 0.3.31, the example
    below ran at 100% CPU for minutes, and 3 of 80 draws of the test's
    strategy, all wide matrices with infinities, did not return within a
    second); a call that overruns LSTSQ_PATIENCE_S reports "no return", and
    the worker is replaced."""

    def __init__(self):
        self._pool = None

    def run(self, a, b):
        if self._pool is None:
            self._pool = multiprocessing.get_context("spawn").Pool(1)
            self._pool.apply_async(np.ones, (1,)).get(120)  # the child is up
        try:
            self._pool.apply_async(np.linalg.lstsq, (a, b), {"rcond": None}).get(LSTSQ_PATIENCE_S)
        except np.linalg.LinAlgError as exc:
            return str(exc)
        except multiprocessing.TimeoutError:
            self.close()
            return "no return"
        return "solved"

    def close(self):
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


@pytest.fixture(scope="module")
def lstsq_worker():
    worker = _LstsqWorker()
    yield worker
    worker.close()


@st.composite
def _non_finite_systems(draw):
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = rng.standard_normal((m, n)), rng.standard_normal(m)
    for k in draw(st.lists(st.integers(0, m * n - 1), min_size=1, unique=True)):
        a.flat[k] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return a, b


_LSTSQ_NEVER_RETURNS = (
    np.array([[-math.inf, -0.246396305260956, -0.6411520511801317, -0.4470117958942953],
              [0.6071701084829668, 1.1189682119808173, 0.4668209498482655, -math.inf],
              [0.5343699760561508, -0.4386634141582629, 0.18543196122324326, -1.6904959076346031]]),
    np.array([0.08108277126837858, -0.4276301829378274, 1.2375444969173621]),
)


@settings(max_examples=40, deadline=None)
@given(system=_non_finite_systems())
@example(system=_LSTSQ_NEVER_RETURNS)
def test_lstsq_solves_no_matrix_with_a_non_finite_entry(lstsq_worker, system):
    # so _stacked_lstsq may raise lstsq's error for such a matrix up front
    a, b = system
    assert lstsq_worker.run(a, b) in (LSTSQ_FAILED, "no return")
    finite = np.ones((2,) + a.shape)
    for stack in (a[np.newaxis], np.concatenate([finite, a[np.newaxis]])):
        with pytest.raises(np.linalg.LinAlgError, match=f"^{LSTSQ_FAILED}$"):
            _stacked_lstsq(stack, np.ones(stack.shape[:2]))


def test_a_non_finite_right_hand_side_still_goes_to_lapack():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    for bad in (math.inf, -math.inf, math.nan):
        b = np.array([[1.0, bad, 2.0], [1.0, 2.0, 3.0]])
        solution = _stacked_lstsq(np.stack([a, a]), b)[0]
        assert np.isnan(solution[0]).all()
        assert solution[1].tobytes() == np.linalg.lstsq(a, b[1], rcond=None)[0].tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # from the infinite point
def test_an_infinite_arc_point_fails_its_fit_without_lapack_output(capfd):
    # LAPACK prints "** On entry to DLASCL parameter number 4 had an illegal
    # value" on file descriptor 1 for such a fit; that is foliate's report stream
    rng = np.random.default_rng(5)
    t = np.array(DEFAULT_T_GRID)
    points = (rng.standard_normal((2, 20, 3)) + 1j * rng.standard_normal((2, 20, 3))) * t[:, None]
    points[1, 15, 1] = math.inf
    a, b = _arcs(points[0], points[1])
    with pytest.raises(np.linalg.LinAlgError, match=f"^{LSTSQ_FAILED}$"):
        _fit_pair(a, b)
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# the arc CSV against the csv.writer version it replaced


def _oracle_write_arc_csv(path, arcs, seed):
    if not arcs:
        raise ValueError("no arcs to write")
    nvars = len(arcs[0].s.s)
    header = ["seed"]
    header += [f"s{i}_{part}" for i in range(nvars) for part in ("re", "im")]
    header += ["epsilon_re", "epsilon_im", "t"]
    header += [f"x{i}_{part}" for i in range(nvars) for part in ("re", "im")]
    header += ["residual", "converged"]

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for arc in arcs:
            s_cols = [part for v in arc.s.s for part in (repr(v.real), repr(v.imag))]
            for k, t in enumerate(arc.t_grid):
                row = [str(seed)]
                row += s_cols
                row += [repr(arc.epsilon.real), repr(arc.epsilon.imag), repr(t)]
                row += [
                    part
                    for v in arc.points[k]
                    for part in (repr(v.real), repr(v.imag))
                ]
                row += [repr(arc.residuals[k]), str(int(arc.converged[k]))]
                writer.writerow(row)


def test_write_arc_csv_matches_the_csv_writer_bytes(tmp_path, sphere):
    inf, nan = math.inf, math.nan
    size = len(DEFAULT_T_GRID)
    odd_points = (
        (complex(1.0, -2.0), complex(-0.0, 0.0), complex(3.0, 1e22)),
        (complex(nan, inf), complex(-inf, 5e-324), complex(-5e-324, 1.5e-310)),
        (complex(0.1, 1 / 3), complex(-1e22, 123456789.0), complex(2.0**-1074, -1e308)),
    )
    odd = ArcSample(
        s=LinkSample(s=(complex(nan, -0.0), complex(inf, -inf), complex(5e-324, 1e22)), distance_to_sigma=math.inf),
        epsilon=complex(-0.0, 0.25),
        points=(odd_points * size)[:size],
        residuals=((nan, inf, -0.0) * size)[:size],
        converged=((True, False, False) * size)[:size],
        gram_determinant=0.0,
        iteration_residuals=((),) * size,
    )
    report = verify_foliation(sphere, 0.5j, sample_link(sphere, 2, seed=0, sigma_cloud=[]), seed=0)
    arcs = [odd, *report.arcs, *report.reference_arcs, odd]
    for seed in (-3, 0, 12):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        write_arc_csv(ours, arcs, seed)
        _oracle_write_arc_csv(theirs, arcs, seed)
        assert ours.read_bytes() == theirs.read_bytes()
    assert ours.read_bytes().count(b"\r\n") == 1 + 6 * size
