"""Numerical arc deformation for perturbed weighted-homogeneous germs.

The weighted-homogeneous arcs ``gamma_s(t) = t^w * s`` through link points
``s`` of the principal variety are deformed onto the perturbed variety as

    gamma_{eps,s}(t) = t^w * (s + eps * h(z(t))),   h(z) = conj(G)^T @ z,

where ``G`` is the rescaled gradient matrix of the principal part at ``s``
(:func:`rescaled_gradient`) and ``z(t)`` in C^r solves the scaled condition

    F(z) = t^{-p} * (f_p + eps * f_{>p})(t^w * (s + eps * h(z))) = 0.

The solver is Newton's method on ``F`` directly, warm-started down the
geometric t-grid ``DEFAULT_T_GRID`` (initial ``z = 0`` at the largest t).
The determinant of the Gram matrix ``G @ conj(G)^T`` — by Cauchy–Binet the
sum of the squared absolute r×r minors of ``G`` — is logged with every arc
as the theoretical invertibility certificate: it vanishes exactly over the
obstruction locus Sigma, and its smallness predicts non-convergence, which
is reported (the radius of convergence shrinks to zero near Link[Sigma]),
never hidden.

The link, cloud and arc solvers run in lockstep over blocks of points, each
point with its own convergence and line-search state; every result is bit
for bit the one solving that point alone gives.  The samplers size each
block of attempts from the success rate so far and keep their first
successes in attempt order, so surplus attempts are projected and discarded
without changing any result.  Least squares is the package's one kernel,
:func:`germlab.poly._stacked_lstsq`: a block's Gauss-Newton steps are one
stacked call, as are a family's tangency fits of one length (each bit for
bit ``np.polyfit``'s), and an arc step with a singular matrix one row.

The entry points take what the ``foliate`` pipeline produces: a
:class:`GermSystem`, the :class:`LinkSample` points :func:`sample_link`
returns, and the arrays the lockstep solver works on, every arc on
``DEFAULT_T_GRID``: :func:`rescaled_gradient` takes (m, N) sample rows and
:func:`tangency_exponent` a family's stacked points and converged flags.
They take any scale ``epsilon``; the same-order default and its note are
the command line's.

Everything here is sampled pointwise in floating point; no symbolic Puiseux
expansion is constructed.  Exactness claims are limited to coordinate-plane
preservation: when a link sample has its first block of coordinates exactly
zero, the ansatz forces the matching arc coordinates to stay bitwise zero.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from germlab.germ import Budget, GermSystem, sigma
from germlab.poly import NumericEvaluator, _stacked_lstsq, jacobian_evaluator

__all__ = [
    "LINK_TOLERANCE",
    "LINK_ATTEMPT_FACTOR",
    "SIGMA_CLOUD_POINTS",
    "NEWTON_TOLERANCE",
    "FIT_TOLERANCE",
    "MIN_FIT_POINTS",
    "DEFAULT_T_GRID",
    "DICHOTOMY_MARGIN",
    "MAX_DICHOTOMY_PAIRS",
    "SEPARATION_FLOOR",
    "LinkSample",
    "ArcSample",
    "TangencyEstimate",
    "PairDichotomy",
    "FoliationReport",
    "sample_link",
    "sigma_link_cloud",
    "rescaled_gradient",
    "deform_arc",
    "tangency_exponent",
    "verify_foliation",
    "write_arc_csv",
]


#: residual bound for accepting a projected link point, max_i |f_p_i(s)|.
LINK_TOLERANCE = 1e-10
#: link sampling gives up after this many attempts per requested point.
LINK_ATTEMPT_FACTOR = 100
#: points a Sigma link cloud is asked for, shared out over its components.
SIGMA_CLOUD_POINTS = 200
#: absolute bound on the scaled arc residual max_i |F_i(z)|.
NEWTON_TOLERANCE = 1e-11
#: slack allowed on fitted tangency exponents.
FIT_TOLERANCE = 0.05
#: fewest commonly converged points a tangency fit is made from.
MIN_FIT_POINTS = 6
#: geometric grid 2^-1, 2^-2, ..., 2^-20 (decreasing): every arc's grid.
DEFAULT_T_GRID: tuple[float, ...] = tuple(0.5**k for k in range(1, 21))
#: contact orders up to 1 + margin are transverse, above it tangent.
DICHOTOMY_MARGIN = 0.1
#: most arc pairs whose dichotomy is fitted; more are subsampled by seed.
MAX_DICHOTOMY_PAIRS = 60
#: relative distance below which two arcs count as collided.
SEPARATION_FLOOR = 1e-8

# Newton iterations per grid point of an arc, and the bound on |z| past
# which an iterate has left the perturbative branch.
_ARC_MAX_ITERATIONS = 40
_Z_CAP = 1e3
# DEFAULT_T_GRID's indices by increasing t, the order a tangency fit reads.
_FIT_ORDER = np.argsort(DEFAULT_T_GRID)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class LinkSample:
    """A point of the link of the principal variety: ``s`` on the unit
    sphere with ``max_i |f_p_i(s)|`` at most ``LINK_TOLERANCE``.

    ``distance_to_sigma`` is the distance to a numerically sampled link of
    the obstruction locus, ``inf`` when that locus is the origin alone."""

    s: tuple[complex, ...]
    distance_to_sigma: float


@dataclass(frozen=True)
class ArcSample:
    """One deformed arc, tabulated on the decreasing ``DEFAULT_T_GRID``.

    ``points[k]`` is the arc point ``t^w * (s + eps*h(z))`` at
    ``t_grid[k]``, for the ansatz unknown z the solver reached there (z
    itself is not kept), ``residuals[k]`` the scaled residual
    ``max_i |F_i|`` and ``converged[k]`` whether the solver met tolerance
    there.  After the first failure the solver stops: smaller-t entries
    reuse the last iterate (their residual is reported honestly, converged
    stays False).  ``gram_determinant`` is the invertibility
    certificate det(G conj(G)^T); ``iteration_residuals[k]`` logs the
    per-iteration residuals of the Newton run at ``t_grid[k]``."""

    s: LinkSample
    epsilon: complex
    points: tuple[tuple[complex, ...], ...]
    residuals: tuple[float, ...]
    converged: tuple[bool, ...]
    gram_determinant: float
    iteration_residuals: tuple[tuple[float, ...], ...]

    @property
    def t_grid(self) -> tuple[float, ...]:
        return DEFAULT_T_GRID


@dataclass(frozen=True)
class TangencyEstimate:
    """Least-squares contact order of two arcs.

    ``alpha`` is the slope of log|a(t)-b(t)| against the log of the arcs'
    distance scale (the mean of the two norms), so that generically
    transverse arc pairs sit at alpha = 1 regardless of the weights;
    ``window = (t_min, t_max)`` is the t-range actually fitted."""

    alpha: float
    r2: float
    window: tuple[float, float]


@dataclass(frozen=True)
class PairDichotomy:
    """Tangency-preservation check for one sample pair (by index)."""

    pair: tuple[int, int]
    unperturbed: TangencyEstimate
    perturbed: TangencyEstimate
    ok: bool


@dataclass(frozen=True)
class FoliationReport:
    """Sample-resolution property checks for one deformation scale.

    ``passed`` requires every dichotomy pair to keep its contact class,
    every distinct pair of arcs to stay separated at the smallest common
    converged t (relative distance above the collision floor), and
    coordinate-plane membership to be preserved bitwise."""

    passed: bool
    failures: tuple[str, ...]
    dichotomy: tuple[PairDichotomy, ...]
    min_separation: float
    separation_ok: bool
    coordinate_planes_ok: bool
    converged_fraction: float
    arcs: tuple[ArcSample, ...]
    reference_arcs: tuple[ArcSample, ...]


# ---------------------------------------------------------------------------
# link sampling


def _row_dots(a: np.ndarray) -> np.ndarray:
    """``np.vdot(row, row).real`` for every row of ``a``, bit for bit: a
    stacked (1, n) @ (n, 1) matmul runs numpy's dot kernel once per row, as
    vdot does (a sum of squares over split parts, or einsum, differs)."""
    return (a.conj()[:, None, :] @ a[:, :, None])[:, 0, 0].real


def _row_norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(row)`` for every row of ``a``, bit for bit."""
    return np.sqrt(_row_dots(a.real) + _row_dots(a.imag))


def _gauss_newton_project(
    equations: NumericEvaluator,
    partials: NumericEvaluator,
    starts: np.ndarray,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project each row of ``starts`` onto {f = 0} ∩ {|x| = 1} by damped
    Gauss-Newton on the real form of the augmented system, given
    ``equations`` and their ``partials`` (:func:`jacobian_evaluator`).

    The rows run in lockstep, each with its own convergence and line-search
    state, and every row's iterates are bit for bit those of projecting it
    alone; the least-squares steps of all rows are one stacked call
    (:func:`_stacked_lstsq`).  A row whose real Newton matrix or residual has
    a non-finite entry takes no step: it stops where it is, unconverged.
    Returns (points, max |f_i| per row, ok per row); ok additionally demands
    | |x|^2 - 1 | <= 1e-12."""
    x = np.array(starts, dtype=complex)
    nvars = x.shape[1]
    neq = len(equations.polys)

    def evaluate(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals = equations.rows(points)
        sphere = _row_dots(points)[:, np.newaxis] - 1.0
        return vals, np.concatenate([vals.real, vals.imag, sphere], axis=1)

    def converged(vals: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        residual = np.max(np.abs(vals), axis=1, initial=0.0)
        return residual, (residual <= tolerance) & (np.abs(res[:, -1]) <= 1e-12)

    vals, res = evaluate(x)
    live = np.arange(len(x))
    for _ in range(max_iterations):
        live = live[~converged(vals[live], res[live])[1]]
        if not len(live):
            break
        jac = partials.rows(x[live]).reshape(len(live), neq, nvars)
        x_live = x[live][:, np.newaxis]
        jac_real = np.block(
            [[jac.real, -jac.imag], [jac.imag, jac.real], [2.0 * x_live.real, 2.0 * x_live.imag]]
        )
        finite = np.isfinite(jac_real).all(axis=(1, 2)) & np.isfinite(res[live]).all(axis=1)
        live, jac_real = live[finite], jac_real[finite]
        if not len(live):
            break
        step = _stacked_lstsq(jac_real, -res[live])[0]
        delta = step[:, :nvars] + 1j * step[:, nvars:]
        norm_old = _row_norms(res[live])
        pending = np.ones(len(live), dtype=bool)
        lam = 1.0
        while lam >= 2.0**-20 and pending.any():
            idx = np.nonzero(pending)[0]
            x_try = x[live[idx]] + lam * delta[idx]
            vals_try, res_try = evaluate(x_try)
            norm_try = _row_norms(res_try)
            good = (norm_try < norm_old[idx]) | (norm_try <= tolerance)
            rows = live[idx[good]]
            x[rows], vals[rows], res[rows] = x_try[good], vals_try[good], res_try[good]
            pending[idx[good]] = False
            lam /= 2.0
        live = live[~pending]
    residual, ok = converged(*evaluate(x))
    return x, residual, ok


def _project_attempts(
    equations: NumericEvaluator, partials: NumericEvaluator, nvars: int, want: int, limit: int,
    seed: tuple[int, ...], tolerance: float, max_iterations: int,
) -> tuple[list[np.ndarray], int]:
    """The first ``want`` successful projections, in attempt order, of random
    complex unit vectors; attempt ``a`` draws from its own generator seeded
    by ``(*seed, a)``, and at most ``limit`` attempts are made.

    The first block holds as many attempts as are wanted; each later one
    holds what the success rate so far predicts the missing points need,
    between one and four times as many as are missing (four times after no
    success).  Each attempt's result is the one projecting it alone gives,
    so the surplus attempts of a block are projected and discarded without
    changing any result.  A block with surplus whose least squares raises
    LinAlgError is projected again without the surplus, so the error comes
    only from an attempt that a one-at-a-time loop makes too.  Returns
    (points, attempts), where attempts is one past the last point kept, or
    ``limit`` when fewer than ``want`` points were found."""

    def project(block: range) -> tuple[np.ndarray, np.ndarray]:
        # one draw of 2N normals is the words of two draws of N
        draws = np.array([
            np.random.default_rng([*seed, attempt]).standard_normal(2 * nvars) for attempt in block
        ])
        starts = draws[:, :nvars] + 1j * draws[:, nvars:]
        starts /= _row_norms(starts)[:, np.newaxis]
        x, _, ok = _gauss_newton_project(equations, partials, starts, tolerance, max_iterations)
        return x, ok

    points: list[np.ndarray] = []
    attempts = 0
    while len(points) < want and attempts < limit:
        missing = want - len(points)
        if not attempts:
            size = missing
        elif not points:
            size = 4 * missing
        else:
            size = min(4 * missing, max(missing, -(-missing * attempts // len(points))))
        block = range(attempts, min(limit, attempts + size))
        try:
            x, ok = project(block)
        except np.linalg.LinAlgError:
            if len(block) <= missing:
                raise
            block = range(attempts, attempts + missing)
            x, ok = project(block)
        kept = np.nonzero(ok)[0][:missing]
        points.extend(x[kept])
        attempts = block.start + int(kept[-1]) + 1 if len(kept) == missing else block.stop
    return points, attempts


def _distance_to_cloud(point: np.ndarray, cloud: np.ndarray) -> float:
    """min |point - q| over the rows q of ``cloud`` (inf when it has none),
    each norm that of ``np.linalg.norm``; like ``min`` in a loop, nan
    distances are skipped."""
    distances = _row_norms(point - cloud)
    distances = distances[~np.isnan(distances)]
    return float(distances.min()) if len(distances) else math.inf


def sample_link(
    system: GermSystem,
    count: int,
    seed: int,
    *,
    sigma_cloud: Sequence[Sequence[complex]],
) -> list[LinkSample]:
    """``count`` random points of Link[X0] = {f_p = 0} ∩ {|s| = 1}.

    Random complex unit vectors are projected by damped Gauss-Newton on the
    augmented system (f_p = 0, |s|^2 = 1) to residual ``LINK_TOLERANCE``;
    failed projections are discarded and resampled.  A sample keeps its
    point and its distance to Sigma, not the residual it reached, which
    ``LINK_TOLERANCE`` bounds.  Each attempt draws from its own generator
    seeded by (seed, attempt), and the first ``count`` successes are kept
    in attempt order, so results are deterministic under a fixed seed.
    Attempts are projected in lockstep blocks sized from the success rate
    so far; each result equals projecting that attempt alone.  If fewer
    than ``count`` projections succeed after ``LINK_ATTEMPT_FACTOR * count``
    attempts (e.g. an empty link at this tolerance), the partial list is
    returned with a warning.

    ``sigma_cloud`` (from :func:`sigma_link_cloud`) fills in
    ``distance_to_sigma``; it may be empty (Sigma = {o}), and then every
    distance is reported as inf."""
    if count < 0:
        raise ValueError("count must be >= 0")
    equations, _, partials, _ = system.evaluators
    cloud = np.asarray(sigma_cloud, dtype=complex).reshape(-1, system.nvars)
    points, attempts = _project_attempts(
        equations, partials, system.nvars, count, LINK_ATTEMPT_FACTOR * count, (seed,), LINK_TOLERANCE, 60
    )
    samples = [LinkSample(tuple(point.tolist()), _distance_to_cloud(point, cloud)) for point in points]
    if len(samples) < count:
        warnings.warn(
            f"link sampling produced {len(samples)}/{count} points after "
            f"{attempts} attempts; the link may be empty at tolerance "
            f"{LINK_TOLERANCE:g}",
            stacklevel=2,
        )
    return samples


def sigma_link_cloud(
    system: GermSystem,
    *,
    seed: int,
    budget: Budget,
) -> list[tuple[complex, ...]]:
    """A numeric point cloud on Link[Sigma], for distance estimates.

    The obstruction locus is computed by :func:`germlab.germ.sigma` under
    ``budget``.  Its positive-dimensional components are sampled by the same
    lockstep Gauss-Newton projection as :func:`sample_link`, at
    ``LINK_TOLERANCE``, onto {component generators = 0} ∩ {|x| = 1}, keeping
    each component's first successes in attempt order.  Each of the k
    positive-dimensional components gets ceil(``SIGMA_CLOUD_POINTS`` / k)
    points, so the cloud holds up to ``SIGMA_CLOUD_POINTS`` + k - 1 points
    (fewer where a component's projections keep failing).  Components of
    dimension <= 0 (the origin) have empty link and contribute nothing; an
    empty return therefore means Sigma = {o} as far as the computed
    components go.  A heuristic cloud: density is not certified, and
    generator multiplicity can slow the projection (iterations are capped)."""
    positive = [
        comp
        for comp in sigma(system, budget).components
        if comp.status == "computed" and comp.dimension is not None and comp.dimension >= 1
    ]
    if not positive:
        return []
    per_component = -(-SIGMA_CLOUD_POINTS // len(positive))
    cloud: list[tuple[complex, ...]] = []
    for comp_index, comp in enumerate(positive):
        gens = comp.basis.generators
        points, _ = _project_attempts(
            NumericEvaluator(gens), jacobian_evaluator(gens), system.nvars,
            per_component, 20 * per_component, (seed, comp_index), LINK_TOLERANCE, 80,
        )
        cloud.extend(tuple(point.tolist()) for point in points)
    return cloud


# ---------------------------------------------------------------------------
# the rescaled-gradient ansatz


def _block_scales(system: GermSystem, s: np.ndarray) -> np.ndarray:
    """Per-variable factors sqrt(sum_{i <= r_l} |s_i|^2) for every row of
    ``s``, where r_l is the end of the variable's weight block.  The sums
    are cumulative from the first coordinate, so a sample with its whole
    first block at exactly zero gets exactly-zero factors there."""
    boundaries = [next(b for b in system.breakpoints if b > j) - 1 for j in range(system.nvars)]
    return np.sqrt(np.cumsum(np.abs(s) ** 2, axis=1))[:, boundaries]


def rescaled_gradient(system: GermSystem, s: np.ndarray) -> np.ndarray:
    """The rescaled gradients at the rows of the (m, N) array ``s``, as an
    (m, r, N) array: row i's r×N gradient of the principal part with column
    j multiplied by sqrt(sum_{k <= r_l} |s_ik|^2) for j's block boundary r_l.

    With all weights equal this is the plain gradient times |s| (= 1 on the
    unit sphere); a sample with its first block exactly zero gets exactly
    zero columns there, which is what forces coordinate-plane preservation
    of the deformed arcs."""
    _, _, df_p, _ = system.evaluators
    grads = df_p.rows(s).reshape(len(s), system.c, system.nvars)
    return grads * _block_scales(system, s)[:, np.newaxis, :]


# ---------------------------------------------------------------------------
# arc deformation


def deform_arc(system: GermSystem, epsilon: complex, s: LinkSample) -> ArcSample:
    """Solve the deformed arc through the link sample ``s`` at scale
    ``epsilon`` on ``DEFAULT_T_GRID``, warm-starting each Newton run from the
    previous, larger t (initial z = 0 at the largest t).  A run converges
    when the scaled residual is at most ``NEWTON_TOLERANCE``, within 40
    iterations per grid point.

    ``epsilon = 0`` returns the weighted-homogeneous arc t^w * s exactly
    (z = 0, converged by construction; the reported residual is, up to
    rounding, the link sample's own max_i |f_p_i(s)|).  Newton divergence
    at some t marks that t and all smaller ones non-converged and stops
    solving — expected behaviour near the obstruction locus, where the
    logged ``gram_determinant`` degenerates.  Divergence covers iterates
    escaping past |z| = 1e3: the implicit-function branch through z = 0 is
    bounded on compact regions away from the obstruction locus, so an
    exploding iterate means the continuation left the perturbative regime
    (the numerical signature of the convergence radius shrinking to zero),
    even when a distant root of the scaled condition would still be
    reachable.

    This is the lockstep solver of :func:`verify_foliation` run on a batch
    of one sample."""
    return _deform_arcs(system, [epsilon], [s])[0].arcs[0]


class _ArcFamily(NamedTuple):
    """The arcs of one scale, with their points (m, T, N) and converged
    flags (m, T) as the arrays they were tabulated from."""

    arcs: tuple[ArcSample, ...]
    points: np.ndarray
    converged: np.ndarray


def _deform_arcs(
    system: GermSystem, epsilons: Sequence[complex], samples: Sequence[LinkSample]
) -> list[_ArcFamily]:
    """:func:`deform_arc` for every sample at once, at each scale in
    ``epsilons``; the rescaled gradients and Gram determinants are computed
    once and shared by the scales.  The Newton runs move down the t-grid in
    lockstep, each arc with its own convergence (``NEWTON_TOLERANCE``),
    iteration count, escape past ``_Z_CAP``, failure and line-search state,
    and every arc is bit for bit the one its sample gives alone."""
    epsilons = [complex(epsilon) for epsilon in epsilons]
    m, nvars, r = len(samples), system.nvars, system.c
    s_arr = np.array([sample.s for sample in samples], dtype=complex).reshape(m, nvars)
    w_float = np.array([float(w) for w in system.weights])
    p_float = np.array([float(d) for d in system.degrees])
    grads = rescaled_gradient(system, s_arr)
    gram_determinants = [float(np.linalg.det(g @ g.conj().T).real) for g in grads]
    # conj[i].T is sample i's N x r map z -> h; a transposed view, as its
    # layout decides which BLAS kernel runs
    conj = grads.conj()
    zero_rows = np.all(conj == 0.0, axis=1)

    f_p, f_q, df_p, df_q = system.evaluators

    def scaled_residual(rows: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
        h = (conj[rows].transpose(0, 2, 1) @ z[:, :, np.newaxis])[:, :, 0]
        h[zero_rows[rows]] = 0.0
        x = t_pow * (s_arr[rows] + epsilon * h)
        f_scaled = t_neg * (f_p.rows(x) + epsilon * f_q.rows(x))
        return x, f_scaled, np.max(np.abs(f_scaled), axis=1)

    def settled(z: np.ndarray, resid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cap = np.all(np.isfinite(z), axis=1) & (np.max(np.abs(z), axis=1, initial=0.0) <= _Z_CAP)
        return cap, (resid <= NEWTON_TOLERANCE) & cap

    everyone = np.arange(m)
    families: list[_ArcFamily] = []
    for epsilon in epsilons:
        eps_conj = epsilon * conj
        z = np.zeros((m, r), dtype=complex)
        failed = np.zeros(m, dtype=bool)
        columns: list[tuple[np.ndarray, ...]] = []
        histories: list[list[tuple[float, ...]]] = [[] for _ in everyone]
        for t in DEFAULT_T_GRID:
            t_pow = t**w_float
            t_neg = t ** (-p_float)
            # z stays 0 at epsilon = 0 (converged) or at the last iterate after a failure
            newton = ~failed if epsilon != 0 else np.zeros(m, dtype=bool)
            x, f_scaled, resid = scaled_residual(everyone, z)
            history = [[value] for value in resid.tolist()]
            within_cap, ok = settled(z, resid)
            live = np.nonzero(newton & ~ok & within_cap)[0]
            for _ in range(_ARC_MAX_ITERATIONS):
                if not len(live):
                    break
                jac = (df_p.rows(x[live]) + epsilon * df_q.rows(x[live])).reshape(len(live), r, nvars)
                j_z = t_neg[:, np.newaxis] * (jac * t_pow[np.newaxis, :])
                j_z = j_z @ eps_conj[live].transpose(0, 2, 1)
                try:
                    delta = np.linalg.solve(j_z, -f_scaled[live][:, :, np.newaxis])[:, :, 0]
                except np.linalg.LinAlgError:
                    delta = np.array([_solve_or_lstsq(a, -b) for a, b in zip(j_z, f_scaled[live])])
                pending = np.ones(len(live), dtype=bool)
                lam = 1.0
                while lam >= 2.0**-16 and pending.any():
                    idx = np.nonzero(pending)[0]
                    z_try = z[live[idx]] + lam * delta[idx]
                    finite = np.all(np.isfinite(z_try), axis=1)
                    idx, z_try = idx[finite], z_try[finite]
                    x_try, f_try, resid_try = scaled_residual(live[idx], z_try)
                    good = (resid_try < resid[live[idx]]) | (resid_try <= NEWTON_TOLERANCE)
                    rows = live[idx[good]]
                    z[rows], x[rows] = z_try[good], x_try[good]
                    f_scaled[rows], resid[rows] = f_try[good], resid_try[good]
                    pending[idx[good]] = False
                    lam /= 2.0
                for row in live:
                    history[row].append(float(resid[row]))
                live = live[~pending]
                within_cap[live], ok[live] = settled(z[live], resid[live])
                live = live[~ok[live] & within_cap[live]]
            converged = np.where(newton, ok, ~failed)
            columns.append((x, resid, converged))
            for i in everyone:
                histories[i].append(tuple(history[i]) if newton[i] else ())
            failed |= ~converged

        x_rows, res_rows, ok_rows = (np.stack(c, axis=1) for c in zip(*columns))
        arcs = tuple(
            ArcSample(
                s=samples[i], epsilon=epsilon,
                points=tuple(map(tuple, x_rows[i].tolist())),
                residuals=tuple(res_rows[i].tolist()), converged=tuple(ok_rows[i].tolist()),
                gram_determinant=gram_determinants[i], iteration_residuals=tuple(histories[i]),
            )
            for i in everyone
        )
        families.append(_ArcFamily(arcs, x_rows, ok_rows))
    return families


def _solve_or_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return _stacked_lstsq(a[np.newaxis], b[np.newaxis])[0][0]


# ---------------------------------------------------------------------------
# tangency exponents


def tangency_exponent(
    points: np.ndarray, converged: np.ndarray, pairs: np.ndarray
) -> list[TangencyEstimate | ValueError]:
    """Fitted contact order of arcs ``i`` and ``j`` for every row ``(i, j)``
    of ``pairs``, over one family: arc points of shape (m, T, N) and
    converged flags of shape (m, T) on ``DEFAULT_T_GRID``, as the arc solver
    tabulates them (:attr:`ArcSample.points` and :attr:`ArcSample.converged`
    stacked).

    Each fit is the least-squares slope of log|a(t) - b(t)| against the log
    of the distance scale (mean of the two arc norms) over the smallest-t
    window of commonly converged points — at least ``MIN_FIT_POINTS``, at
    most half the available ones.  Identical arcs over the window report
    alpha = inf.  A pair the fit rejects, say for fewer than
    ``MIN_FIT_POINTS`` usable points, gets its ValueError in its place.

    Every fit with the same number of points is one stacked least-squares
    call that repeats ``np.polyfit``'s steps (columns [x, 1] scaled by their
    root sum of squares, coefficients unscaled), so each slope is bit for
    bit ``np.polyfit``'s.  Polyfit's rcond, len(x) * eps, is lstsq's
    default eps * max(len(x), 2) except for one point, whose 1 x 2 matrix
    has one singular value and so no cutoff to apply.  A fit of rank < 2 warns
    as polyfit does, in pair order; a group whose SVD fails is solved again
    pair by pair, so the LinAlgError lands on the pair that raises it."""
    mask = (converged[pairs[:, 0]] & converged[pairs[:, 1]])[:, _FIT_ORDER]
    counts = mask.sum(axis=1)
    window_counts = np.minimum(counts, np.maximum(MIN_FIT_POINTS, -(-counts // 2)))
    window = mask & (np.cumsum(mask, axis=1) <= window_counts[:, np.newaxis])
    window[counts < MIN_FIT_POINTS] = False
    # only the window points of pairs with enough of them are read; the
    # zeros put elsewhere raise no float warnings
    a, b = (
        np.where(window[:, :, np.newaxis], points[pairs[:, k, np.newaxis], _FIT_ORDER], 0.0)
        for k in (0, 1)
    )
    diff = np.linalg.norm(a - b, axis=2)
    scale = 0.5 * (np.linalg.norm(a, axis=2) + np.linalg.norm(b, axis=2))
    keep = window & (diff > 0.0)
    kept = keep.sum(axis=1)
    identical = ~(window & (diff != 0.0)).any(axis=1)
    fit = ~identical & (kept >= MIN_FIT_POINTS)

    slopes, ss_res, ss_tot = np.zeros((3, len(pairs)))
    poorly_conditioned = np.zeros(len(pairs), dtype=bool)
    failed: dict[int, np.linalg.LinAlgError] = {}
    for size in sorted(set(kept[fit].tolist())):
        rows = np.flatnonzero(fit & (kept == size))
        x = np.log(scale[rows][keep[rows]]).reshape(len(rows), size)
        y = np.log(diff[rows][keep[rows]]).reshape(len(rows), size)
        lhs = np.stack([x, np.ones_like(x)], axis=2)
        column_scale = np.sqrt((lhs * lhs).sum(axis=1))
        lhs /= column_scale[:, np.newaxis, :]
        good = np.ones(len(rows), dtype=bool)
        try:
            coefficients, rank = _stacked_lstsq(lhs, y)
        except np.linalg.LinAlgError:  # solve the group again pair by pair
            coefficients, rank = np.zeros((len(rows), 2)), np.zeros(len(rows), dtype=int)
            for n, row in enumerate(rows.tolist()):
                try:
                    solution, rank_n = _stacked_lstsq(lhs[n : n + 1], y[n : n + 1])
                except np.linalg.LinAlgError as exc:
                    failed[row], good[n] = exc, False
                    continue
                coefficients[n], rank[n] = solution[0], rank_n[0]
        rows, x, y = rows[good], x[good], y[good]
        slope, intercept = (coefficients[good] / column_scale[good]).T[:, :, np.newaxis]
        slopes[rows] = slope[:, 0]
        poorly_conditioned[rows] = rank[good] != 2
        ss_res[rows] = np.sum((y - (slope * x + intercept)) ** 2, axis=1)
        ss_tot[rows] = np.sum((y - y.mean(axis=1, keepdims=True)) ** 2, axis=1)

    t_sorted = np.asarray(DEFAULT_T_GRID)[_FIT_ORDER]
    first = t_sorted[np.argmax(window, axis=1)]
    last = t_sorted[window.shape[1] - 1 - np.argmax(window[:, ::-1], axis=1)]
    results: list[TangencyEstimate | ValueError] = []
    for p, (count, span, same, fitted, slope_p, res_p, tot_p, poor) in enumerate(zip(
        counts.tolist(), zip(first.tolist(), last.tolist()), identical.tolist(), fit.tolist(),
        slopes.tolist(), ss_res.tolist(), ss_tot.tolist(), poorly_conditioned.tolist(),
    )):
        if count < MIN_FIT_POINTS:
            results.append(ValueError(
                f"insufficient converged points for a tangency fit ({count} < {MIN_FIT_POINTS})"
            ))
        elif same:
            results.append(TangencyEstimate(alpha=math.inf, r2=1.0, window=span))
        elif not fitted:
            results.append(ValueError(
                "arcs coincide at some grid points but not others; "
                "not enough nonzero separations to fit"
            ))
        elif p in failed:
            results.append(failed[p])
        else:
            if poor:
                warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
            r2 = 1.0 if tot_p == 0.0 and res_p <= 1e-30 else (
                0.0 if tot_p == 0.0 else 1.0 - res_p / tot_p
            )
            results.append(TangencyEstimate(alpha=slope_p, r2=r2, window=span))
    return results


# ---------------------------------------------------------------------------
# property verification


def verify_foliation(
    system: GermSystem,
    epsilon: complex,
    samples: Sequence[LinkSample],
    *,
    seed: int,
) -> FoliationReport:
    """Check the deformed family over ``samples`` at scale ``epsilon``, its
    arcs and the unperturbed ones solved as :func:`deform_arc` does on
    ``DEFAULT_T_GRID``.

    Three sample-resolution checks: (1) tangency dichotomy preservation on
    up to ``MAX_DICHOTOMY_PAIRS`` pairs, drawn by ``seed`` when there are
    more — a pair with unperturbed contact order <= 1 + ``DICHOTOMY_MARGIN``
    must stay below it (up to ``FIT_TOLERANCE``), a pair above must stay
    above; (2) pairwise separation at the smallest commonly converged t
    (relative distance at least ``SEPARATION_FLOOR``); (3) bitwise
    coordinate-plane preservation for samples whose leading weight block
    vanishes exactly.  Any failure names the offending pair or sample.

    The contact orders are two :func:`tangency_exponent` calls, one per
    family, on the point and flag arrays the arc solver tabulated: the
    unperturbed family's over the chosen pairs, then the perturbed family's
    over the pairs whose unperturbed fit succeeded."""
    if len(samples) < 2:
        raise ValueError("verify_foliation needs at least 2 samples")
    perturbed, reference = _deform_arcs(system, [epsilon, 0.0], samples)
    arcs = perturbed.arcs
    failures: list[str] = []

    total = perturbed.converged.size
    converged_fraction = int(perturbed.converged.sum()) / total if total else 0.0

    all_pairs = list(itertools.combinations(range(len(samples)), 2))
    if len(all_pairs) > MAX_DICHOTOMY_PAIRS:
        picker = random.Random(seed)
        fit_pairs = sorted(picker.sample(all_pairs, MAX_DICHOTOMY_PAIRS))
    else:
        fit_pairs = all_pairs

    # a pair's perturbed fit is made only when its reference fit succeeds
    pairs = np.array(fit_pairs, dtype=int).reshape(-1, 2)
    reference_fits = tangency_exponent(reference.points, reference.converged, pairs)
    fitted = [n for n, fit in enumerate(reference_fits) if isinstance(fit, TangencyEstimate)]
    perturbed_fits = dict(zip(fitted, tangency_exponent(
        perturbed.points, perturbed.converged, pairs[fitted]
    )))
    dichotomy: list[PairDichotomy] = []
    for n, (i, j) in enumerate(fit_pairs):
        alpha_0 = reference_fits[n]
        alpha_e = perturbed_fits.get(n, alpha_0)
        if not isinstance(alpha_e, TangencyEstimate):  # the error of the fit that failed
            failures.append(f"dichotomy pair ({i}, {j}): {alpha_e}")
            continue
        if alpha_0.alpha <= 1.0 + DICHOTOMY_MARGIN:
            ok = alpha_e.alpha <= 1.0 + DICHOTOMY_MARGIN + FIT_TOLERANCE
        else:
            ok = alpha_e.alpha >= 1.0 + DICHOTOMY_MARGIN - FIT_TOLERANCE
        dichotomy.append(PairDichotomy((i, j), alpha_0, alpha_e, ok))
        if not ok:
            failures.append(
                f"dichotomy pair ({i}, {j}): unperturbed contact "
                f"{alpha_0.alpha:.4f}, perturbed {alpha_e.alpha:.4f}"
            )

    min_separation = math.inf
    separation_ok = True
    # One arc against all later ones at a time, in pair order: the last
    # commonly converged grid index (the smallest t), then the norms
    # np.linalg.norm gives, with max and min treating nan as the builtins do.
    converged, points = perturbed.converged, perturbed.points
    norms = _row_norms(points.reshape(-1, system.nvars)).reshape(converged.shape)
    for i in range(len(arcs) - 1):
        common = converged[i] & converged[i + 1 :]
        has_common = common.any(axis=1)
        k = len(DEFAULT_T_GRID) - 1 - np.argmax(common[:, ::-1], axis=1)
        j, kj = np.arange(i + 1, len(arcs))[has_common], k[has_common]
        denom = np.where(norms[j, kj] > norms[i, kj], norms[j, kj], norms[i, kj])
        distance = _row_norms(points[i, kj] - points[j, kj])
        rel = np.full(len(common), math.nan)
        rel[has_common] = np.where(denom > 0.0, distance / np.where(denom > 0.0, denom, 1.0), 0.0)
        if has_common.any():
            min_separation = min(min_separation, float(np.nanmin(rel)))
        for n in np.nonzero(~has_common | (rel < SEPARATION_FLOOR))[0]:
            separation_ok = False
            if not has_common[n]:
                failures.append(f"separation pair ({i}, {i + 1 + n}): no common converged t")
                continue
            failures.append(
                f"separation pair ({i}, {i + 1 + n}): relative distance {float(rel[n]):.3e} "
                f"below {SEPARATION_FLOOR:g} at t = {DEFAULT_T_GRID[k[n]]:g}"
            )

    coordinate_planes_ok = True
    for idx, arc in enumerate(arcs):
        s_arr = np.asarray(arc.s.s, dtype=complex)
        for boundary in system.breakpoints[:-1]:
            if not np.all(s_arr[:boundary] == 0.0):
                continue
            for k, point in enumerate(arc.points):
                if not arc.converged[k]:
                    continue
                if any(point[j] != 0.0 for j in range(boundary)):
                    coordinate_planes_ok = False
                    failures.append(
                        f"sample {idx}: coordinate plane V(x_1..x_{boundary}) "
                        f"not preserved at t = {DEFAULT_T_GRID[k]:g}"
                    )
                    break

    return FoliationReport(
        passed=not failures,
        failures=tuple(failures),
        dichotomy=tuple(dichotomy),
        min_separation=min_separation,
        separation_ok=separation_ok,
        coordinate_planes_ok=coordinate_planes_ok,
        converged_fraction=converged_fraction,
        arcs=arcs,
        reference_arcs=reference.arcs,
    )


# ---------------------------------------------------------------------------
# CSV dump


def _parts(values: Sequence[complex]) -> list[str]:
    return [part for v in values for part in (repr(v.real), repr(v.imag))]


def write_arc_csv(path: str | Path, arcs: Sequence[ArcSample], seed: int) -> None:
    """Write arcs to the CSV file ``path``: one row per (arc, t) with
    columns seed, the sample coordinates (re/im), epsilon (re/im), t, the
    arc point (re/im), the scaled residual, and converged as 0/1.

    Rows are the bytes of the excel dialect of :mod:`csv` (``\\r\\n``
    line ends), which quotes only fields holding ``,``, ``"``, ``\\r`` or
    ``\\n``; no int or float repr does, so fields are joined as they are."""
    if not arcs:
        raise ValueError("no arcs to write")
    nvars = len(arcs[0].s.s)
    header = ["seed"]
    header += [f"s{i}_{part}" for i in range(nvars) for part in ("re", "im")]
    header += ["epsilon_re", "epsilon_im", "t"]
    header += [f"x{i}_{part}" for i in range(nvars) for part in ("re", "im")]
    header += ["residual", "converged"]

    t_reprs = [repr(t) for t in DEFAULT_T_GRID]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for arc in arcs:
            prefix = ",".join(
                [str(seed), *_parts(arc.s.s), repr(arc.epsilon.real), repr(arc.epsilon.imag)]
            )
            handle.writelines(
                ",".join([prefix, t, *_parts(arc.points[k]), repr(arc.residuals[k]),
                          str(int(arc.converged[k]))]) + "\r\n"
                for k, t in enumerate(t_reprs)
            )
