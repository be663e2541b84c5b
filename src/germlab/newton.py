"""Newton polyhedra over the exponent lattice: compact boundary faces with
certified primitive inner normals, face restrictions, convenience, and torus
non-degeneracy of face polynomials.

The face enumeration is exact and complete for arbitrary (also
non-convenient) supports.  Route: enumerate ALL facets of the polyhedron
``conv(support) + R_{>=0}^N`` by brute force over candidate hyperplanes
spanned by support points and coordinate directions (facet normals are
automatically componentwise >= 0 because the recession cone is the positive
orthant); every proper face is an intersection of facets, so the point sets
of compact faces live in the intersection closure of the facet point sets;
for each candidate point set the sum of the normals of all facets containing
it lies in the relative interior of its normal cone, hence is strictly
positive exactly when the face is compact and then exposes precisely that
face.  Each reported face therefore carries an explicit normal certificate
that is re-checked against every support point.

All of it is integer arithmetic: a candidate's normal is the vector of
signed maximal minors of its matrix of exponent differences, computed by
fraction-free elimination (``exact.integer_determinant``); ranks and the
torus slice of ``_torus_search`` come from the same elimination.
``newton_diagram`` is the costly step, so a caller holding a diagram passes
it on: ``germ.analyze_newton`` builds one per call, checks that it is
convenient, and hands it to ``is_newton_nondegenerate``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import TYPE_CHECKING

from germlab.exact import integer_determinant, nullspace, pivot_columns, rank
from germlab.groebner import Budget, BudgetExhausted, saturation
from germlab.poly import Monomial, NumericEvaluator, Poly, _stacked_lstsq, jacobian, jacobian_evaluator
from germlab.qi import QI

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Face",
    "NewtonDiagram",
    "NondegeneracyReport",
    "newton_diagram",
    "face_restriction",
    "is_newton_nondegenerate",
    "face_weight_report",
]


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class Face:
    """A compact face of the Newton boundary.

    ``vertices`` holds every support point lying on the face (not only the
    extreme ones - downstream consumers want the full face support).  The
    inner normal is primitive, strictly positive, and satisfies
    <normal, v> = level on the face and >= level on all support points."""

    dim: int
    vertices: tuple[Monomial, ...]
    inner_normal: tuple[int, ...]
    level: int

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.level) for c in self.inner_normal)

    @property
    def is_top(self) -> bool:
        return self.dim == len(self.inner_normal) - 1


@dataclass(frozen=True)
class NewtonDiagram:
    """``faces`` descend in dimension, so the top faces lead it in
    ``top_faces()`` order: a face's position there is its index."""

    support: tuple[Monomial, ...]
    faces: tuple[Face, ...]
    convenient: bool

    def top_faces(self) -> list[Face]:
        return [f for f in self.faces if f.is_top]


def _facet_data(support: list[Monomial], nvars: int) -> list[tuple[tuple[int, ...], frozenset]]:
    """All facets of conv(support) + positive orthant, as (normal, point set).

    Candidate hyperplanes are spanned by an affinely independent tuple T of
    support points plus the coordinate directions outside a set C of |T|
    coordinates.  The candidate's normal vanishes off C, and on C it is the
    vector of signed maximal minors of the (|T|-1) x |T| matrix of
    differences T - T[0] restricted to C; all minors vanish exactly when that
    kernel is not a line (which also covers affinely dependent T).  The
    minors of each column set of size |T|-1 are shared by every C containing
    it.  A candidate is a facet when its normal is componentwise nonnegative
    and its face (support argmin plus the rays of its zero coordinates) has
    affine dimension nvars - 1."""
    pts = sorted(support)
    unit = [tuple(1 if k == j else 0 for k in range(nvars)) for j in range(nvars)]
    normals: set[tuple[int, ...]] = set()
    for tsize in range(1, min(len(pts), nvars) + 1):
        for T in combinations(pts, tsize):
            diffs = [tuple(a - b for a, b in zip(t, T[0])) for t in T[1:]]
            minors = {
                S: integer_determinant([[d[j] for j in S] for d in diffs])
                for S in combinations(range(nvars), tsize - 1)
            }
            if not any(minors.values()):
                continue  # affinely dependent tuple; a smaller one covers it
            for C in combinations(range(nvars), tsize):
                nu = [0] * nvars
                for k, c in enumerate(C):
                    minor = minors[C[:k] + C[k + 1:]]
                    nu[c] = -minor if k % 2 else minor
                if any(c < 0 for c in nu) and any(c > 0 for c in nu):
                    continue
                g = gcd(*nu)
                if g:
                    normals.add(tuple(abs(c) // g for c in nu))
    facets = []
    for nu in sorted(normals):
        level = min(_dot(nu, p) for p in pts)
        arg = [p for p in pts if _dot(nu, p) == level]
        rays = [unit[j] for j in range(nvars) if nu[j] == 0]
        span = [tuple(a - b for a, b in zip(p, arg[0])) for p in arg[1:]] + rays
        if rank(span) == nvars - 1:
            facets.append((nu, frozenset(arg)))
    return facets


def _affine_dim(points: list[Monomial]) -> int:
    diffs = [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]
    return rank(diffs)


def newton_diagram(f: Poly) -> NewtonDiagram:
    """All compact faces of the Newton polyhedron of f, each with a
    certified primitive strictly positive inner normal."""
    if f.is_zero():
        raise ValueError("zero polynomial has no Newton diagram")
    if not f.constant_term().is_zero():
        raise ValueError("polynomial must vanish at the origin")
    nvars = f.nvars
    support = sorted(f.terms)
    facets = _facet_data(support, nvars)

    # intersection closure of the facet point sets = all candidate face
    # supports (every face of a polyhedron is the intersection of the facets
    # containing it)
    lattice: set[frozenset] = {ps for _, ps in facets}
    frontier = set(lattice)
    while frontier:
        fresh: set[frozenset] = set()
        for a in frontier:
            for _, b in facets:
                c = a & b
                if c and c not in lattice:
                    fresh.add(c)
        lattice |= fresh
        frontier = fresh

    faces: list[Face] = []
    for cand in lattice:
        containing = [nu for nu, ps in facets if cand <= ps]
        sigma = tuple(sum(col) for col in zip(*containing))
        if any(c == 0 for c in sigma):
            continue  # exposed face is unbounded: not a compact face
        level = min(_dot(sigma, p) for p in support)
        arg = frozenset(p for p in support if _dot(sigma, p) == level)
        if arg != cand:
            continue  # candidate set is not itself a face
        g = 0
        for c in sigma:
            g = gcd(g, c)
        nu = tuple(c // g for c in sigma)
        pts = sorted(cand)
        faces.append(Face(_affine_dim(pts), tuple(pts), nu, min(_dot(nu, p) for p in support)))

    faces.sort(key=lambda fc: (-fc.dim, fc.inner_normal, fc.vertices))
    convenient = all(
        any(m[j] > 0 and all(e == 0 for k, e in enumerate(m) if k != j) for m in support)
        for j in range(nvars)
    )
    return NewtonDiagram(tuple(support), tuple(faces), convenient)


def face_restriction(f: Poly, face: Face) -> Poly:
    """The sum of the terms of f lying on the face hyperplane."""
    if len(face.inner_normal) != f.nvars:
        raise ValueError("face does not match the polynomial's variable count")
    kept = {m: c for m, c in f.terms.items() if _dot(face.inner_normal, m) == face.level}
    if set(face.vertices) - set(kept):
        raise ValueError("face does not belong to this polynomial's diagram")
    return Poly(f.nvars, kept)


@dataclass
class NondegeneracyReport:
    """Per-face torus criticality verdicts, in the order of the diagram's
    ``faces``: ``statuses[k]`` and ``methods[k]`` are those of
    ``diagram.faces[k]``.

    status per face: "nondegenerate" | "degenerate" | "undetermined";
    method per face: "exact" | "probabilistic".  ``overall`` is True when all
    faces are nondegenerate, False when some face is degenerate, None when
    any face is undetermined and none is degenerate."""

    statuses: list[str]
    methods: list[str]

    @property
    def overall(self) -> bool | None:
        if any(s == "degenerate" for s in self.statuses):
            return False
        if any(s == "undetermined" for s in self.statuses):
            return None
        return True


def _torus_search(f_sigma: Poly, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo fallback: hunt for a torus critical point of a face
    polynomial by damped Gauss-Newton on its gradient from 40 random torus
    starts, run in lockstep: per iteration, one :meth:`NumericEvaluator.rows`
    call evaluates the gradient of the live starts, one the Hessian of those
    still moving, and one :func:`_stacked_lstsq` call takes the steps of
    those whose values are finite; each start keeps its own stopping rules,
    so its iterates are bit for bit its own run's.
    Returns the (40, nvars) final iterates and per start whether it reached
    a convincing critical point with all coordinates away from zero
    (certifying degeneracy up to float error).  The face is quasi-homogeneous
    for every weight in the null space of its exponent differences, so its
    torus critical locus is a union of orbits of that weighted torus: the
    search runs on a slice that sets one coordinate per orbit dimension to 1,
    away from the origin, where the gradient vanishes to high order."""
    import numpy as np

    nvars = f_sigma.nvars
    m0 = next(iter(f_sigma.terms))
    weights = nullspace([[a - b for a, b in zip(m, m0)] for m in f_sigma.terms], nvars)
    fixed = pivot_columns([w[::-1] for w in weights])  # last coordinates first
    free = [j for j in range(nvars) if nvars - 1 - j not in fixed]
    partials = jacobian([f_sigma])[0]
    gradient, hessian = NumericEvaluator(partials), jacobian_evaluator(partials)
    rng = np.random.default_rng(seed)
    x = np.ones((40, nvars), dtype=complex)
    for start in x:
        radius = rng.uniform(0.4, 1.8, size=len(free))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=len(free))
        start[free] = radius * np.exp(1j * phase)
    live = np.arange(len(x) if free else 0)
    for _ in range(60):
        if not len(live):
            break
        val = gradient.rows(x[live])
        moving = ~(np.max(np.abs(val), axis=1) < 1e-12)  # nan rows too: their Hessian is evaluated
        live, val = live[moving], val[moving]
        jac = hessian.rows(x[live]).reshape(len(live), nvars, nvars)[:, :, free]
        # an overflowed start stops: its matrix would fail the whole stacked call
        finite = np.isfinite(val).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
        step = _stacked_lstsq(jac[finite], -val[finite])[0]
        size = np.abs(step).max(axis=1)
        stepping = np.isfinite(step).all(axis=1) & (size >= 1e-14)
        live, step, size = live[finite][stepping], step[stepping], size[stepping]
        # damped update, keeps the iteration from shooting off to 0/inf
        x[np.ix_(live, free)] += step / np.maximum(1.0, size)[:, np.newaxis]
    modulus = np.abs(x)
    found = np.max(np.abs(gradient.rows(x)), axis=1) < 1e-10
    return x, found & (modulus.min(axis=1) > 5e-2) & (modulus.max(axis=1) < 1e3)


def is_newton_nondegenerate(
    f: Poly,
    diagram: NewtonDiagram,
    budget: Budget,
    probabilistic: bool,
    seed: int,
) -> NondegeneracyReport:
    """Check, per compact face of ``diagram`` (built from f by
    :func:`newton_diagram`), that the face polynomial has no critical point
    on the torus: exactly, via saturation of its partial derivatives by the
    product of the variables (unit ideal <=> empty torus critical locus).

    Budget exhaustion on a face marks it "undetermined" unless
    ``probabilistic`` is set, in which case a random torus search seeded by
    ``seed`` plus the face's index substitutes and the face is marked with
    method "probabilistic" (search finds a critical point -> degenerate;
    finds none -> nondegenerate by sampling only).  All faces charge the one
    budget, so once it runs out every later face is exhausted too."""
    torus = Poly(f.nvars, {tuple(1 for _ in range(f.nvars)): QI.one()})
    statuses: list[str] = []
    methods: list[str] = []
    for k, face in enumerate(diagram.faces):
        f_sigma = face_restriction(f, face)
        try:
            sat = saturation([f_sigma.partial(j) for j in range(f.nvars)], torus, budget)
            statuses.append("nondegenerate" if sat.generators[0].is_constant() else "degenerate")
            methods.append("exact")
        except BudgetExhausted:
            if probabilistic:
                _, found = _torus_search(f_sigma, seed=seed + k)
                statuses.append("degenerate" if found.any() else "nondegenerate")
                methods.append("probabilistic")
            else:
                statuses.append("undetermined")
                methods.append("exact")
    return NondegeneracyReport(statuses, methods)


@dataclass(frozen=True)
class FaceWeightSummary:
    face: Face
    sorted_weights: tuple[Fraction, ...]


def face_weight_report(diagram: NewtonDiagram) -> list[FaceWeightSummary]:
    """Per top face: its weights in ascending order."""
    tops = diagram.top_faces()
    if not tops:
        raise ValueError("diagram has no top-dimensional face")
    return [FaceWeightSummary(face, tuple(sorted(face.weights))) for face in tops]
