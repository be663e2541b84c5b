"""Newton diagrams: complete compact-face enumeration, face restrictions,
non-degeneracy, and per-face weight summaries; and Kouchnirenko's Newton
number as an oracle of the Milnor number."""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, gcd, prod
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from germlab import germ, newton
from germlab.exact import integer_determinant, nullspace, pivot_columns, rank
from germlab.germ import analyze, analyze_newton
from germlab.germfile import load_raw, load_system, read_germ_file
from germlab.groebner import Budget, BudgetExhausted, local_standard_basis, milnor_number, quotient_dimension
from germlab.newton import (
    _dot,
    _facet_data,
    _torus_search,
    face_restriction,
    face_weight_report,
    is_newton_nondegenerate,
    newton_diagram,
)
from germlab.poly import Poly, infer_weights, jacobian
from germlab.qi import QI

from conftest import ROOT, F, P


def test_exact_rank_known_values():
    assert rank([]) == 0
    assert rank([(0, 0, 0)]) == 0
    assert rank([(1, 2, 3), (2, 4, 6)]) == 1
    assert rank([(1, 0, -1), (0, 1, -1), (1, 1, -2)]) == 2
    assert rank([(2, 0, 0), (0, 3, 0), (0, 0, 7), (1, 1, 1)]) == 3
    # rows of rational matrices scaled to integers (by 6, and by 6 and
    # 3000000), and a dependency that only holds exactly
    assert rank([(2, 3), (4, 6)]) == 1
    assert rank([(2, 3), (2000000, 3000003)]) == 2


def by_dim(diagram, dim):
    return [f for f in diagram.faces if f.dim == dim]


def test_brieskorn_237_full_face_list():
    d = newton_diagram(P("x^2 + y^3 + z^7"))
    assert d.convenient
    assert sorted(d.support) == [(0, 0, 7), (0, 3, 0), (2, 0, 0)]
    assert len(d.faces) == 7

    (top,) = by_dim(d, 2)
    assert top.inner_normal == (21, 14, 6)
    assert top.level == 42
    assert frozenset(top.vertices) == {(2, 0, 0), (0, 3, 0), (0, 0, 7)}
    assert top.is_top
    assert d.top_faces() == [top]
    assert top.weights == (F("1/2"), F("1/3"), F("1/7"))

    edges = {(f.inner_normal, f.level): frozenset(f.vertices) for f in by_dim(d, 1)}
    assert edges == {
        ((3, 2, 1), 6): frozenset({(2, 0, 0), (0, 3, 0)}),
        ((7, 5, 2), 14): frozenset({(2, 0, 0), (0, 0, 7)}),
        ((11, 7, 3), 21): frozenset({(0, 3, 0), (0, 0, 7)}),
    }

    vertices = {(f.inner_normal, f.level): frozenset(f.vertices) for f in by_dim(d, 0)}
    assert vertices == {
        ((21, 15, 7), 42): frozenset({(2, 0, 0)}),
        ((22, 14, 7), 42): frozenset({(0, 3, 0)}),
        ((22, 15, 6), 42): frozenset({(0, 0, 7)}),
    }


def test_two_top_faces_plane_curve():
    d = newton_diagram(P("x^2 + x*y + y^5", "x y"))
    assert d.convenient
    tops = d.top_faces()
    assert [(f.inner_normal, f.level) for f in tops] == [((1, 1), 2), ((4, 1), 5)]
    assert tops[0].weights == (F("1/2"), F("1/2"))
    assert tops[1].weights == (F("4/5"), F("1/5"))


def test_single_point_diagram():
    d = newton_diagram(P("x*y", "x y"))
    assert not d.convenient  # misses both axes
    assert len(d.faces) == 1
    assert d.faces[0].dim == 0
    assert d.faces[0].vertices == ((1, 1),)


def test_non_convenient_hollow_segment():
    # xy + z^2 misses the x- and y-axes, yet has a maximal compact segment
    d = newton_diagram(P("x*y + z^2"))
    assert not d.convenient
    seg = [f for f in d.faces if f.dim == 1]
    assert len(seg) == 1
    assert seg[0].inner_normal == (1, 1, 1)
    assert seg[0].level == 2
    assert frozenset(seg[0].vertices) == {(1, 1, 0), (0, 0, 2)}


def test_face_restriction_picks_face_terms():
    f = P("x^2 + x*y + y^5 + x^3*y^4", "x y")
    d = newton_diagram(f)
    tops = d.top_faces()
    assert face_restriction(f, tops[0]) == P("x^2 + x*y", "x y")
    assert face_restriction(f, tops[1]) == P("x*y + y^5", "x y")


def test_zero_poly_rejected():
    with pytest.raises(ValueError):
        newton_diagram(Poly.zero(2))
    with pytest.raises(ValueError):
        newton_diagram(Poly.constant(2, QI.one()))  # constant: no diagram germ


def test_nondegenerate_brieskorn():
    f = P("x^2 + y^3 + z^7")
    report = is_newton_nondegenerate(f, newton_diagram(f), Budget(), False, 0)
    assert report.overall is True
    assert set(report.statuses) == {"nondegenerate"}
    assert set(report.methods) == {"exact"}


def test_degenerate_square_of_linear():
    # (x+y)^2 + z^2: the edge restricted to x,y is (x+y)^2, singular on the torus
    f = P("x^2 + 2*x*y + y^2 + z^2")
    report = is_newton_nondegenerate(f, newton_diagram(f), Budget(), False, 0)
    assert report.overall is False
    assert "degenerate" in report.statuses


TORUS_FACES = [
    # critical all along x = -y, where the Hessian is singular
    ("x^2*y^2 + 2*x*y^3 + y^4", "x y", True),  # y^2 (x+y)^2
    ("x^3*y + 3*x^2*y^2 + 3*x*y^3 + y^4", "x y", True),  # (x+y)^3 y
    # a segment in three variables: the critical orbits are 2-dimensional
    ("x^2*y^2*z^2 + 2*x*y^3*z^2 + y^4*z^2", "x y z", True),  # y^2 z^2 (x+y)^2
    ("x^2 + y^3", "x y", False),
    ("x^3 + y^3 + z^3", "x y z", False),
    ("x^4 + y^4 + x^2*y^2", "x y", False),
]


@pytest.mark.parametrize("face, variables, degenerate", TORUS_FACES)
def test_torus_search_finds_exactly_the_degenerate_faces(face, variables, degenerate):
    for seed in range(3):
        assert bool(_torus_search(P(face, variables), seed=seed)[1].any()) is degenerate


def _oracle_torus_search(f_sigma, seed):
    """The torus search as it stood when it ran one start at a time, kept
    verbatim except that it evaluates through ``Poly.evaluate_numeric`` and
    runs every start, returning the final iterates and success flags."""
    import numpy as np

    nvars = f_sigma.nvars
    m0 = next(iter(f_sigma.terms))
    weights = nullspace([[a - b for a, b in zip(m, m0)] for m in f_sigma.terms], nvars)
    fixed = pivot_columns([w[::-1] for w in weights])  # last coordinates first
    free = [j for j in range(nvars) if nvars - 1 - j not in fixed]
    partials = jacobian([f_sigma])[0]
    second = [d for row in jacobian(partials) for d in row]

    def gradient(x):
        return [p.evaluate_numeric(x) for p in partials]

    def hessian(x):
        return [d.evaluate_numeric(x) for d in second]

    rng = np.random.default_rng(seed)
    iterates, flags = [], []
    for _ in range(40):
        radius = rng.uniform(0.4, 1.8, size=len(free))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=len(free))
        x = np.ones(nvars, dtype=complex)
        x[free] = radius * np.exp(1j * phase)
        for _ in range(60 if free else 0):
            val = np.array(gradient(x))
            if np.max(np.abs(val)) < 1e-12:
                break
            jac = np.array(hessian(x)).reshape(nvars, nvars)[:, free]
            if not (np.all(np.isfinite(val)) and np.all(np.isfinite(jac))):
                break  # overflowed: LAPACK would print to stdout and fail, or hang
            step, *_ = np.linalg.lstsq(jac, -val, rcond=None)
            if not np.all(np.isfinite(step)) or np.max(np.abs(step)) < 1e-14:
                break
            # damped update, keeps the iteration from shooting off to 0/inf
            x[free] += step / max(1.0, np.max(np.abs(step)))
        val = np.array(gradient(x))
        iterates.append(x)
        flags.append(bool(np.max(np.abs(val)) < 1e-10 and np.min(np.abs(x)) > 5e-2 and np.max(np.abs(x)) < 1e3))
    return np.array(iterates), flags


BS_6633 = P("x^6 + y^6 + z^3 + w^3 + x*y*z*w + x^5*z", "x y z w")  # bench/germs/bs_6633.json


@pytest.mark.parametrize(
    "face, seeds",
    [pytest.param(P(face, variables), range(6), id=face) for face, variables, _ in TORUS_FACES]
    # `newton` searches face k at seed k + its CLI seed: CLI seeds 0 and 3
    + [
        pytest.param(face_restriction(BS_6633, face), (k, 3 + k), id=f"bs_6633-face{k}")
        for k, face in enumerate(newton_diagram(BS_6633).faces)
    ],
)
def test_lockstep_torus_search_is_bitwise_the_sequential_one(face, seeds):
    for seed in seeds:
        x, found = _torus_search(face, seed)
        want_x, want_found = _oracle_torus_search(face, seed)
        assert x.shape == (40, face.nvars)
        assert x.tobytes() == want_x.tobytes()
        assert found.tolist() == want_found


def test_nondegeneracy_charges_one_budget_across_faces():
    # the equation of bench/germs/bs_6633.json: the budget runs out on the
    # eleventh face, where used stops at limit + 1, and every later face is
    # undetermined at its first charge without moving that count
    f = P("x^6 + y^6 + z^3 + w^3 + x*y*z*w + x^5*z", "x y z w")
    budget = Budget(150)
    report = is_newton_nondegenerate(f, newton_diagram(f), budget, False, 0)
    assert report.statuses == ["nondegenerate"] * 10 + ["undetermined"] * 5
    assert set(report.methods) == {"exact"}
    assert budget.used == 151


def test_analyze_newton_builds_one_diagram_per_call(monkeypatch):
    calls = []

    def counted(f):
        calls.append(f)
        return newton_diagram(f)

    monkeypatch.setattr(germ, "newton_diagram", counted)
    monkeypatch.setattr(newton, "newton_diagram", counted)
    f = P("x^3 + y^4 + z^5 + x*y*z")
    first = analyze_newton(f, Budget(), False, 0)
    assert len(calls) == 1
    second = analyze_newton(f, Budget(), False, 0)
    assert len(calls) == 2
    assert len(first.diagram.top_faces()) > 1
    assert first.nondegeneracy.statuses == second.nondegeneracy.statuses
    assert set(first.nondegeneracy.statuses) == {"nondegenerate"}


def test_face_weight_report_flags_two_lowest():
    d = newton_diagram(P("x^2 + y^3 + z^7"))
    (summary,) = face_weight_report(d)
    assert summary.sorted_weights == (F("1/7"), F("1/3"), F("1/2"))

    d = newton_diagram(P("x^3 + y^3 + z^3"))
    (summary,) = face_weight_report(d)
    assert summary.sorted_weights == (F("1/3"), F("1/3"), F("1/3"))


# -- structural properties ---------------------------------------------------

supports = st.sets(
    st.tuples(*[st.integers(min_value=0, max_value=5)] * 3).filter(lambda m: sum(m) > 0),
    min_size=1,
    max_size=6,
)


@settings(max_examples=80, deadline=None)
@given(supports)
def test_faces_live_on_their_level_and_restrictions_are_weighted_homogeneous(monos):
    f = Poly(3, {m: QI.one() for m in monos})
    d = newton_diagram(f)
    for face in d.faces:
        # all vertices on the level, all other support strictly above
        for v in face.vertices:
            assert sum(n * e for n, e in zip(face.inner_normal, v)) == face.level
        for m in d.support:
            assert sum(n * e for n, e in zip(face.inner_normal, m)) >= face.level
        assert all(n > 0 for n in face.inner_normal)
    for face in d.top_faces():
        # the face polynomial is weighted-homogeneous of degree 1 for the
        # face weights (normal / level)
        g = face_restriction(f, face)
        assert g.is_weighted_homogeneous(face.weights)
        assert g.weighted_order(face.weights) == 1


@settings(max_examples=50, deadline=None)
@given(supports)
def test_single_top_face_normal_matches_weight_inference(monos):
    f = Poly(3, {m: QI.one() for m in monos})
    d = newton_diagram(f)
    tops = d.top_faces()
    if len(tops) != 1:
        return
    face = tops[0]
    g = face_restriction(f, face)
    inf = infer_weights([g], ["x", "y", "z"])
    if inf.status == "unique":
        # normalized weights agree with the face weights up to the p=1 scale
        scale = g.weighted_order(inf.weights)
        assert [w / scale for w in inf.weights] == list(face.weights)


# -- the integer elimination against the Fraction elimination ----------------


def _oracle_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(mat)):
            if mat[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                factor = mat[k][c]
                mat[k] = [a - factor * b for a, b in zip(mat[k], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _oracle_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space {v : M v = 0}, one vector per free column."""
    red, pivots = _oracle_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _oracle_rank(rows):
    return len(_oracle_rref([[Fraction(x) for x in r] for r in rows])[1])


def _leibniz_determinant(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[k][perm[k]] for k in range(n))
    return total


@st.composite
def integer_matrices(draw):
    """(rows, ncols): 0-6 integer rows of 1-6 columns, often square, with
    entries up to ±10^6, among them zero rows and exact integer
    combinations of earlier rows."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = ncols if draw(st.booleans()) else draw(st.integers(min_value=0, max_value=6))
    rows: list[list[int]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["entries", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
        else:
            entry = st.integers(min_value=-10**6, max_value=10**6)
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(([], 0))
@example(([], 3))
@example(([[0, 0]], 2))
@example(([[2, 3], [4, 6]], 2))
@example(([[0, 3, 1], [0, 6, 2], [5, 0, 0]], 3))
def test_integer_elimination_matches_the_fraction_oracle(case):
    rows, ncols = case
    fraction_rows = [[Fraction(x) for x in r] for r in rows]
    pivots = _oracle_rref(fraction_rows)[1]
    assert rank(rows) == len(pivots)
    assert pivot_columns(rows) == pivots
    kernel = nullspace(rows, ncols)
    want = _oracle_nullspace(fraction_rows, ncols)
    assert len(kernel) == len(want) == ncols - len(pivots)
    for v, w in zip(kernel, want):
        assert all(type(x) is int for x in v)
        (free,) = [c for c in range(ncols) if c not in pivots and w[c]]
        scale = v[free]
        assert scale > 0 and v == [scale * x for x in w]
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
    if len(rows) == ncols:
        assert integer_determinant(rows) == _leibniz_determinant(rows)


def _oracle_primitive(vec):
    denom_lcm = 1
    for x in vec:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return [v // g for v in ints]


def _oracle_facet_data(support, nvars):
    """The facet search as it was before the integer minors: one Fraction
    null space per (point tuple, coordinate set) candidate."""
    pts = sorted(support)
    unit = [tuple(1 if k == j else 0 for k in range(nvars)) for j in range(nvars)]
    normals: set[tuple[int, ...]] = set()
    for tsize in range(1, min(len(pts), nvars) + 1):
        esize = nvars - tsize
        for T in combinations(pts, tsize):
            diffs = [tuple(a - b for a, b in zip(t, T[0])) for t in T[1:]]
            if _oracle_rank(diffs) != tsize - 1:
                continue  # affinely dependent tuple; a smaller one covers it
            for E in combinations(range(nvars), esize):
                rows = [[Fraction(x) for x in d] for d in diffs]
                rows += [[Fraction(x) for x in unit[j]] for j in E]
                kernel = _oracle_nullspace(rows, nvars)
                if len(kernel) != 1:
                    continue
                nu = tuple(_oracle_primitive(kernel[0]))
                if all(c <= 0 for c in nu):
                    nu = tuple(-c for c in nu)
                if any(c < 0 for c in nu):
                    continue
                normals.add(nu)
    facets = []
    for nu in sorted(normals):
        level = min(_dot(nu, p) for p in pts)
        arg = [p for p in pts if _dot(nu, p) == level]
        rays = [unit[j] for j in range(nvars) if nu[j] == 0]
        span = [tuple(a - b for a, b in zip(p, arg[0])) for p in arg[1:]] + rays
        if _oracle_rank(span) == nvars - 1:
            facets.append((nu, frozenset(arg)))
    return facets


@st.composite
def small_supports(draw, nvars=st.integers(min_value=2, max_value=4)):
    """(nvars, support): 1-8 random terms with exponents 0-9, sometimes
    together with a pure power of every variable."""
    n = draw(nvars)
    monos = draw(st.sets(st.tuples(*[st.integers(min_value=0, max_value=9)] * n), min_size=1, max_size=8))
    if draw(st.booleans()):
        powers = draw(st.tuples(*[st.integers(min_value=1, max_value=9)] * n))
        monos |= {tuple(a if k == j else 0 for k in range(n)) for j, a in enumerate(powers)}
    monos.discard((0,) * n)
    if not monos:
        monos = {(1,) * n}
    return n, sorted(monos)


@settings(max_examples=60, deadline=None)
@given(small_supports())
@example((3, [(0, 0, 999_983), (0, 1_000_003, 0), (314_159, 271_828, 1), (500_000, 0, 500_001), (1_000_000, 0, 0)]))
@example((4, [(0, 0, 0, 1_000_000), (0, 0, 999_999, 0), (0, 1_000_001, 0, 0), (999_998, 0, 0, 0), (1, 2, 3, 4)]))
def test_facets_and_faces_match_the_fraction_oracle(case):
    nvars, support = case
    assert _facet_data(support, nvars) == _oracle_facet_data(support, nvars)
    f = Poly(nvars, {m: QI.one() for m in support})
    with patch.object(newton, "_facet_data", _oracle_facet_data), patch.object(newton, "rank", _oracle_rank):
        want = newton_diagram(f)
    assert newton_diagram(f) == want


def _lower_hull_faces(points):
    """Compact faces of a plane Newton polygon, as (dim, points on the face),
    from the lower convex hull by Andrew's monotone chain: the compact
    boundary is the part of the lower hull where y strictly falls."""
    pts = sorted(set(points))
    hull = []
    for p in pts:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1]) - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
        ) <= 0:
            hull.pop()
        hull.append(p)
    chain = [hull[0]]
    for p in hull[1:]:
        if p[1] >= chain[-1][1]:
            break
        chain.append(p)
    faces = {(0, frozenset([v])) for v in chain}
    for a, b in zip(chain, chain[1:]):
        nu = (a[1] - b[1], b[0] - a[0])
        faces.add((1, frozenset(p for p in pts if _dot(nu, p) == _dot(nu, a))))
    return faces


@settings(max_examples=150, deadline=None)
@given(small_supports(nvars=st.just(2)))
def test_plane_faces_match_the_monotone_chain_lower_hull(case):
    _, support = case
    d = newton_diagram(Poly(2, {m: QI.one() for m in support}))
    assert {(fc.dim, frozenset(fc.vertices)) for fc in d.faces} == _lower_hull_faces(support)


# -- Kouchnirenko's Newton number --------------------------------------------
# For a convenient germ f in n variables that is non-degenerate on every
# compact face, mu(f) = sum_k (-1)^(n-k) k! V_k + (-1)^n (Kouchnirenko 1976),
# where V_k sums the volumes under the Newton boundary over the k-dimensional
# coordinate planes.  The volumes below are exact Fractions computed from the
# support alone, independently of newton_diagram and of every basis.


def _fraction_determinant(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _hyperplane(points):
    """(normal, offset) of the hyperplane through d points of R^d: the normal
    is the vector of signed maximal minors of their differences, zero when
    the points are affinely dependent."""
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    normal = tuple(
        (-1) ** j * _fraction_determinant([row[:j] + row[j + 1:] for row in diffs]) for j in range(len(base))
    )
    return normal, _dot(normal, base)


def _convex_volume(points):
    """Volume of the convex hull of points of R^d (0 when it is flat): the
    pyramids from the centroid over the facets, a facet's volume read off its
    projection along a coordinate its normal moves."""
    points = sorted(set(points))
    d = len(points[0])
    if d == 0:
        return Fraction(1)
    center = [Fraction(sum(col), len(points)) for col in zip(*points)]
    facets = {}
    for subset in combinations(points, d):
        normal, offset = _hyperplane(subset)
        sides = {(_dot(normal, p) > offset) - (_dot(normal, p) < offset) for p in points}
        if any(normal) and sides in ({0, 1}, {0, -1}):
            facets[frozenset(p for p in points if _dot(normal, p) == offset)] = normal, offset
    volume = Fraction(0)
    for facet, (normal, offset) in facets.items():
        j = next(j for j, c in enumerate(normal) if c)
        base = _convex_volume([p[:j] + p[j + 1:] for p in facet])
        volume += abs(_dot(normal, center) - offset) * base / (d * abs(normal[j]))
    return volume


def _volume_under_the_boundary(support):
    """Volume under the Newton boundary of a convenient support in R^k: over
    the compact facets F (normal nu > 0, level l), the cones from the origin,
    l * vol(proj_1 F) / (k * nu_1)."""
    k = len(support[0])
    facets = {}
    for subset in combinations(sorted(set(support)), k):
        normal, level = _hyperplane(subset)
        if all(c < 0 for c in normal):
            normal, level = tuple(-c for c in normal), -level
        if all(c > 0 for c in normal) and all(_dot(normal, p) >= level for p in support):
            facets[frozenset(p for p in support if _dot(normal, p) == level)] = normal, level
    cones = (level * _convex_volume([p[1:] for p in facet]) / (k * normal[0]) for facet, (normal, level) in facets.items())
    return sum(cones, Fraction(0))


def kouchnirenko_number(f):
    n = f.nvars
    nu = Fraction((-1) ** n)
    for k in range(1, n + 1):
        v_k = sum(
            _volume_under_the_boundary(
                [tuple(m[j] for j in plane) for m in f.terms if all(m[j] == 0 for j in set(range(n)) - set(plane))]
            )
            for plane in combinations(range(n), k)
        )
        nu += (-1) ** (n - k) * factorial(k) * v_k
    return nu


def test_kouchnirenko_number_of_closed_forms():
    # Brieskorn-Pham: prod(a_j - 1); the plane A_k curve; the x*y*z family T_{p,q,r}
    assert kouchnirenko_number(P("x^2 + y^3 + z^7")) == 12
    assert kouchnirenko_number(P("x^4 + y^5", "x y")) == 12
    assert kouchnirenko_number(P("x^2 + y^7", "x y")) == 6
    assert kouchnirenko_number(P("x^3 + y^4 + z^5 + x*y*z")) == 3 + 4 + 5 - 1


def _single_equation_ladder_germs():
    germs = {}
    for path in sorted((ROOT / "bench" / "germs").glob("*.json")):
        raw = load_raw(read_germ_file(path))
        if len(raw.equations) == 1 and newton_diagram(raw.equations[0]).convenient:
            germs[path.stem] = raw.equations[0]
    return germs


LADDER = _single_equation_ladder_germs()


def test_the_ladder_has_twelve_convenient_hypersurfaces():
    # every single-equation germ of bench/germs but briancon_speder and
    # quadric_cone_4d, whose diagrams miss an axis; cusp_plane is the one
    # with two variables, which the Newton route turns down
    assert sorted(LADDER) == [
        "a1", "a2", "a3", "a4", "a5", "a6", "bs_6633", "bs_pert4", "cube", "cusp_plane", "sphere_cubic", "x2y3z7",
    ]


@pytest.mark.parametrize(
    "f",
    [*LADDER.values(), P("x^2 + y^5 + z^5 + x*y*z"), P("x^3 + y^4 + z^5 + x*y*z")],
    ids=[*LADDER, "T_2_5_5", "T_3_4_5"],
)
def test_milnor_number_is_kouchnirenkos_on_the_ladder(f):
    assert is_newton_nondegenerate(f, newton_diagram(f), Budget(), False, 0).overall
    nu = kouchnirenko_number(f)
    assert milnor_number(f, Budget()) == nu
    assert _local_route_mu(f, Budget()) == nu


def _local_route_mu(f, budget):
    """The local standard basis route of milnor_number, which the weighted
    initial form's certificate usually spares."""
    return quotient_dimension(local_standard_basis([f.partial(j) for j in range(f.nvars)], budget), budget)


@pytest.mark.parametrize("name", ["a2", "a3", "a4", "a5", "a6", "bs_6633", "bs_pert4", "x2y3z7"])
def test_analyze_slice_milnor_number_is_kouchnirenkos(name):
    # the fast-cycle certificate's mu is that of the slice germ f(0, x_2, ..., x_N)
    system = load_system(read_germ_file(ROOT / "bench" / "germs" / f"{name}.json")).system
    report = analyze(system, frozenset(), 0, Budget())
    (f,) = system.full_equations()
    slice_germ = Poly(f.nvars - 1, {m[1:]: c for m, c in f.terms.items() if m[0] == 0})
    assert report.verdict == "FAST_CYCLE_FOUND"
    assert is_newton_nondegenerate(slice_germ, newton_diagram(slice_germ), Budget(), False, 0).overall
    assert report.certificates.mu == kouchnirenko_number(slice_germ)


@st.composite
def convenient_germs(draw):
    """A pure power of each variable plus up to three mixed monomials, with
    coefficients drawn from 1..3 up to sign (larger exponents and
    coefficients let a rare local basis run for minutes within its budget)."""
    n = draw(st.integers(2, 3))
    exponents = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    pure = [tuple(a if k == j else 0 for k in range(n)) for j, a in enumerate(exponents)]
    mixed = st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(1 for e in m if e) >= 2)
    monomials = pure + draw(st.lists(mixed, max_size=3, unique=True))
    coefficient = st.integers(1, 3).flatmap(lambda c: st.sampled_from([c, -c]))
    return Poly(n, {m: QI(draw(coefficient)) for m in monomials})


@settings(max_examples=60, deadline=None)
@given(convenient_germs())
def test_milnor_number_is_kouchnirenkos_on_nondegenerate_convenient_germs(f):
    assume(is_newton_nondegenerate(f, newton_diagram(f), Budget(), False, 0).overall)
    try:
        mu = milnor_number(f, Budget(3000))
        local_mu = _local_route_mu(f, Budget(3000))
    except BudgetExhausted:
        assume(False)
    assert mu == local_mu == kouchnirenko_number(f)
