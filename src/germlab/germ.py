"""Decision procedures for perturbed weighted-homogeneous complete
intersection germs: the validated system and its weight blocks, the
obstruction locus, the hypothesis ledger, and the one-sided fast-cycle
verdict.

Conventions, fixed package-wide:

* variables are sorted so weights ascend; ``x_1`` is always the (first)
  lowest-weight variable;
* the blocks of equal weights end at :attr:`GermSystem.breakpoints`, the one
  place they are derived;
* ``n`` is the complex dimension of the germ, ``c = r`` the codimension
  (number of equations), ``N = n + c`` the ambient dimension;
* verdicts are one-sided: the tool certifies the *presence* of a fast-cycle
  obstruction (non-conicalness); it never certifies conicalness.
  NO_OBSTRUCTION_FOUND means exactly that the implemented criteria are
  silent;
* all dimension computations are exact (leading-term combinatorics of
  Groebner or local standard bases); every randomized choice (slice values
  t0) is drawn from an explicit seed and re-sampled three times with
  agreement required.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from germlab.groebner import (
    Budget,
    BudgetExhausted,
    GroebnerBasis,
    buchberger,
    krull_dimension,
    local_standard_basis,
    milnor_number,
    minors,
)
from germlab.newton import (
    NewtonDiagram,
    NondegeneracyReport,
    face_restriction,
    face_weight_report,
    is_newton_nondegenerate,
    newton_diagram,
)
from germlab.orders import grevlex
from germlab.poly import NumericEvaluator, Poly, jacobian, jacobian_evaluator
from germlab.qi import QI

__all__ = [
    "GermSystem",
    "germ_system",
    "singular_locus_ideal",
    "variety_dimension",
    "SigmaComponent",
    "ObstructionLocus",
    "sigma",
    "is_reduced_ci",
    "is_icis",
    "delta",
    "exponent_bound",
    "HypothesisEntry",
    "Certificates",
    "AnalysisReport",
    "analyze",
    "FaceVerdict",
    "NewtonAnalysis",
    "analyze_newton",
]


# ---------------------------------------------------------------------------
# the germ system


@dataclass(frozen=True)
class GermSystem:
    """A weighted-homogeneous principal part plus a perturbation.

    Invariants established by :func:`germ_system`: weights ascend; each
    principal part is weighted-homogeneous of its stated degree; every
    principal monomial has total degree >= 2; each perturbation has weighted
    order >= the matching degree."""

    variables: tuple[str, ...]
    principal: tuple[Poly, ...]
    perturbation: tuple[Poly, ...]
    weights: tuple[Fraction, ...]
    degrees: tuple[Fraction, ...]

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def c(self) -> int:
        return len(self.principal)

    @property
    def n(self) -> int:
        return self.nvars - self.c

    @cached_property
    def breakpoints(self) -> tuple[int, ...]:
        """The 1-based ends r_1 < ... < r_k of the blocks of equal weights;
        the last is ``nvars``."""
        w = self.weights
        return tuple(i for i in range(1, len(w) + 1) if i == len(w) or w[i] != w[i - 1])

    def full_equations(self) -> list[Poly]:
        return [p + q for p, q in zip(self.principal, self.perturbation)]

    @cached_property
    def evaluators(self) -> tuple[NumericEvaluator, ...]:
        """The principal part, the perturbation and their Jacobians, compiled once."""
        return (NumericEvaluator(self.principal), NumericEvaluator(self.perturbation),
                jacobian_evaluator(self.principal), jacobian_evaluator(self.perturbation))

    def is_perturbed(self) -> bool:
        return any(not q.is_zero() for q in self.perturbation)

    def is_same_order(self) -> bool:
        """True when some perturbation term sits at exactly the principal
        weighted degree (a same-order family rather than higher-order)."""
        return delta(self) == 0


def germ_system(
    variables: list[str],
    principal: list[Poly],
    perturbation: list[Poly],
    weights: list[Fraction],
) -> GermSystem:
    """Validate and build a :class:`GermSystem` (weights must already ascend;
    the germ-file loader infers weights and sorts the variables).

    Raises ValueError on: count mismatches, unsorted weights,
    non-weighted-homogeneous principal parts, principal terms of total
    degree < 2, or perturbations of too-low weighted order."""
    nvars = len(variables)
    if not principal:
        raise ValueError("no principal equations")
    if any(f.nvars != nvars for f in principal):
        raise ValueError("equation/variable count mismatch")
    if any(q.nvars != nvars for q in perturbation):
        raise ValueError("perturbation/variable count mismatch")
    if len(weights) != nvars:
        raise ValueError("weight/variable count mismatch")
    if len(principal) >= nvars:
        raise ValueError("need fewer equations than variables (positive-dimensional germ)")
    weights = [Fraction(w) for w in weights]
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if list(weights) != sorted(weights):
        raise ValueError("weights must ascend (sort the variables first)")

    degrees: list[Fraction] = []
    for k, f in enumerate(principal):
        if f.is_zero():
            raise ValueError(f"principal part {k} is zero")
        d = f.weighted_order(weights)
        if not f.is_weighted_homogeneous(weights):
            raise ValueError(f"principal part {k} is not weighted-homogeneous for the given weights")
        if any(sum(m) < 2 for m in f.terms):
            raise ValueError(f"principal part {k} has a term of total degree < 2")
        degrees.append(d)

    if len(perturbation) != len(principal):
        raise ValueError("perturbation list length differs from principal list")
    for k, (q, p) in enumerate(zip(perturbation, degrees)):
        w = q.weighted_order(weights)
        if w is not None and w < p:
            raise ValueError(
                f"perturbation {k} has weighted order {w} below the principal degree {p}"
            )
    return GermSystem(
        tuple(variables), tuple(principal), tuple(perturbation), tuple(weights), tuple(degrees)
    )


# ---------------------------------------------------------------------------
# singular loci and dimensions


def singular_locus_ideal(generators: list[Poly]) -> list[Poly]:
    """Generators of the singular locus of a claimed codimension-k complete
    intersection: the equations together with the k x k minors of their
    Jacobian.  (Contains every non-reduced and every excess-dimension
    component.)"""
    return list(generators) + minors(jacobian(generators))


def variety_dimension(gens: list[Poly], budget: Budget, local: bool = False) -> int:
    """Krull dimension of the zero set of ``gens``: the cone dimension on
    the global route, the germ dimension at the origin on the local route.
    -1 for the empty set (locally: origin not in the set)."""
    nvars = gens[0].nvars if gens else 0
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return nvars
    if local:
        basis = local_standard_basis(nonzero, budget)
    else:
        basis = buchberger(nonzero, grevlex(nvars), budget)
    return krull_dimension(basis)


# ---------------------------------------------------------------------------
# the obstruction locus


@dataclass
class SigmaComponent:
    label: str
    generators: list[Poly]
    basis: GroebnerBasis | None
    dimension: int | None
    status: str  # "computed" | "undetermined"


@dataclass
class ObstructionLocus:
    components: list[SigmaComponent]
    total_dim: int | None
    is_origin_only: bool | None


def sigma(system: GermSystem, budget: Budget) -> ObstructionLocus:
    """The obstruction locus: the union of the singular locus of the
    principal germ and of its intersections with the coordinate flags of the
    weight blocks (one slice per block end short of the full set).

    A budget-exhausted component is marked "undetermined"; the aggregate
    flags become unknowable (None) unless a computed component already
    decides them."""
    nvars = system.nvars
    tasks: list[tuple[str, list[Poly]]] = [("Sing[X0]", list(system.principal))]
    for r_j in system.breakpoints[:-1]:
        cut = [Poly.variable(nvars, i) for i in range(r_j)]
        names = ", ".join(system.variables[:r_j])
        tasks.append((f"Sing[X0 n V({names})]", list(system.principal) + cut))

    components: list[SigmaComponent] = []
    for label, gens in tasks:
        sing = singular_locus_ideal(gens)
        try:
            basis = buchberger(sing, grevlex(nvars), budget)
            components.append(SigmaComponent(label, sing, basis, krull_dimension(basis), "computed"))
        except BudgetExhausted:
            components.append(SigmaComponent(label, sing, None, None, "undetermined"))

    computed = [comp.dimension for comp in components if comp.status == "computed"]
    undetermined = any(comp.status == "undetermined" for comp in components)
    total_dim: int | None
    is_origin_only: bool | None
    if undetermined:
        total_dim = None
        # a computed component of positive dimension already settles the flag
        is_origin_only = False if any(d is not None and d > 0 for d in computed) else None
    else:
        total_dim = max(computed)
        is_origin_only = all(d <= 0 for d in computed)
    return ObstructionLocus(components, total_dim, is_origin_only)


# ---------------------------------------------------------------------------
# reducedness / isolatedness


def is_reduced_ci(gens: list[Poly], expected_codim: int, budget: Budget, local: bool) -> tuple[bool, str]:
    """Reduced complete intersection test: the zero set has the expected
    dimension and the singular locus has strictly smaller dimension.  (For
    complete intersections this is equivalent to reducedness - they are
    Cohen-Macaulay, so Serre's R0 alone decides.)  Returns (verdict,
    evidence).  BudgetExhausted propagates to the caller."""
    nvars = gens[0].nvars
    expected_dim = nvars - expected_codim
    d = variety_dimension(gens, budget, local=local)
    route = "local" if local else "cone"
    if d != expected_dim:
        return False, f"{route} dimension {d} != expected {expected_dim}"
    ds = variety_dimension(singular_locus_ideal(gens), budget, local=local)
    if ds < expected_dim:
        return True, f"dimension {d} as expected; singular locus has dimension {ds} < {expected_dim}"
    return False, f"singular locus has dimension {ds} >= germ dimension {expected_dim}"


def is_icis(gens: list[Poly], budget: Budget, local: bool) -> tuple[bool, str]:
    """Isolated-singularity test: the singular locus is at most the origin."""
    ds = variety_dimension(singular_locus_ideal(gens), budget, local=local)
    if ds <= 0:
        return True, f"singular locus dimension {ds} (at most the origin)"
    return False, f"singular locus has dimension {ds} > 0"


# ---------------------------------------------------------------------------
# delta and the exponent bound


def delta(system: GermSystem) -> Fraction | None:
    """The weighted-order gap of the perturbation: min_i(ord_w f_{>p_i} -
    p_i).  None encodes +infinity (unperturbed).  0 means a same-order
    family."""
    gaps: list[Fraction] = []
    for q, p in zip(system.perturbation, system.degrees):
        w = q.weighted_order(system.weights)
        if w is not None:
            gaps.append(w - p)
    return min(gaps) if gaps else None


def exponent_bound(system: GermSystem) -> Fraction | None:
    """Lower bound for the tangency exponent of the deformed fast cycle:
    min{1 + delta/w_1, w_{r_1+1}/w_1}, terms with infinite ingredients
    dropped.  None when both drop (unperturbed single-block systems: no
    finite bound is asserted)."""
    d = delta(system)
    r1 = system.breakpoints[0]
    candidates: list[Fraction] = []
    if d is not None:
        candidates.append(1 + d / system.weights[0])
    if r1 < system.nvars:
        candidates.append(system.weights[r1] / system.weights[0])
    return min(candidates) if candidates else None


# ---------------------------------------------------------------------------
# the analyzer


@dataclass
class HypothesisEntry:
    key: str
    statement: str
    status: str  # "verified" | "failed" | "user-asserted" | "unchecked"
    evidence: str


@dataclass
class Certificates:
    fast_cycle_dim: int
    homotopy: str
    mu: int | None
    tangent_cone_coordinate_span: int
    exponent_bound: Fraction | None


@dataclass
class AnalysisReport:
    verdict: str  # FAST_CYCLE_FOUND | NO_OBSTRUCTION_FOUND | HYPOTHESES_UNVERIFIED
    l: int | None
    certificates: Certificates | None
    hypothesis_ledger: list[HypothesisEntry]
    notes: list[str] = field(default_factory=list)


def _random_slice_values(seed: int) -> list[QI]:
    """Three small-height random rationals for generic slice values,
    deterministic in the seed; never zero."""
    rng = random.Random(seed)
    return [QI(Fraction(rng.randint(1, 9), rng.randint(10, 19))) for _ in range(3)]


def analyze(
    system: GermSystem,
    assumptions: frozenset[str] | set[str],
    seed: int,
    budget: Budget,
) -> AnalysisReport:
    """Run the hypothesis ledger and deliver the one-sided verdict.

    The ledger (in order): (pre) the perturbation has strictly higher order;
    (a) X is reduced; (b) the slice X n V(x_1) is a reduced complete
    intersection of dimension n-1; (c) the generic section X n V(x_1 - t0)
    is the Milnor fibre of the slice germ - verified via the sufficient
    condition [slice is ICIS and three random sections are exactly smooth],
    or else user-asserted via the "milnor-fibre" assumption; (d) the
    perturbation is trivial, or dim[X n Sing(X0) n V(x_1 - t0)] < (n-1)/2;
    (e) l := n - dim Sing[slice] with 2 <= l <= n.

    FAST_CYCLE_FOUND requires every entry verified or user-asserted and
    w_1 < w_l; a clean ledger with w_1 = w_l gives NO_OBSTRUCTION_FOUND;
    anything failed or unchecked gives HYPOTHESES_UNVERIFIED.  The surface
    branch (n = 2 with a non-contractible section component) is available
    only through the "noncontractible-component" assumption.

    Entries (a)-(e) run through one local runner, ``entry(key, statement,
    check)``: ``check()`` returns (status, evidence), and the runner alone
    turns BudgetExhausted into "unchecked".  Once an entry exhausts the
    shared budget, each later entry that needs it is unchecked as not
    attempted, naming that entry, and charges nothing.  An entry's statement
    is the same whether it ran or not.  A user-asserted (c) and the
    "perturbation trivial" (d) need no budget and bypass the runner."""
    if system.n < 2:
        raise ValueError("analysis requires a germ of dimension at least 2")
    assumptions = frozenset(assumptions)
    notes: list[str] = []
    ledger: list[HypothesisEntry] = []
    nvars = system.nvars
    n = system.n
    r = system.c
    perturbed = system.is_perturbed()
    full = system.full_equations()
    x1 = system.variables[0]

    # (pre) perturbation order
    d = delta(system)
    if d is None or d > 0:
        order = ("verified", "perturbation is zero" if d is None else f"delta = {d}")
    else:
        order = ("failed", "same-order perturbation (delta = 0); the weight criterion does not cover this family")
        notes.append(
            "same-order families fall outside the fast-cycle criterion; only the foliation construction applies"
        )
    ledger.append(HypothesisEntry("order", "perturbation has strictly higher weighted order", *order))

    exhausted_by: str | None = None

    def entry(key: str, statement: str, check: Callable[[], tuple[str, str]]) -> None:
        nonlocal exhausted_by
        if exhausted_by is not None:
            status, evidence = "unchecked", f"not attempted: the shared budget was exhausted in entry ({exhausted_by})"
        else:
            try:
                status, evidence = check()
            except BudgetExhausted as exc:
                exhausted_by, status, evidence = key, "unchecked", str(exc)
        ledger.append(HypothesisEntry(key, statement, status, evidence))

    def reduced(gens: list[Poly], codim: int) -> tuple[str, str]:
        ok, ev = is_reduced_ci(gens, codim, budget, local=perturbed)
        return ("verified" if ok else "failed"), ev

    # (a) X reduced; (b) slice reduced CI of dimension n-1
    slice_gens = full + [Poly.variable(nvars, 0)]
    entry("a", "X is a reduced complete intersection", lambda: reduced(full, r))
    entry("b", f"X n V({x1}) is a reduced complete intersection of dimension {n - 1}",
          lambda: reduced(slice_gens, r + 1))

    # (c) Milnor-fibre hypothesis (sufficient condition, else user-asserted)
    def milnor_fibre() -> tuple[str, str]:
        hint = "(pass the milnor-fibre assumption to override)"
        icis_ok, icis_ev = is_icis(slice_gens, budget, local=perturbed)
        if not icis_ok:
            return "failed", f"slice is not ICIS ({icis_ev}); the Milnor-fibre property is not automatic here {hint}"
        # x_1 - t0 has the Jacobian row of x_1: a section's Sing ideal ends in the slice's minors.
        # Every section is computed, so the budget charged does not depend on which one fails
        slice_minors = minors(jacobian(slice_gens))
        sections = [full + [Poly.variable(nvars, 0) - Poly.constant(nvars, t0)] + slice_minors
                    for t0 in _random_slice_values(seed)]
        if all([variety_dimension(s, budget) == -1 for s in sections]):
            return "verified", f"slice is ICIS ({icis_ev}); three random sections are smooth (empty singular scheme)"
        return "failed", f"slice is ICIS but a random section has a singular point; sufficient condition not met {hint}"

    statement_c = f"the generic section X n V({x1} - t0) is the Milnor fibre of the slice germ"
    if "milnor-fibre" in assumptions:
        ledger.append(HypothesisEntry("c", statement_c, "user-asserted", "assumption flag supplied"))
    else:
        entry("c", statement_c, milnor_fibre)

    # (d) perturbation trivial, or the singular-overlap slice is small
    def small_overlap() -> tuple[str, str]:
        overlap = full + singular_locus_ideal(list(system.principal))
        dims = [
            variety_dimension(overlap + [Poly.variable(nvars, 0) - Poly.constant(nvars, t0)], budget)
            for t0 in _random_slice_values(seed + 1)
        ]
        bound = Fraction(n - 1, 2)
        if len(set(dims)) != 1:
            return "unchecked", f"slice dimensions disagree across samples: {dims}"
        if dims[0] < bound:
            return "verified", f"dimension {dims[0]} < {bound} at three random t0"
        return "failed", f"dimension {dims[0]} >= {bound}"

    statement_d = f"dim[X n Sing(X0) n V({x1} - t0)] < (n-1)/2"
    if not perturbed:
        ledger.append(HypothesisEntry("d", statement_d, "verified", "perturbation trivial"))
    else:
        entry("d", statement_d, small_overlap)

    # (e) l = n - dim Sing[slice germ]
    l: int | None = None

    def slice_singularity() -> tuple[str, str]:
        nonlocal l
        sing_dim = variety_dimension(singular_locus_ideal(slice_gens), budget, local=perturbed)
        if not 2 <= n - sing_dim <= n:
            return "failed", f"l = {n - sing_dim} outside [2, {n}]"
        l = n - sing_dim
        return "verified", f"dim Sing = {sing_dim}, l = {l}"

    entry("e", "l := n - dim Sing[X n V(x_1)] with 2 <= l <= n", slice_singularity)

    # surface branch, user-asserted only
    surface_asserted = "noncontractible-component" in assumptions and n == 2
    if surface_asserted:
        ledger.append(
            HypothesisEntry(
                "surface",
                "every small section contains a smooth irreducible non-contractible component",
                "user-asserted",
                "assumption flag supplied (not machine-checkable)",
            )
        )
    elif "noncontractible-component" in assumptions:
        notes.append("noncontractible-component assumption ignored: germ dimension is not 2")

    clean = all(e.status in ("verified", "user-asserted") for e in ledger if e.key != "surface")

    def certificates(cycle_dim: int, homotopy: str, mu: int | None) -> Certificates:
        return Certificates(
            fast_cycle_dim=cycle_dim,
            homotopy=homotopy,
            mu=mu,
            tangent_cone_coordinate_span=system.breakpoints[0],
            exponent_bound=exponent_bound(system),
        )

    if clean and l is not None:
        if system.weights[0] < system.weights[l - 1]:
            mu: int | None = None
            homotopy = f"Milnor fibre of the slice germ X n V({x1})"
            if r == 1:
                slice_poly = Poly(nvars - 1, {m[1:]: c for m, c in full[0].terms.items() if not m[0]})
                try:
                    mu = milnor_number(slice_poly, budget)
                except BudgetExhausted:
                    mu = None
                if mu is not None:
                    homotopy = f"wedge of {mu} spheres S^{n - 1}"
                else:
                    notes.append("slice Milnor number unavailable; fast-cycle existence is unaffected")
            else:
                notes.append("mu unavailable for codimension >= 2 slices; fast-cycle existence is unaffected")
            return AnalysisReport(
                "FAST_CYCLE_FOUND", l, certificates(l - 1, homotopy, mu), ledger, notes
            )
        notes.append(
            f"weights w_1 = {system.weights[0]} and w_l = {system.weights[l - 1]} coincide; the criterion is silent"
        )
        return AnalysisReport("NO_OBSTRUCTION_FOUND", l, None, ledger, notes)

    # main ledger not clean: the surface branch may still apply
    if surface_asserted:
        entry_a = next(e for e in ledger if e.key == "a")
        if entry_a.status == "verified" and system.weights[0] < system.weights[1]:
            notes.append("verdict via the user-asserted surface branch (fast loop)")
            return AnalysisReport(
                "FAST_CYCLE_FOUND",
                l,
                certificates(1, "non-contractible loop in a section component (user-asserted)", None),
                ledger,
                notes,
            )

    return AnalysisReport("HYPOTHESES_UNVERIFIED", l, None, ledger, notes)


# ---------------------------------------------------------------------------
# the Newton-diagram route (hypersurfaces)


@dataclass
class FaceVerdict:
    face_index: int
    sorted_weights: tuple[Fraction, ...]
    sing_dim: int | None
    dim_condition: bool | None
    lower_weights_coincide: bool | None
    certificate: bool
    status: str  # "certificate" | "silent" | "unchecked"
    evidence: str


@dataclass
class NewtonAnalysis:
    diagram: NewtonDiagram
    nondegeneracy: NondegeneracyReport
    criterion_applicable: bool
    face_verdicts: list[FaceVerdict]
    notes: list[str]

    @property
    def any_certificate(self) -> bool:
        return any(v.certificate for v in self.face_verdicts)


def analyze_newton(
    f: Poly,
    budget: Budget,
    probabilistic: bool,
    seed: int,
) -> NewtonAnalysis:
    """Per-top-face obstruction certificates for a convenient hypersurface
    germ: a face certifies non-conicalness when dim Sing V(f_sigma) <
    (n+3)/2 and the lower n face weights do not all coincide (for surface
    germs, n = 2, the dimension condition holds automatically and is not
    computed).

    Faces whose nondegeneracy is refuted or undetermined are "unchecked".
    ``criterion_applicable`` is False for single-top-face diagrams (the
    weighted-homogeneous analyzer is the right tool there) and when overall
    nondegeneracy fails; per-face weight facts are still reported."""
    diagram = newton_diagram(f)
    if not diagram.convenient:
        raise ValueError("the Newton route requires a convenient diagram")
    n = f.nvars - 1
    if n < 2:
        raise ValueError("the Newton route requires at least 3 variables (a germ of dimension >= 2)")
    notes: list[str] = []
    nnd = is_newton_nondegenerate(f, diagram, budget, probabilistic, seed)
    if any(m == "probabilistic" for m in nnd.methods):
        notes.append("nondegeneracy partially established by random torus search (probabilistic)")

    tops = diagram.top_faces()
    applicable = True
    if len(tops) < 2:
        applicable = False
        notes.append(
            "single top face: the diagram criterion does not apply (the germ is weighted-homogeneous "
            "up to higher-order terms; use the weighted analyzer); face facts reported anyway"
        )
    if nnd.overall is False:
        applicable = False
        notes.append("germ is Newton-degenerate: the diagram criterion's hypotheses fail")
    elif nnd.overall is None:
        applicable = False
        notes.append("nondegeneracy undetermined within budget: criterion hypotheses not established")

    verdicts: list[FaceVerdict] = []
    for idx, row in enumerate(face_weight_report(diagram)):  # top faces lead diagram.faces
        ws = row.sorted_weights
        lower = ws[:n]
        coincide = all(w == lower[0] for w in lower)
        sing_dim: int | None = None
        dim_ok: bool | None = None
        if nnd.statuses[idx] != "nondegenerate":
            status, evidence = "unchecked", f"face nondegeneracy is {nnd.statuses[idx]}"
        elif n == 2:
            dim_ok, evidence = True, "dimension condition automatic for surface germs"
        else:
            try:
                sing_dim = variety_dimension(singular_locus_ideal([face_restriction(f, row.face)]), budget)
                dim_ok = Fraction(sing_dim) < Fraction(n + 3, 2)
                evidence = f"dim Sing V(f_sigma) = {sing_dim}, bound {Fraction(n + 3, 2)}"
            except BudgetExhausted as exc:
                status, evidence = "unchecked", str(exc)
        if dim_ok and not coincide:
            status = "certificate"
            evidence += f"; lower {n} weights {tuple(str(w) for w in lower)} differ"
        elif dim_ok is not None:
            status = "silent"
            evidence += "; lower weights coincide" if coincide else "; dimension condition fails"
        verdicts.append(
            FaceVerdict(idx, ws, sing_dim, dim_ok, coincide, status == "certificate", status, evidence)
        )
    return NewtonAnalysis(diagram, nnd, applicable, verdicts, notes)
