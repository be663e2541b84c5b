"""Buchberger engine over Q(i): global bases, dimensions, saturation, and
local standard bases via homogenization; Milnor numbers on top, from a
global basis of the weighted initial form's Jacobian ideal when that form
is isolated (semi-quasihomogeneous germs), else from the local standard
basis.

Design points, fixed by the package contract:

* deterministic: the pair queue is a heap keyed by ``(deg lcm, i, j)``,
  so it pops the least lcm total degree and breaks a degree tie by pair
  index, not by the monomial order (this is not the normal strategy);
  output bases are interreduced, monic, and sorted by descending leading
  monomial, so identical inputs give identical bases, always;
* both classical Buchberger criteria (coprime leading monomials; chain
  criterion, over the k already paired with both i and j) precede reduction;
* each basis element's leading data is found once, when it joins the basis
  (or is interreduced), and ``division`` reads it from there, reducing by
  the first head that divides, in list order; order keys are memoized on
  the :class:`MonomialOrder` itself;
* every long-running loop draws from the step budget its caller passes
  (no function here makes one of its own) and raises
  :class:`BudgetExhausted` instead of spinning - callers convert that into an
  "undetermined" report entry, never into a silent wrong answer.  Each basis
  or staircase count opens a :meth:`Budget.stage`; the outermost open one
  names the exhaustion, and a spent budget stays at ``limit + 1`` steps;
* local (anti-graded) leading data comes from bases computed on the
  h-homogenized side with a global order whose leading terms dehomogenize to
  the local ones; returned local bases are minimal and monic but their tails
  are not normal-formed (termination of local division is not needed anywhere:
  consumers only read leading terms).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add, ge, sub

from germlab.orders import (
    MonomialOrder,
    eliminate_last,
    grevlex,
    homogenized_local,
    local_antigraded,
)
from germlab.poly import Monomial, Poly, mono_coprime, mono_div, mono_lcm, mono_mul
from germlab.qi import QI

DEFAULT_BUDGET = 10 ** 6


class BudgetExhausted(RuntimeError):
    """Raised when an exact computation hits its step budget."""

    def __init__(self, context: str, used: int):
        super().__init__(f"budget exhausted during {context} (steps used: {used})")
        self.context = context
        self.used = used


class Budget:
    """A mutable step counter shared across one run (the CLI builds one per
    command, and every exact function charges the one it is given).

    Once a charge takes ``used`` past ``limit``, ``used`` stays at
    ``limit + 1`` and every charge raises :class:`BudgetExhausted` with that
    count, named after the outermost open :meth:`stage` ("computation" when
    none is open)."""

    __slots__ = ("limit", "used", "_stage")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0
        self._stage: str | None = None

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            self.used = self.limit + 1
            raise BudgetExhausted(self._stage or "computation", self.used)

    @contextmanager
    def stage(self, label: str):
        """Charges inside the block name ``label`` when they run out, unless
        an enclosing stage already names them."""
        outer = self._stage
        self._stage = outer or label
        try:
            yield
        finally:
            self._stage = outer


@dataclass
class GroebnerBasis:
    generators: list[Poly]
    order: MonomialOrder
    stats: dict = field(default_factory=dict)

    def leading_monomials(self) -> list[Monomial]:
        return [leading_monomial(g, self.order) for g in self.generators]

    def is_unit_ideal(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant() and bool(self.generators[0])


def leading_monomial(f: Poly, order: MonomialOrder) -> Monomial:
    if f.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(f.terms, key=order.key)


def leading_term(f: Poly, order: MonomialOrder) -> tuple[Monomial, QI]:
    m = leading_monomial(f, order)
    return m, f.terms[m]


def make_monic(f: Poly, order: MonomialOrder) -> Poly:
    _, c = leading_term(f, order)
    if c == QI.one():
        return f
    return f.scale(c.inverse())


def _head(d: Poly, order: MonomialOrder) -> tuple[Monomial, QI, list[tuple[Monomial, QI]]]:
    """Leading monomial, negated inverse leading coefficient and tail of d."""
    dm, dc = leading_term(d, order)
    return dm, -dc.inverse(), [t for t in d.terms.items() if t[0] != dm]


def division(
    f: Poly,
    divisors: list[Poly],
    order: MonomialOrder,
    budget: Budget,
    *,
    heads: list[tuple],
) -> Poly:
    """Multivariate division: the remainder r of f = sum q_k * divisors[k] + r,
    no term of r divisible by any divisor's leading monomial.  Each step
    reduces by the first divisor, in list order, whose leading monomial
    divides, so the outcome is deterministic.  Requires a global order.

    Reduces in place on a copy of f's term dict (subtracting c*x^q times the
    divisor's tail, deleting cancelled terms) and builds one Poly at the end.
    ``heads`` holds ``_head`` of each divisor: ``buchberger`` and
    ``_interreduce`` keep them from the moment an element joins the basis,
    and ``normal_form`` finds them once per call.  Keys come from the order's
    memo, and each reduction or remainder step charges one budget step."""
    if not order.is_global:
        raise ValueError("division requires a global monomial order")
    key = order.key
    remainder_terms: dict[Monomial, QI] = {}
    work = dict(f.terms)
    while work:
        budget.charge()
        wm = max(work, key=key)
        wc = work.pop(wm)
        for dm, neg_inv, tail in heads:
            if all(map(ge, wm, dm)):
                q = tuple(map(sub, wm, dm))
                t = wc * neg_inv
                for m, c in tail:
                    m = tuple(map(add, m, q))
                    prev = work.get(m)
                    if prev is None:
                        work[m] = t * c  # nonzero: a product of nonzeros
                    elif v := prev + t * c:
                        work[m] = v
                    else:
                        del work[m]
                break
        else:
            remainder_terms[wm] = wc
    return Poly(f.nvars, remainder_terms)


def normal_form(f: Poly, basis: list[Poly], order: MonomialOrder, budget: Budget) -> Poly:
    return division(f, basis, order, budget, heads=[_head(g, order) for g in basis])


def s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """x^(l-a)/lc(f) * f - x^(l-b)/lc(g) * g, l = lcm(a, b) of the leading
    monomials, as one term dict of the two tails (the heads cancel unformed)."""
    (fm, fc), (gm, gc) = leading_term(f, order), leading_term(g, order)
    lcm = mono_lcm(fm, gm)
    qf, qg, f_inv, g_neg_inv = mono_div(lcm, fm), mono_div(lcm, gm), fc.inverse(), -gc.inverse()
    terms = {mono_mul(m, qf): f_inv * c for m, c in f.terms.items() if m != fm}
    for m, c in g.terms.items():
        if m != gm:
            m = mono_mul(m, qg)
            prev = terms.get(m)
            terms[m] = g_neg_inv * c if prev is None else prev + g_neg_inv * c
    return Poly(f.nvars, terms)


def buchberger(gens: list[Poly], order: MonomialOrder, budget: Budget) -> GroebnerBasis:
    """Buchberger with both classical criteria, popping pairs by
    ``(deg lcm, i, j)``: a degree tie goes to the pair index, not the order.
    ``partners[i]`` holds the k whose pair with i has been popped, so the
    chain criterion for (i, j) tests only ``partners[i] & partners[j]``.

    Returns the reduced basis: interreduced, monic, generators sorted by
    descending leading monomial.  The unit ideal comes back as ``[1]``."""
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

    heads = [_head(g, order) for g in basis]
    lt = [h[0] for h in heads]
    pairs = [(sum(map(max, lt[i], lt[j])), i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    partners: list[set[int]] = [set() for _ in basis]

    with budget.stage("buchberger"):
        while pairs:
            _, i, j = heappop(pairs)
            partners[i].add(j)
            partners[j].add(i)
            if mono_coprime(lt[i], lt[j]):
                stats["skip_coprime"] += 1
                continue
            lcm_ij = mono_lcm(lt[i], lt[j])
            for k in partners[i] & partners[j]:  # the chain criterion
                if all(map(ge, lcm_ij, lt[k])):
                    break
            else:
                k = None
            if k is not None:
                stats["skip_chain"] += 1
                continue
            budget.charge()
            stats["s_pairs"] += 1
            s = s_polynomial(basis[i], basis[j], order)
            r = division(s, basis, order, budget, heads=heads)
            if r.is_zero():
                stats["reductions_to_zero"] += 1
                continue
            if r.is_constant():
                return GroebnerBasis([one], order, stats)
            r = make_monic(r, order)
            basis.append(r)
            heads.append(_head(r, order))
            lt.append(heads[-1][0])
            partners.append(set())
            new = len(basis) - 1
            for k in range(new):
                heappush(pairs, (sum(map(max, lt[k], lt[new])), k, new))

        reduced = _interreduce(_minimalize(basis, lt, order), order, budget)
    reduced.sort(key=lambda g: order.key(leading_monomial(g, order)), reverse=True)
    return GroebnerBasis(reduced, order, stats)


def _minimalize(basis: list[Poly], lt: list[Monomial], order: MonomialOrder) -> list[Poly]:
    # A leading monomial survives iff no surviving leading monomial divides
    # it; processing divisors before their multiples (increasing under a
    # global order, decreasing under a local one) keeps the minimal ones.
    lts_sorted = sorted(zip(lt, basis), key=lambda t: order.key(t[0]), reverse=not order.is_global)
    survivors: list[tuple[Monomial, Poly]] = []
    for m, g in lts_sorted:
        if not any(all(map(ge, m, sm)) for sm, _ in survivors):
            survivors.append((m, g))
    return [g for _, g in survivors]


def _interreduce(basis: list[Poly], order: MonomialOrder, budget: Budget) -> list[Poly]:
    # Elements arrive monic; each is reduced by all the others, and its head
    # entry is replaced so later divisions by it read the reduced tail.
    out = list(basis)
    heads = [_head(g, order) for g in out]
    for k in range(len(out) if len(out) > 1 else 0):
        r = division(out[k], out[:k] + out[k + 1:], order, budget, heads=heads[:k] + heads[k + 1:])
        if r:  # never zero on a minimal basis, but keep the guard honest
            out[k] = make_monic(r, order)
            heads[k] = _head(out[k], order)
    return out


def is_groebner_basis(basis: list[Poly], order: MonomialOrder, budget: Budget) -> bool:
    """Audit: every S-polynomial of basis pairs reduces to zero."""
    for i, j in combinations(range(len(basis)), 2):
        s = s_polynomial(basis[i], basis[j], order)
        if not normal_form(s, basis, order, budget).is_zero():
            return False
    return True


def ideal_membership(f: Poly, gb: GroebnerBasis, budget: Budget) -> bool:
    """f in the ideal iff its normal form vanishes (global bases only)."""
    if not gb.order.is_global:
        raise ValueError("membership is implemented for global bases only")
    if f.is_zero():
        return True
    return normal_form(f, gb.generators, gb.order, budget).is_zero()


# ---------------------------------------------------------------------------
# combinatorial dimension theory on leading ideals


def krull_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of R/I from the leading ideal: the maximal size of a
    variable subset S such that no leading monomial has support inside S.

    Computed as nvars minus a minimum hitting set of the leading supports
    (branch and bound).  -1 for the unit ideal.  The test suite cross-checks
    against an exhaustive subset oracle on monomial ideals."""
    if gb.is_unit_ideal():
        return -1
    nvars = gb.order.nvars
    supports = sorted(
        {frozenset(j for j, e in enumerate(m) if e) for m in gb.leading_monomials()},
        key=lambda s: (len(s), sorted(s)),
    )
    if any(not s for s in supports):
        return -1  # a unit leading term
    # prune supports that contain another support (hitting the smaller one
    # hits the larger one for free)
    minimal: list[frozenset] = []
    for s in supports:
        if not any(t <= s for t in minimal):
            minimal.append(s)
    if not minimal:
        return nvars

    best = nvars + 1

    def branch(remaining: tuple[frozenset, ...], chosen: int) -> None:
        nonlocal best
        if chosen >= best:
            return
        if not remaining:
            best = chosen
            return
        pivot = min(remaining, key=lambda s: (len(s), sorted(s)))
        for var in sorted(pivot):
            rest = tuple(s for s in remaining if var not in s)
            branch(rest, chosen + 1)

    branch(tuple(minimal), 0)
    return nvars - best


def quotient_dimension(gb: GroebnerBasis, budget: Budget) -> int | None:
    """Number of standard monomials (the staircase) of the leading ideal, or
    None when infinite.  Finite iff the leading ideal contains a pure power of
    every variable; that test decides both the global and the local case."""
    if gb.is_unit_ideal():
        return 0
    nvars = gb.order.nvars
    lts = gb.leading_monomials()
    for j in range(nvars):
        if not any(all(e == 0 for k, e in enumerate(m) if k != j) and m[j] > 0 for m in lts):
            return None
    count = 0
    seen: set[Monomial] = set()
    stack: list[Monomial] = [(0,) * nvars]
    with budget.stage("staircase count"):
        while stack:
            mono = stack.pop()
            if mono in seen:
                continue
            seen.add(mono)
            if any(all(map(ge, mono, lm)) for lm in lts):
                continue
            budget.charge()
            count += 1
            for j in range(nvars):
                stack.append(mono[:j] + (mono[j] + 1,) + mono[j + 1:])
    return count


# ---------------------------------------------------------------------------
# saturation by elimination


def saturation(gens: list[Poly], g: Poly, budget: Budget) -> GroebnerBasis:
    """Groebner basis (grevlex) of the saturation (gens) : g^infinity, via the
    extra-variable trick: eliminate t from gens + (1 - t*g)."""
    if g.is_zero():
        raise ValueError("cannot saturate by zero")
    nvars = gens[0].nvars
    ext = [f.insert_variable(nvars) for f in gens]
    g_ext = g.insert_variable(nvars)
    t = Poly.variable(nvars + 1, nvars)
    ext.append(Poly.constant(nvars + 1, 1) - t * g_ext)
    gb = buchberger(ext, eliminate_last(nvars + 1), budget)
    kept = []
    for f in gb.generators:
        if all(m[nvars] == 0 for m in f.terms):
            kept.append(f.substitute_constant(nvars, QI.one()).drop_variable(nvars))
    if not kept:
        raise ValueError("saturation produced no generators; inconsistent input")
    out = grevlex(nvars)
    kept.sort(key=lambda f: out.key(leading_monomial(f, out)), reverse=True)
    return GroebnerBasis(kept, out, dict(gb.stats))


# ---------------------------------------------------------------------------
# determinants and minors


def determinant(matrix: list[list[Poly]]) -> Poly:
    """Exact determinant by cofactor expansion along the first row."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].nvars
    if size == 1:
        return matrix[0][0]
    total = Poly.zero(nvars)
    for c in range(size):
        entry = matrix[0][c]
        if entry.is_zero():
            continue
        sub = [[row[k] for k in range(size) if k != c] for row in matrix[1:]]
        cofactor = entry * determinant(sub)
        total = total + (cofactor if c % 2 == 0 else -cofactor)
    return total


def minors(matrix: list[list[Poly]], size: int) -> list[Poly]:
    """All size x size minors, row/column subsets in lexicographic order.
    Zero minors are kept out; an empty list means no such minors exist."""
    if not matrix:
        return []
    nrows, ncols = len(matrix), len(matrix[0])
    if size > nrows or size > ncols:
        return []
    out: list[Poly] = []
    for rows in combinations(range(nrows), size):
        for cols in combinations(range(ncols), size):
            d = determinant([[matrix[r][c] for c in cols] for r in rows])
            if not d.is_zero():
                out.append(d)
    return out


# ---------------------------------------------------------------------------
# local standard bases via homogenization


def homogenize(f: Poly) -> Poly:
    """Total-degree homogenization with a fresh LAST variable."""
    deg = f.total_degree()
    nvars = f.nvars
    acc = {}
    for m, c in f.terms.items():
        acc[m + (deg - sum(m),)] = c
    return Poly(nvars + 1, acc)


def dehomogenize(f: Poly) -> Poly:
    return f.substitute_constant(f.nvars - 1, QI.one()).drop_variable(f.nvars - 1)


def local_standard_basis(gens: list[Poly], budget: Budget) -> GroebnerBasis:
    """Standard basis of the ideal in the localization at the origin, with
    respect to the anti-graded revlex order.

    Route: homogenize the generators with a fresh variable, run Buchberger in
    the global homogenized order (whose leading terms dehomogenize to the
    local ones), set the new variable to 1, and minimalize.  Units
    short-circuit to the unit ideal.  The returned basis is minimal and monic;
    tails are NOT normal-formed (reduced normal forms under a local order
    would need Mora division, and nothing downstream reads tails)."""
    if not gens:
        raise ValueError("empty generator list")
    nvars = gens[0].nvars
    local = local_antigraded(nvars)
    if any(not f.constant_term().is_zero() for f in gens):
        return GroebnerBasis([Poly.constant(nvars, 1)], local, {"unit": True})
    with budget.stage("local standard basis"):
        gb = buchberger([homogenize(f) for f in gens], homogenized_local(nvars + 1), budget)
    deh = [dehomogenize(f) for f in gb.generators]
    lts = [leading_monomial(f, local) for f in deh]
    result = [make_monic(g, local) for g in _minimalize(deh, lts, local)]
    result.sort(key=lambda f: local.key(leading_monomial(f, local)), reverse=True)
    return GroebnerBasis(result, local, dict(gb.stats))


def milnor_number(f: Poly, budget: Budget) -> int | None:
    """Milnor number of a hypersurface germ: the local quotient dimension of
    the Jacobian ideal.  None means the singularity is not isolated.

    Certificate first: when every variable x_j has a pure power in f, let
    a_j be the smallest, w_j = 1/a_j, and f_o the part of f of minimal
    w-degree d.  The Jacobian ideal J_o of f_o is w-homogeneous for positive
    weights, so V(J_o) is C*-stable; a finite global (grevlex) colength
    therefore means V(J_o) = {0}, and then it is the local one, mu(f_o).
    As f - f_o has w-order > d, mu(f) = mu(f_o) (Arnold, semi-quasihomogeneous
    germs).  Otherwise the local standard basis of J(f) decides, on the same
    budget; running out inside the certificate names "weighted initial form"."""
    if f.is_zero():
        raise ValueError("zero polynomial has no Milnor number")
    if not f.constant_term().is_zero():
        raise ValueError("germ must vanish at the origin")
    partials = [f.partial(j) for j in range(f.nvars)]
    if all(p.is_zero() for p in partials):
        return None
    exponents = [min((m[j] for m in f.terms if m[j] == sum(m)), default=0) for j in range(f.nvars)]
    if all(exponents):
        f_o = f.split_by_weight([Fraction(1, a) for a in exponents])[0]
        with budget.stage("weighted initial form"):
            gb = buchberger([f_o.partial(j) for j in range(f.nvars)], grevlex(f.nvars), budget)
            mu = quotient_dimension(gb, budget)
        if mu is not None:
            return mu
    basis = local_standard_basis(partials, budget)
    return quotient_dimension(basis, budget)
