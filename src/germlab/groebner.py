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
  criterion, over the k already paired with both i and j) precede reduction,
  and ``division`` reduces by the first head that divides, in list order;
* packed monomials: from entry to exit, Buchberger, division and the
  staircase count hold a monomial as one int (:class:`_Packing`), so that
  products, leading terms and divisibility are int operations.  Fields fit
  the input's largest exponent (at least 8 bits); a term that outgrows them
  reruns the call on wider fields from the steps used on entry;
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
from heapq import heappop, heappush
from itertools import combinations
from operator import itemgetter, mul

from germlab.orders import (
    MonomialOrder,
    eliminate_last,
    grevlex,
    homogenized_local,
    local_antigraded,
)
from germlab.poly import Monomial, Poly
from germlab.qi import QI, _add_product

DEFAULT_BUDGET = 10 ** 6
_ONE = QI.one()


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


class _Overflow(Exception):
    """A packed exponent reached its field's guard bit."""


class _Packing:
    """Monomial a as the int K(a) << EB | E(a): E holds each a_j in ``width``
    bits under a guard bit kept clear, K the order's row values r·a, first
    row highest, in fields that fit them while the guards are clear.  So
    ints compare as the order does, a product is a sum, b divides a iff
    ((a | G) - b) & G == G for G the guards, and a set guard is an overflow.
    With no rows, a monomial is E(a)."""

    __slots__ = ("nvars", "cols", "shifts", "mask", "guard")

    def __init__(self, nvars: int, width: int, rows: tuple[tuple[int, ...], ...]):
        self.nvars, self.shifts = nvars, range(0, nvars * (width + 1), width + 1)
        self.mask, self.guard = (1 << width) - 1, sum(1 << (s + width) for s in self.shifts)
        cols, shift = [1 << s for s in self.shifts], nvars * (width + 1)
        for row in reversed(rows):
            cols = [c + (r << shift) for c, r in zip(cols, row)]
            shift += (sum(row) << width).bit_length()
        self.cols = cols  # the packed variables: pack is linear

    def pack(self, mono) -> int:
        return sum(map(mul, mono, self.cols))

    def unpack(self, z: int) -> Monomial:
        return tuple([(z >> s) & self.mask for s in self.shifts])

    def terms(self, f: Poly) -> dict[int, QI]:
        return {self.pack(m): c for m, c in f.terms.items()}

    def poly(self, terms: dict[int, QI]) -> Poly:
        return Poly(self.nvars, {self.unpack(z): c for z, c in terms.items()})


def _packed(order: MonomialOrder, budget: Budget, polys: list[Poly], run):
    """run(packing) on fields fitting every exponent in polys (at least 8
    bits), rerun on fields twice as wide, from the steps used on entry, if a
    term overflows."""
    used = budget.used
    width = max(8, max((e for f in polys for m in f.terms for e in m), default=0).bit_length())
    while True:
        try:
            return run(_Packing(order.nvars, width, order.rows))
        except _Overflow:
            budget.used = used
            width *= 2


def _monic(terms: dict[int, QI]) -> tuple[int, list[tuple[int, QI]]]:
    """(leading monomial, tail) of the terms scaled to lc 1."""
    z = max(terms)
    c = terms.pop(z)
    if c == _ONE:
        return z, list(terms.items())
    inv = c.inverse()
    return z, [(m, inv * v) for m, v in terms.items()]


def _s_polynomial(hf: tuple, hg: tuple, lcm: int, guard: int) -> dict[int, QI]:
    """x^(l-a) f - x^(l-b) g for monic f, g of heads a, b, l = lcm(a, b)."""
    qf, qg = lcm - hf[0], lcm - hg[0]
    terms = {m + qf: c for m, c in hf[1]}
    if any(m & guard for m in terms):
        raise _Overflow
    for m, c in hg[1]:
        m += qg
        if m & guard:
            raise _Overflow
        if (prev := terms.get(m)) is None:
            terms[m] = -c
        elif v := prev + -c:
            terms[m] = v
        else:
            del terms[m]
    return terms


def division(work: dict[int, QI], heads: list[tuple], budget: Budget, guard: int) -> dict[int, QI]:
    """The remainder of f, whose terms ``work`` holds and loses, by the monic
    divisors with these heads (leading monomial, tail).  Each step charges
    one budget step and reduces by the first head, in list order, that
    divides, so the outcome is deterministic."""
    remainder = {}
    while work:
        budget.charge()
        wm = max(work)
        wc = work.pop(wm)
        wg = wm | guard
        for dm, tail in heads:
            if (wg - dm) & guard == guard:
                q, t = wm - dm, -wc
                for m, c in tail:
                    m += q
                    if m & guard:
                        raise _Overflow
                    if v := _add_product(work.get(m), t, c):  # zero only if m was there
                        work[m] = v
                    else:
                        del work[m]
                break
        else:
            remainder[wm] = wc
    return remainder


def normal_form(f: Poly, basis: list[Poly], order: MonomialOrder, budget: Budget) -> Poly:
    if not order.is_global:
        raise ValueError("division requires a global monomial order")
    return _packed(order, budget, [f, *basis], lambda packing: packing.poly(
        division(packing.terms(f), [_monic(packing.terms(g)) for g in basis], budget, packing.guard)))


def buchberger(gens: list[Poly], order: MonomialOrder, budget: Budget) -> GroebnerBasis:
    """Buchberger with both classical criteria, popping pairs by
    ``(deg lcm, i, j)``: a degree tie goes to the pair index, not the order.
    ``partners[i]`` holds the k whose pair with i has been popped, so the
    chain criterion for (i, j) tests only ``partners[i] & partners[j]``.

    Returns the reduced basis: interreduced, monic, generators sorted by
    descending leading monomial.  The unit ideal comes back as ``[1]``."""
    if not gens:
        raise ValueError("empty generator list (the zero ideal has no basis here)")
    if not order.is_global:
        raise ValueError("buchberger requires a global order; use local_standard_basis")
    gens = [f for f in gens if not f.is_zero()]
    if not gens:
        raise ValueError("all generators are zero")
    return _packed(order, budget, gens, lambda packing: _buchberger(gens, order, budget, packing))


def _buchberger(gens: list[Poly], order: MonomialOrder, budget: Budget, packing: _Packing) -> GroebnerBasis:
    stats = {"s_pairs": 0, "reductions_to_zero": 0, "skip_coprime": 0, "skip_chain": 0}
    unit = GroebnerBasis([Poly.constant(packing.nvars, 1)], order, stats)
    if any(f.is_constant() for f in gens):
        return unit
    guard, ones = packing.guard, packing.guard >> packing.mask.bit_length()  # ones: each field's low bit
    # per head: its exponents, a guard bit per variable it has, the partners
    heads, lt, support, partners, pairs = [], [], [], [], []

    def join(head: tuple) -> None:
        new = len(heads)
        heads.append(head)
        lt.append(packing.unpack(head[0]))
        support.append(((head[0] | guard) - ones) & guard)
        partners.append(set())
        for k in range(new):
            heappush(pairs, (sum(map(max, lt[k], lt[new])), k, new))

    for f in gens:
        join(_monic(packing.terms(f)))
    with budget.stage("buchberger"):
        while pairs:
            _, i, j = heappop(pairs)
            partners[i].add(j)
            partners[j].add(i)
            if not support[i] & support[j]:
                stats["skip_coprime"] += 1
                continue
            lcm = packing.pack(map(max, lt[i], lt[j]))
            lg = lcm | guard
            for k in partners[i] & partners[j]:  # the chain criterion
                if (lg - heads[k][0]) & guard == guard:
                    stats["skip_chain"] += 1
                    break
            else:
                budget.charge()
                stats["s_pairs"] += 1
                r = division(_s_polynomial(heads[i], heads[j], lcm, guard), heads, budget, guard)
                if not r:
                    stats["reductions_to_zero"] += 1
                elif max(r):
                    join(_monic(r))
                else:
                    return unit

        # keep the minimal leading monomials, then reduce each by the others
        out = _minimal(sorted(heads, key=itemgetter(0)), guard)
        for k in range(len(out) if len(out) > 1 else 0):
            r = division({out[k][0]: _ONE, **dict(out[k][1])}, out[:k] + out[k + 1:], budget, guard)
            if r:  # never zero on a minimal basis, but keep the guard honest
                out[k] = _monic(r)
    out.sort(key=itemgetter(0), reverse=True)
    return GroebnerBasis([packing.poly({z: _ONE, **dict(tail)}) for z, tail in out], order, stats)


def _minimal(items: list[tuple], guard: int) -> list[tuple]:
    """The items (leading monomial, ...), divisors first, no earlier kept one divides."""
    kept: list[tuple] = []
    for item in items:
        g = item[0] | guard
        if not any((g - k[0]) & guard == guard for k in kept):
            kept.append(item)
    return kept


def is_groebner_basis(basis: list[Poly], order: MonomialOrder, budget: Budget) -> bool:
    """Audit: every S-polynomial of basis pairs reduces to zero."""

    def run(packing: _Packing) -> bool:
        heads, guard = [_monic(packing.terms(g)) for g in basis], packing.guard
        lt = [packing.unpack(h[0]) for h in heads]
        spolys = (_s_polynomial(heads[i], heads[j], packing.pack(map(max, lt[i], lt[j])), guard)
                  for i, j in combinations(range(len(heads)), 2))
        return not any(division(s, heads, budget, guard) for s in spolys)

    return _packed(order, budget, basis, run)


def ideal_membership(f: Poly, gb: GroebnerBasis, budget: Budget) -> bool:
    """f in the ideal iff its normal form vanishes (global bases only)."""
    if not gb.order.is_global:
        raise ValueError("membership is implemented for global bases only")
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
    if not all(any(m[j] == sum(m) > 0 for m in lts) for j in range(nvars)):
        return None  # a variable with no pure power
    # standard monomials stay below the pure powers, so no field overflows
    packing = _Packing(nvars, max(map(max, lts)).bit_length(), ())
    walls, guard = [packing.pack(m) for m in lts], packing.guard
    # each monomial is reached once, from itself less its last variable
    count, stack = 0, [(0, 0)]
    with budget.stage("staircase count"):
        while stack:
            mono, last = stack.pop()
            g = mono | guard
            if any((g - w) & guard == guard for w in walls):
                continue
            budget.charge()
            count += 1
            stack.extend([(mono + packing.cols[j], j) for j in range(last, nvars)])
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
    kept = [f.drop_variable(nvars) for f in gb.generators if all(m[nvars] == 0 for m in f.terms)]
    if not kept:
        raise ValueError("saturation produced no generators; inconsistent input")
    # eliminate_last compares t-free heads by grevlex, so kept is in descending order
    return GroebnerBasis(kept, grevlex(nvars), dict(gb.stats))


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
    """Set the last variable to 1 and drop its slot."""
    return Poly.from_terms(f.nvars - 1, ((m[:-1], c) for m, c in f.terms.items()))


def local_standard_basis(gens: list[Poly], budget: Budget) -> GroebnerBasis:
    """Standard basis of the ideal in the localization at the origin, with
    respect to the anti-graded revlex order.

    Route: homogenize the generators with a fresh variable, run Buchberger in
    the global homogenized order (whose leading terms dehomogenize to the
    local ones), set the new variable to 1, and minimalize.  Units
    short-circuit to the unit ideal.  The returned basis is minimal and monic
    (Buchberger's generators are monic and homogeneous, so setting the new
    variable to 1 merges no terms and keeps the leading coefficient);
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
    deh = [(leading_monomial(d, local), d) for d in map(dehomogenize, gb.generators)]
    deh.sort(key=lambda t: local.key(t[0]), reverse=True)  # divisors first, ties kept in place
    packing = _Packing(nvars, max(max(m) for m, _ in deh).bit_length(), ())
    kept = _minimal([(packing.pack(m), d) for m, d in deh], packing.guard)
    return GroebnerBasis([d for _, d in kept], local, dict(gb.stats))


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
