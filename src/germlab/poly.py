"""Sparse multivariate polynomials over Q(i), exact.

Monomials are plain ``tuple[int, ...]`` exponent vectors of a fixed length
``nvars``; a polynomial is an immutable-by-convention wrapper around a dict
``{monomial: QI}`` with no zero coefficients.  Term dicts are rebuilt in a
canonical (descending tuple) order on construction so that every iteration in
the package is deterministic.

Weighted structure: for a positive rational weight vector ω, the weighted
order of f is min over monomials of ⟨ω, a⟩ (None for f = 0, read as +∞), and
the weighted part at degree d collects the monomials with ⟨ω, a⟩ = d.

The module is exact and loads numpy only when a numeric entry point is first
called: :meth:`NumericEvaluator.rows`, the package's one numeric evaluation,
or :func:`_stacked_lstsq`, its one least-squares call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import add
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from germlab.exact import nullspace, pivot_columns
from germlab.qi import QI, _add_product

if TYPE_CHECKING:
    import numpy as np

Monomial = tuple[int, ...]
Weights = Sequence[Fraction]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_weighted_degree(a: Monomial, weights: Weights) -> Fraction:
    return sum((w * e for w, e in zip(weights, a)), Fraction(0))


class Poly:
    """A sparse polynomial with QI coefficients and a fixed variable count."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, QI] | None = None):
        clean: dict[Monomial, QI] = {}
        if terms:
            for mono in sorted(terms, reverse=True):
                c = terms[mono]
                if len(mono) != nvars:
                    raise ValueError("monomial length does not match nvars")
                if not c.is_zero():
                    clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly values are immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: QI | int | Fraction) -> "Poly":
        return cls(nvars, {(0,) * nvars: QI.coerce(c)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The ``index``-th variable (0-based) as a polynomial."""
        mono = tuple(int(j == index) for j in range(nvars))
        return cls(nvars, {mono: QI.one()})

    @classmethod
    def from_terms(cls, nvars: int, pairs: Iterable[tuple[Monomial, QI]]) -> "Poly":
        acc: dict[Monomial, QI] = {}
        for mono, c in pairs:
            prev = acc.get(mono)
            acc[mono] = c if prev is None else prev + c
        return cls(nvars, acc)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_term(self) -> QI:
        return self.terms.get((0,) * self.nvars, QI.zero())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly.from_terms(self.nvars, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        acc: dict[Monomial, QI] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                acc[mono] = _add_product(acc.get(mono), c1, c2)
        return Poly(self.nvars, acc)

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    # -- calculus ------------------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to variable ``index``."""
        acc: dict[Monomial, QI] = {}
        for mono, c in self.terms.items():
            e = mono[index]
            if e == 0:
                continue
            lowered = mono[:index] + (e - 1,) + mono[index + 1:]
            contrib = c * e
            prev = acc.get(lowered)
            acc[lowered] = contrib if prev is None else prev + contrib
        return Poly(self.nvars, acc)

    # -- degrees and weighted structure --------------------------------

    def total_degree(self) -> int:
        """Maximal total degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def weighted_order(self, weights: Weights) -> Fraction | None:
        """min ⟨ω, a⟩ over the support; None (+infinity) for the zero poly."""
        if not self.terms:
            return None
        return min(mono_weighted_degree(m, weights) for m in self.terms)

    def split_by_weight(self, weights: Weights) -> tuple["Poly", "Poly"]:
        """Split into (principal, higher): the part at the minimal weighted
        degree, and everything strictly above it.  The zero polynomial has
        no minimal order and is rejected."""
        if not self.terms:
            raise ValueError("cannot split the zero polynomial by weight")
        d = self.weighted_order(weights)
        principal: dict[Monomial, QI] = {}
        higher: dict[Monomial, QI] = {}
        for m, c in self.terms.items():
            (principal if mono_weighted_degree(m, weights) == d else higher)[m] = c
        return Poly(self.nvars, principal), Poly(self.nvars, higher)

    def is_weighted_homogeneous(self, weights: Weights) -> bool:
        if not self.terms:
            return True
        degs = {mono_weighted_degree(m, weights) for m in self.terms}
        return len(degs) == 1

    # -- variable plumbing ---------------------------------------------

    def drop_variable(self, index: int) -> "Poly":
        """Remove a variable slot that no term uses."""
        acc: dict[Monomial, QI] = {}
        for mono, c in self.terms.items():
            if mono[index] != 0:
                raise ValueError("variable still occurs")
            acc[mono[:index] + mono[index + 1:]] = c
        return Poly(self.nvars - 1, acc)

    def insert_variable(self, index: int) -> "Poly":
        """Add a fresh unused variable slot at position ``index``."""
        acc = {m[:index] + (0,) + m[index:]: c for m, c in self.terms.items()}
        return Poly(self.nvars + 1, acc)

    def permute_variables(self, perm: Sequence[int]) -> "Poly":
        """Reindex variables: new exponent j comes from old position perm[j]."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation")
        acc = {tuple(m[p] for p in perm): c for m, c in self.terms.items()}
        return Poly(self.nvars, acc)

    # -- evaluation ----------------------------------------------------

    def evaluate_numeric(self, point: Sequence[complex]) -> complex:
        """Reference numeric evaluation (term-by-term Horner-free sum).

        Deliberately simple and independent of :class:`NumericEvaluator`, the
        compiled path of the numeric foliation layer and the Newton torus
        search; the tests check :meth:`NumericEvaluator.rows` against it, row
        by row, bit for bit."""
        total = 0j
        for mono, c in self.terms.items():
            v = c.to_complex()
            for e, x in zip(mono, point):
                if e:
                    v *= x ** e
            total += v
        return total

    def __repr__(self) -> str:
        from germlab.parse import poly_to_string

        names = [f"x{j+1}" for j in range(self.nvars)]
        return f"Poly({poly_to_string(self, names)})"


def jacobian(polys: Sequence[Poly]) -> list[list[Poly]]:
    """Jacobian matrix: rows follow the input order, columns the variables.

    Satisfies the product rule by construction; the property-test suite checks
    jacobian(f*g) = f*jacobian(g) + g*jacobian(f) on random inputs.
    """
    if not polys:
        return []
    nvars = polys[0].nvars
    return [[f.partial(j) for j in range(nvars)] for f in polys]


def _to_complex(c: QI) -> complex:
    try:
        return c.to_complex()
    except OverflowError:
        raise ValueError(f"coefficient {c} is too large for a float") from None


class NumericEvaluator:
    """A list of polynomials compiled once for repeated numeric evaluation.

    Each coefficient is converted to ``complex`` once and each term keeps its
    nonzero (variable, exponent) pairs only.  :meth:`rows` is the one entry
    point: it evaluates at a block of points and matches
    :meth:`Poly.evaluate_numeric` on each row bit for bit.  A coefficient past
    the float range raises ValueError naming it."""

    __slots__ = ("polys", "powers")

    def __init__(self, polys: Sequence[Poly]):
        self.polys = [
            [(_to_complex(c), [(j, e) for j, e in enumerate(mono) if e]) for mono, c in f.terms.items()]
            for f in polys
        ]
        # the distinct (variable, exponent) pairs, in order of first use
        self.powers = list(dict.fromkeys(key for terms in self.polys for _, pairs in terms for key in pairs))

    def rows(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (m, nvars) complex array, bit for bit as
        :meth:`Poly.evaluate_numeric` on that row's numpy scalars (Python's,
        from ``tolist()``, take powers that overflow differently): products on
        split real and imaginary arrays, ``(ar*br - ai*bi, ar*bi + ai*br)`` as
        the scalar does (numpy's complex array multiply may fuse them), and
        powers by numpy's complex ``np.power``, the scalar's npy_cpow."""
        import numpy as np

        points = np.asarray(points, dtype=complex)
        out = np.zeros((len(points), len(self.polys)), dtype=complex)
        powers = {(j, e): np.power(points[:, j], e) for j, e in self.powers}
        for k, terms in enumerate(self.polys):
            for c, pairs in terms:
                ar, ai = c.real, c.imag
                for key in pairs:
                    br, bi = powers[key].real, powers[key].imag
                    ar, ai = ar * br - ai * bi, ar * bi + ai * br
                out.real[:, k] += ar
                out.imag[:, k] += ai
        return out


def jacobian_evaluator(polys: Sequence[Poly]) -> NumericEvaluator:
    """The compiled :func:`jacobian` of ``polys``, flattened row by row."""
    return NumericEvaluator([d for row in jacobian(polys) for d in row])


def _stacked_lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.lstsq(a[i], b[i], rcond=None)`` for every i, bit for bit,
    in one call of the gufunc that function wraps (the wrapper refuses a
    stack), real or complex as the wrapper picks it; returns the solutions
    and the ranks.  The rcond and the error state are the wrapper's: a row
    whose SVD does not converge raises its LinAlgError.

    A stack with a non-finite entry in ``a`` raises that LinAlgError without
    calling LAPACK, which would fail on it too, but only after printing
    DLASCL's complaint on file descriptor 1, and on some such matrices never
    returns.  A non-finite ``b`` goes to LAPACK: its solution is nan."""
    import numpy as np
    from numpy.linalg import _umath_linalg

    def fail(*_):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    if not np.isfinite(a).all():
        fail()
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    signature = "DDd->Ddid" if np.iscomplexobj(a) or np.iscomplexobj(b) else "ddd->ddid"
    with np.errstate(call=fail, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, _, rank, _ = _umath_linalg.lstsq(a, b[..., np.newaxis], rcond, signature=signature)
    return x[..., 0], rank


@dataclass(frozen=True)
class WeightInference:
    """Outcome of weight inference on a claimed weighted-homogeneous system:
    ``status`` is "unique" (with ``weights``), "underdetermined" (with the
    ``free_variables`` the caller must weigh) or "not_weighted_homogeneous"."""

    status: str
    weights: list[Fraction] | None = None
    free_variables: list[str] = field(default_factory=list)


def infer_weights(polys: Sequence[Poly], variable_names: Sequence[str]) -> WeightInference:
    """Solve ⟨ω, a⟩ = p_i over all supports for positive rational weights.

    Per equation the unknown degree p_i is eliminated by differencing all
    exponents against a base monomial, leaving a homogeneous integer linear
    system in ω alone, solved by the fraction-free elimination of
    :mod:`germlab.exact`.  Outcomes:

    * a 1-dimensional solution space whose spanning vector can be scaled
      positive → "unique", weights normalized so that min_i p_i = 1;
    * solution space of dimension ≥ 2 → "underdetermined" with the non-pivot
      variable names reported (caller must supply weights);
    * only the trivial solution, or a spanning vector that cannot be made
      strictly positive → "not_weighted_homogeneous".
    """
    nvars = polys[0].nvars
    rows: list[list[int]] = []
    bases: list[Monomial] = []
    for f in polys:
        if f.is_zero():
            raise ValueError("cannot infer weights from a zero equation")
        monos = list(f.terms)
        base = monos[0]
        bases.append(base)
        for m in monos[1:]:
            rows.append([m[j] - base[j] for j in range(nvars)])
    basis = nullspace(rows, nvars)
    if not basis:
        return WeightInference("not_weighted_homogeneous")
    if len(basis) > 1:
        # Report the truly undetermined weights: fix the overall scale by
        # pinning the first base monomial to degree 1, then the non-pivot
        # columns are exactly the weights the caller must supply.
        pivots = pivot_columns(rows + [list(bases[0])])
        free = [variable_names[j] for j in range(nvars) if j not in pivots]
        return WeightInference("underdetermined", free_variables=free)
    vec = basis[0]  # positive on its free column
    if any(x <= 0 for x in vec):
        return WeightInference("not_weighted_homogeneous")
    degrees = [mono_weighted_degree(b, vec) for b in bases]
    if any(d <= 0 for d in degrees):
        return WeightInference("not_weighted_homogeneous")
    scale = min(degrees)
    return WeightInference("unique", weights=[x / scale for x in vec])
