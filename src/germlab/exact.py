"""Small exact linear algebra over Fraction, used by weight inference and
Newton-polyhedron normal computations.  Everything here is deterministic and
allocation-light; matrices are lists of lists of Fractions."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of rational row vectors (0 when there are none)."""
    return len(rref([[Fraction(x) for x in r] for r in rows])[1])


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right null space {v : M v = 0}, one vector per free column."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def primitive_integer_vector(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers (orientation preserved).

    The zero vector maps to itself."""
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        return [0] * len(fracs)
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    return [v // g for v in ints]
