"""Small exact linear algebra, used by weight inference and
Newton-polyhedron normal computations.  Everything here is deterministic and
allocation-light.  ``rref`` and ``nullspace`` work on lists of lists of
Fractions; ``rank`` and ``integer_determinant`` eliminate fraction-free
(Bareiss) over the integers, so every intermediate entry is a minor of the
input."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free forward elimination of an integer matrix.

    Returns (rank, d) where d is the last pivot with the sign of the row
    swaps; for a square matrix of full rank d is its determinant.  After
    each step every entry is a minor of the input (Sylvester's identity),
    so the division by the previous pivot is exact."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    sign, prev, r = 1, 1, 0
    for c in range(len(mat[0]) if mat else 0):
        if r == nrows:
            break
        piv = next((k for k in range(r, nrows) if mat[k][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        top, p = mat[r], mat[r][c]
        for k in range(r + 1, nrows):
            a = mat[k][c]
            mat[k] = [(x * p - a * y) // prev for x, y in zip(mat[k], top)]
        prev = p
        r += 1
    return r, sign * prev


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of rows of ints and Fractions (0 when there are none).

    Each row is scaled to integers by the lcm of its denominators first."""
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    return _bareiss(scaled)[0]


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (1 for the empty matrix)."""
    r, d = _bareiss(rows)
    return d if r == len(rows) else 0


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
