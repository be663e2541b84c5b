"""Exact linear algebra over the integers for weight inference, Newton
facet normals and the torus slice.  ``rank``, ``integer_determinant``,
``pivot_columns`` and ``nullspace`` each read one fraction-free (Bareiss)
elimination, whose every entry is a minor of the input: no ``Fraction``."""

from __future__ import annotations

from typing import Sequence


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward elimination of an integer matrix.

    Returns (echelon, pivots, d): the nonzero rows of a row echelon form of
    the input, their pivot columns, and d, the last pivot with the sign of
    the row swaps; for a square matrix of full rank d is its determinant.
    After each step every entry is a minor of the input (Sylvester's
    identity), so the division by the previous pivot is exact."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots: list[int] = []
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
        pivots.append(c)
        prev = p
        r += 1
    return mat[:r], pivots, sign * prev


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows (0 when there are none)."""
    return len(_bareiss(rows)[1])


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (1 for the empty matrix)."""
    _, pivots, d = _bareiss(rows)
    return d if len(pivots) == len(rows) else 0


def pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """The pivot columns of the row echelon form of integer rows, ascending:
    the first column, from the left, that each rank step adds."""
    return _bareiss(rows)[1]


def nullspace(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the right null space {v : M v = 0}, one vector per
    free column: positive on its free column and 0 on the others.

    Each vector is |d| times the one of the reduced echelon form, d the last
    pivot: by Cramer's rule |d| clears every denominator of that vector, so
    the back substitution divides exactly."""
    echelon, pivots, d = _bareiss(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = abs(d)
        for row, pc in zip(reversed(echelon), reversed(pivots)):
            v[pc] = -sum(row[j] * v[j] for j in range(pc + 1, ncols)) // row[pc]
        basis.append(v)
    return basis
