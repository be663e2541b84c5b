"""Exact linear algebra for weight inference, Newton facet normals, the
torus slice and Jacobian singular loci.  ``maximal_minors`` is the one
source of determinants, over the integers and over Q(i)[x] alike; ``rank``,
``pivot_columns`` and ``nullspace`` each read one fraction-free (Bareiss)
elimination, whose every entry is a minor of the input: no ``Fraction``."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence


def maximal_minors(rows: Sequence[Sequence], ncols: int, one) -> dict[tuple[int, ...], object]:
    """The k x k minors of a k x ncols matrix over a commutative ring, keyed
    by column subset in lexicographic order; ``one`` is the ring's unit, the
    one minor of a matrix with no rows.

    One bottom-up Laplace pass: the last row's 1 x 1 minors are its entries,
    and the minors of the last j rows expand along their first row into the
    minors of the last j - 1 rows, so each sub-minor is computed once.  Zero
    entries and zero sub-minors add no term."""
    if not rows:
        return {(): one}
    zero, minors = one - one, {(c,): x for c, x in enumerate(rows[-1])}
    for j, row in enumerate(reversed(rows[:-1]), 2):
        below, minors = minors, {}
        for cols in combinations(range(ncols), j):
            total = zero
            for p, c in enumerate(cols):
                sub = below[cols[:p] + cols[p + 1:]]
                if row[c] and sub:
                    total = total - row[c] * sub if p % 2 else total + row[c] * sub
            minors[cols] = total
    return minors


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward elimination of an integer matrix.

    Returns (echelon, pivots, d): the nonzero rows of a row echelon form of
    the input, their pivot columns, and d, the last pivot, which is a
    maximal nonzero minor of the input up to sign.  After each step every
    entry is a minor of the input (Sylvester's identity), so the division by
    the previous pivot is exact."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots: list[int] = []
    prev, r = 1, 0
    for c in range(len(mat[0]) if mat else 0):
        if r == nrows:
            break
        piv = next((k for k in range(r, nrows) if mat[k][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top, p = mat[r], mat[r][c]
        for k in range(r + 1, nrows):
            a = mat[k][c]
            mat[k] = [(x * p - a * y) // prev for x, y in zip(mat[k], top)]
        pivots.append(c)
        prev = p
        r += 1
    return mat[:r], pivots, prev


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of integer rows (0 when there are none)."""
    return len(_bareiss(rows)[1])


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
