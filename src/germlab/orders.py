"""Monomial orders as matrices of integer rows: the key of a monomial a is
(r_1·a, ..., r_k·a), compared lexicographically.  The rows determine a, so
the key is injective, and linear, so products keep comparisons.
``is_global`` tells whether 1 is the minimum (needed for Buchberger to
terminate); a global order's rows are non-negative, so ``groebner`` packs
its key into one int.  The local order (anti-graded revlex) only picks
leading terms and staircases of standard bases built by homogenization.
P_k below sums the first k exponents: P_n is the degree, and revlex within
a degree is P_{n-1}, ..., P_1 (a larger prefix sum, a smaller last exponent).
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from germlab.poly import Monomial


class MonomialOrder:
    __slots__ = ("name", "nvars", "rows", "key", "is_global")

    def __init__(self, name: str, nvars: int, rows: Sequence[Sequence[int]], is_global: bool):
        self.name = name
        self.nvars = nvars
        self.rows = rows = tuple(tuple(row) for row in rows)
        self.key = lambda m: tuple([sum(map(mul, row, m)) for row in rows])
        self.is_global = is_global

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name}, nvars={self.nvars})"


def _prefix(nvars: int, k: int) -> tuple[int, ...]:
    """P_k: the row summing the first k exponents."""
    return (1,) * k + (0,) * (nvars - k)


def grevlex(nvars: int) -> MonomialOrder:
    """Graded reverse lexicographic (the package default for global bases):
    rows P_n, ..., P_1."""
    return MonomialOrder("grevlex", nvars, [_prefix(nvars, k) for k in range(nvars, 0, -1)], is_global=True)


def local_antigraded(nvars: int) -> MonomialOrder:
    """Anti-graded revlex: smaller total degree wins (rows -P_n, then P_{n-1},
    ..., P_1).  Local, not global."""
    rows = [(-1,) * nvars] + [_prefix(nvars, k) for k in range(nvars - 1, 0, -1)]
    return MonomialOrder("local-antigraded", nvars, rows, is_global=False)


def eliminate_last(nvars: int) -> MonomialOrder:
    """Block order that eliminates the LAST variable: its exponent dominates,
    ties broken by grevlex on the remaining block (rows a_n, then P_{n-1},
    ..., P_1).  The t-free elements of a basis computed here generate the
    elimination ideal in the first block."""
    rows = [(0,) * (nvars - 1) + (1,)] + [_prefix(nvars, k) for k in range(nvars - 1, 0, -1)]
    return MonomialOrder("eliminate-last", nvars, rows, is_global=True)


def homogenized_local(nvars: int) -> MonomialOrder:
    """Order on the h-extended ring (h is the LAST variable) whose leading
    terms, after setting h = 1, are exactly the local-antigraded leading terms
    of the dehomogenization: graded by total degree, then higher h-power wins,
    then revlex on the original block (rows P_n, a_n, then P_{n-2}, ..., P_1).
    Global, so Buchberger terminates; this is the homogenization route to
    local standard bases."""
    rows = [_prefix(nvars, nvars), (0,) * (nvars - 1) + (1,)] + [_prefix(nvars, k) for k in range(nvars - 2, 0, -1)]
    return MonomialOrder("homogenized-local", nvars, rows, is_global=True)
