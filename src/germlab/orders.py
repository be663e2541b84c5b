"""Monomial orders, represented as key functions into totally ordered tuples.

Every order o satisfies: o.key is injective on monomials of the fixed arity,
compatible with multiplication (key comparisons are preserved by adding a
monomial), and ``is_global`` tells whether 1 is the minimum (needed for
termination of Buchberger division).  Each order memoizes its own ``key``,
so the repeated leading-term searches of division read a dict.  The local
order (anti-graded revlex) is *not* global and is only ever used to pick
leading terms and staircases of standard bases obtained through
homogenization.
"""

from __future__ import annotations

from typing import Callable

from germlab.poly import Monomial


class _KeyMemo(dict):
    """Monomial -> order key, computed on first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[Monomial], tuple]):
        self.compute = compute

    def __missing__(self, mono: Monomial) -> tuple:
        key = self[mono] = self.compute(mono)
        return key


class MonomialOrder:
    __slots__ = ("name", "nvars", "key", "is_global")

    def __init__(self, name: str, nvars: int, key: Callable[[Monomial], tuple], is_global: bool):
        self.name = name
        self.nvars = nvars
        self.key = _KeyMemo(key).__getitem__
        self.is_global = is_global

    def __repr__(self) -> str:
        return f"MonomialOrder({self.name}, nvars={self.nvars})"


def _revneg(mono: Monomial) -> tuple:
    return tuple([-e for e in reversed(mono)])


def grevlex(nvars: int) -> MonomialOrder:
    """Graded reverse lexicographic (the package default for global bases)."""

    def key(m: Monomial) -> tuple:
        return (sum(m), _revneg(m))

    return MonomialOrder("grevlex", nvars, key, is_global=True)


def local_antigraded(nvars: int) -> MonomialOrder:
    """Anti-graded revlex: smaller total degree wins.  Local, not global."""

    def key(m: Monomial) -> tuple:
        return (-sum(m), _revneg(m))

    return MonomialOrder("local-antigraded", nvars, key, is_global=False)


def eliminate_last(nvars: int) -> MonomialOrder:
    """Block order that eliminates the LAST variable: its exponent dominates,
    ties broken by grevlex on the remaining block.  The t-free elements of a
    basis computed here generate the elimination ideal in the first block."""

    def key(m: Monomial) -> tuple:
        head = m[:-1]
        return (m[-1], sum(head), _revneg(head))

    return MonomialOrder("eliminate-last", nvars, key, is_global=True)


def homogenized_local(nvars: int) -> MonomialOrder:
    """Order on the h-extended ring (h is the LAST variable) whose leading
    terms, after setting h = 1, are exactly the local-antigraded leading terms
    of the dehomogenization: graded by total degree, then higher h-power wins,
    then revlex on the original block.  Global, so Buchberger terminates; this
    is the homogenization route to local standard bases."""

    def key(m: Monomial) -> tuple:
        head = m[:-1]
        return (sum(m), m[-1], _revneg(head))

    return MonomialOrder("homogenized-local", nvars, key, is_global=True)
