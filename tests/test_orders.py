"""Monomial orders: global and local, elimination and homogenized."""

from operator import add

from hypothesis import given, strategies as st

from germlab.groebner import _Packing
from germlab.orders import (
    MonomialOrder,
    eliminate_last,
    grevlex,
    homogenized_local,
    local_antigraded,
)

monomials3 = st.tuples(*[st.integers(min_value=0, max_value=6)] * 3)


def test_grevlex_classics():
    o = grevlex(3)
    assert o.is_global
    # degree first
    assert o.key((0, 0, 3)) > o.key((2, 0, 0))
    # same degree: smaller last exponent wins (x^2 > xy > y^2 > xz > yz > z^2)
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert o.key(a) > o.key(b)


def test_local_antigraded_prefers_low_degree():
    o = local_antigraded(2)
    assert not o.is_global
    one, x, x2 = (0, 0), (1, 0), (2, 0)
    assert o.key(one) > o.key(x)
    assert o.key(x) > o.key(x2)


def test_eliminate_last_blocks():
    # last variable strictly heavier than any power of the others
    o = eliminate_last(3)
    assert o.key((0, 0, 1)) > o.key((5, 5, 0))
    assert o.key((0, 0, 2)) > o.key((0, 0, 1))


def test_homogenized_local_is_global():
    o = homogenized_local(3)
    assert o.is_global
    assert o.key((2, 0, 0)) > o.key((1, 0, 0))


@given(monomials3, monomials3)
def test_orders_are_total_and_antisymmetric(a, b):
    for o in (grevlex(3), local_antigraded(3), eliminate_last(3), homogenized_local(3)):
        if a == b:
            assert not o.key(a) > o.key(b) and not o.key(b) > o.key(a)
        else:
            assert (o.key(a) > o.key(b)) != (o.key(b) > o.key(a))


@given(monomials3, monomials3, monomials3)
def test_orders_are_multiplicative(a, b, c):
    from germlab.poly import mono_mul

    for o in (grevlex(3), local_antigraded(3), eliminate_last(3)):
        if o.key(a) > o.key(b):
            assert o.key(mono_mul(a, c)) > o.key(mono_mul(b, c))


@given(monomials3)
def test_global_orders_have_one_as_minimum(m):
    one = (0, 0, 0)
    for o in (grevlex(3), eliminate_last(3), homogenized_local(3)):
        if m != one:
            assert o.key(m) > o.key(one)
    # the local order inverts that
    if m != one:
        assert local_antigraded(3).key(one) > local_antigraded(3).key(m)


# the weighted order of test_groebner's division test, as its rows: weights
# (1/2, 1, 1/3) times 6, then total degree, then grevlex
WEIGHTED = MonomialOrder("weighted-grevlex", 3, [(3, 6, 2), (1, 1, 1), (1, 1, 0), (1, 0, 0)], is_global=True)
huge3 = st.tuples(*[st.integers(min_value=0, max_value=2 ** 40)] * 3)


@given(huge3, huge3, st.permutations(range(3)))
def test_packed_keys_compare_as_the_order_and_add(a, b, perm):
    shuffled = tuple(a[p] for p in perm)  # a's degree, so the later rows decide
    for order in (grevlex(3), eliminate_last(3), homogenized_local(3), WEIGHTED):
        packing = _Packing(3, 42, order.rows)  # every sum below stays under 2^42
        for x, y in ((a, b), (a, shuffled)):
            px, py, pxy = packing.pack(x), packing.pack(y), packing.pack(tuple(map(add, x, y)))
            assert (px > py) == (order.key(x) > order.key(y))
            assert (px == py) == (x == y)
            assert px + py == pxy and not pxy & packing.guard
            assert packing.unpack(pxy) == tuple(map(add, x, y))
