"""Monomial orders: global and local, elimination and homogenized."""

from hypothesis import given, strategies as st

from germlab.orders import (
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
