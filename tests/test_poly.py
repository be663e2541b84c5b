"""Sparse exact multivariate polynomials: arithmetic, weighted structure,
weight inference, and variable surgery; and the numeric kernels beside
them, the compiled evaluator and the stacked least-squares call."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germlab.poly import (
    NumericEvaluator,
    Poly,
    _stacked_lstsq,
    infer_weights,
    jacobian,
    jacobian_evaluator,
    mono_weighted_degree,
)
from germlab.qi import QI

from conftest import F, P


# -- monomial helpers -------------------------------------------------------


def test_monomial_helpers():
    assert mono_weighted_degree((2, 1), [F("1/2"), F("1/3")]) == F("4/3")


# -- ring operations --------------------------------------------------------


def test_arithmetic_matches_hand_expansion():
    f = P("x + y", "x y")
    assert f * f == P("x^2 + 2*x*y + y^2", "x y")
    assert f * f * f == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3", "x y")
    assert f - f == Poly.zero(2)
    assert P("(1/2 + 3*i)*x", "x y") == P("1/2*x + 3*i*x", "x y")


def test_zero_terms_are_dropped():
    f = P("x + y", "x y") - P("y", "x y")
    assert f.terms == {(1, 0): QI.one()}


def test_partial_derivatives():
    f = P("x^2*y + 3*y^4")
    assert f.partial(0) == P("2*x*y")
    assert f.partial(1) == P("x^2 + 12*y^3")
    assert f.partial(2) == Poly.zero(3)


def test_orders_and_degrees():
    f = P("x^2 + y^5")
    assert f.total_degree() == 5
    w = [F("1/2"), F("1/2"), F("1/3")]
    assert f.weighted_order(w) == 1
    assert P("z^3").weighted_order(w) == 1


# -- weighted splitting (the f_p + f_{>p} decomposition) --------------------


def test_split_by_weight_examples():
    w = [F("1/2"), F("1/2"), F("1/3")]
    f = P("x^2 + y^2 + z^3 + y^5")
    principal, rest = f.split_by_weight(w)
    assert principal == P("x^2 + y^2 + z^3")
    assert rest == P("y^5")

    g = P("x^2 + y^2 + z^3")
    principal, rest = g.split_by_weight(w)
    assert principal == g and rest.is_zero()

    h = P("x^2 + x^3 + x^4", "x")
    principal, rest = h.split_by_weight([F("1/2")])
    assert principal == P("x^2", "x")
    assert rest == P("x^3 + x^4", "x")


def test_split_by_weight_rejects_zero():
    with pytest.raises(ValueError):
        Poly.zero(2).split_by_weight([F(1), F(1)])


def test_weighted_homogeneity():
    w = [F("1/2"), F("1/2"), F("1/3")]
    assert P("x^2 + y^2 + z^3").is_weighted_homogeneous(w)
    assert not P("x^2 + z^2").is_weighted_homogeneous(w)
    assert Poly.zero(3).is_weighted_homogeneous(w)


# -- weight inference -------------------------------------------------------


def test_infer_weights_unique_cases():
    f = P("x^2 + y^2 + z^3")
    inf = infer_weights([f], ["x", "y", "z"])
    assert inf.status == "unique"
    assert inf.weights == [F("1/2"), F("1/2"), F("1/3")]
    assert f.weighted_order(inf.weights) == F(1)

    f = P("z^5 + x^15 + x*y^7")
    inf = infer_weights([f], ["x", "y", "z"])
    assert inf.status == "unique"
    assert inf.weights == [F("1/15"), F("2/15"), F("3/15")]
    assert f.weighted_order(inf.weights) == F(1)


def test_infer_weights_inconsistent():
    # 2w_x = 2w_y = p forces w_x + 3w_y = 2p != p
    inf = infer_weights([P("x^2 + x*y^3 + y^2", "x y")], ["x", "y"])
    assert inf.status == "not_weighted_homogeneous"


def test_infer_weights_underdetermined_reports_free_variables():
    inf = infer_weights([P("x^2", "x y")], ["x", "y"])
    assert inf.status == "underdetermined"
    assert inf.free_variables == ["y"]


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3).filter(any),
    st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3).filter(any),
)
def test_inferred_weights_reproduce_the_polynomial(e1, e2):
    w = [F("1/2"), F("1/3"), F("1/5")]
    d1 = mono_weighted_degree(tuple(e1), w)
    d2 = mono_weighted_degree(tuple(e2), w)
    f = Poly.from_terms(3, [(tuple(e1), QI.one()), (tuple(e2), QI(2))])
    if d1 == d2:
        # weighted-homogeneous for *some* weights; the inferred ones must work
        inf = infer_weights([f], ["x", "y", "z"])
        if inf.status == "unique":
            assert f.is_weighted_homogeneous(inf.weights)
            assert f.weighted_order(inf.weights) == F(1)  # normalized: min degree 1


# -- evaluation and substitution --------------------------------------------


def test_evaluate_exact_and_numeric_agree():
    f = P("x^2*y - 3*z + 1/2")
    point = [QI(1, 1), QI(Fraction(1, 2)), QI(0, 2)]
    # x^2 y - 3z + 1/2 at (1+i, 1/2, 2i) is 2i * 1/2 - 6i + 1/2 by hand
    numeric = f.evaluate_numeric([p.to_complex() for p in point])
    assert abs(0.5 - 5j - numeric) < 1e-12


# The compiled evaluator's one entry point, rows, must reproduce the reference
# Poly.evaluate_numeric on each row, called on that row's numpy scalars.
# Values are compared as float64 words: equal, or both nan with the same sign
# bit, so signed zeros and infinities count.

gaussian_rationals = st.builds(
    QI,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
polys3 = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 4)] * 3), gaussian_rationals), max_size=6
).map(lambda pairs: Poly.from_terms(3, pairs))
points3 = st.lists(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
)


def _same_words(got, want) -> bool:
    a = np.asarray(got, dtype=complex).view(np.float64)
    b = np.asarray(want, dtype=complex).view(np.float64)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and bool(np.all(same & (np.signbit(a) == np.signbit(b))))


def _per_row(polys, points):
    return np.array([[f.evaluate_numeric(p) for f in polys] for p in points], dtype=complex).reshape(len(points), -1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(polys3, gaussian_rationals.map(lambda c: Poly.constant(3, c)), st.just(Poly.zero(3))), max_size=4),
    points3,
)
def test_numeric_evaluator_is_bitwise_the_reference(polys, coords):
    points = np.asarray([coords], dtype=complex)
    assert _same_words(NumericEvaluator(polys).rows(points), _per_row(polys, points))


@settings(max_examples=100, deadline=None)
@given(st.lists(polys3, min_size=1, max_size=3), points3)
def test_jacobian_evaluator_is_bitwise_the_reference(polys, coords):
    points = np.asarray([coords], dtype=complex)
    partials = [d for row in jacobian(polys) for d in row]
    assert _same_words(jacobian_evaluator(polys).rows(points), _per_row(partials, points))


def test_numeric_evaluator_overflows_like_the_reference():
    polys = [P("x^2*y + 3*y^3", "x y"), P("(1/2 - i)*x^5", "x y"), P("x - 1", "x y")]
    points = np.array([[1e200 + 1e200j, -1e200 + 0j]])
    records = []
    for evaluate in (lambda: _per_row(polys, points), lambda: NumericEvaluator(polys).rows(points)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = evaluate()
        records.append((values, [w.category for w in caught]))
    (want, want_warnings), (got, got_warnings) = records
    assert _same_words(got, want)
    assert np.isnan(got[0, 0]) and np.isnan(got[0, 1]) and np.isfinite(got[0, 2])
    # numpy words the two differently ("overflow encountered in scalar power"
    # against "... in power"); both are RuntimeWarnings
    assert want_warnings and got_warnings
    assert set(want_warnings) == set(got_warnings) == {RuntimeWarning}


polys3_to_12 = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 12)] * 3), gaussian_rationals), max_size=6
).map(lambda pairs: Poly.from_terms(3, pairs))
coords = st.one_of(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e200 + 0j, -1e200j, 1e200 - 1e200j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0)]),
)


# every (variable, exponent) pair recurs across terms and across polynomials;
# rows computes each distinct power once and reuses it
REPEATED_POWERS = [
    P("x^2*y^3 + (1/2 - i)*x^2*z^7 - y^3*z^7", "x y z"), P("x^2 + 3*y^3*x^2 + z^7*y", "x y z"), P("x^2*y*z^7", "x y z")
]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(polys3_to_12, gaussian_rationals.map(lambda c: Poly.constant(3, c)), st.just(Poly.zero(3))), max_size=4),
    st.lists(st.lists(coords, min_size=3, max_size=3), min_size=1, max_size=5),
)
def test_numeric_evaluator_rows_are_bitwise_the_per_row_calls(polys, rows):
    points = np.array(rows, dtype=complex)
    partials = [d for row in jacobian(polys or [Poly.zero(3)]) for d in row]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for evaluator, reference in (
            (NumericEvaluator(polys), polys),
            (jacobian_evaluator(polys or [Poly.zero(3)]), partials),
            (NumericEvaluator(REPEATED_POWERS), REPEATED_POWERS),
        ):
            assert _same_words(evaluator.rows(points), _per_row(reference, points))


def test_numeric_evaluator_rows_cover_every_small_exponent():
    # numpy's array square differs from the scalar one on thousands of such
    # points; every exponent must still match.
    rng = np.random.default_rng(0)
    points = 3 * (rng.standard_normal((2000, 2)) + 1j * rng.standard_normal((2000, 2)))
    c = QI(Fraction(2, 3), -1)
    polys = [Poly.from_terms(2, [((e, 1), c), ((0, e), QI.one())]) for e in range(13)]
    assert _same_words(NumericEvaluator(polys).rows(points), _per_row(polys, points))


def test_numeric_evaluator_rows_overflow_like_the_per_row_calls():
    polys = [P("x^2*y + 3*y^3", "x y"), P("(1/2 - i)*x^5", "x y"), P("x - 1", "x y")]
    points = np.array([[1e200 + 1e200j, -1e200 + 0j], [0.5 - 2j, 3 + 0j]])
    with pytest.warns(RuntimeWarning):
        got = NumericEvaluator(polys).rows(points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _same_words(got, _per_row(polys, points))
    assert np.isnan(got[0, 0]) and np.isnan(got[0, 1]) and np.all(np.isfinite(got[1]))


def test_drop_variable():
    g = P("2*y + z + 4")
    assert g.drop_variable(0) == P("2*x + y + 4", "x y")  # names shift down
    with pytest.raises(ValueError, match="still occurs"):
        P("x^2 + x*y + z").drop_variable(0)


def test_insert_variable():
    f = P("x*y", "x y")
    assert f.insert_variable(1) == Poly.from_terms(3, [((1, 0, 1), QI.one())])


def test_permute_variables_semantics():
    # new slot j reads from old slot perm[j]
    f = P("x^2 + y^3 + z^5")
    perm = [2, 0, 1]  # new order (z, x, y)
    g = f.permute_variables(perm)
    assert g == P("x^5 + y^2 + z^3")


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * 2),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
        ),
        max_size=5,
    )
)
def test_split_reassembles(pairs):
    f = Poly.from_terms(2, [(m, QI(c)) for m, c in pairs])
    if f.is_zero():
        return
    w = [F("1/2"), F("1/3")]
    principal, rest = f.split_by_weight(w)
    assert principal + rest == f
    if not rest.is_zero():
        assert rest.weighted_order(w) > principal.weighted_order(w)
    assert principal.is_weighted_homogeneous(w)


# ---------------------------------------------------------------------------
# one stacked least-squares call against numpy's per-matrix lstsq
#
# _stacked_lstsq calls the private gufunc behind np.linalg.lstsq; these
# tests also catch a numpy release that changes it.


@st.composite
def _lstsq_stacks(draw):
    """Real or complex stacks, a and b each: lstsq solves in complex if
    either is complex."""
    count, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_complex, b_complex = draw(st.booleans()), draw(st.booleans())

    def normal(shape, complex_):
        real = rng.standard_normal(shape)
        return real + 1j * rng.standard_normal(shape) if complex_ else real

    k = min(m, n)
    rank = draw(st.integers(0, k))
    if rank == k:
        a = normal((count, m, n), a_complex)
    elif draw(st.booleans()):
        a = normal((count, m, rank), a_complex) @ normal((count, rank, n), a_complex)
    else:
        # trailing singular values near lstsq's cutoff eps * max(m, n) * s_max
        sigma = np.ones(k)
        sigma[rank:] = np.finfo(float).eps * draw(st.floats(0.5, 20.0))
        u = np.linalg.qr(normal((count, m, k), a_complex))[0]
        v = np.linalg.qr(normal((count, n, k), a_complex))[0]
        a = (u * sigma) @ v.conj().transpose(0, 2, 1)
    a[rng.random((count, m)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    # rows of wildly different magnitudes, or one magnitude per matrix
    a *= 10.0 ** rng.integers(-150, 151, size=(count, m if draw(st.booleans()) else 1, 1))
    b = normal((count, m), b_complex) * 10.0 ** rng.integers(-150, 151, size=(count, m))
    return a, b


@settings(max_examples=200, deadline=None)
@given(_lstsq_stacks())
def test_stacked_lstsq_matches_per_matrix_lstsq(stack):
    a, b = stack
    try:
        expected = np.array([np.linalg.lstsq(ai, bi, rcond=None)[0] for ai, bi in zip(a, b)])
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            _stacked_lstsq(a, b)
        return
    assert _stacked_lstsq(a, b)[0].tobytes() == expected.tobytes()


def test_stacked_lstsq_raises_like_lstsq_on_nan():
    for dtype in (float, complex):
        a = np.ones((3, 7, 8), dtype=dtype)
        a[1, 2, 3] = math.nan
        b = np.ones((3, 7), dtype=dtype)
        with pytest.raises(np.linalg.LinAlgError) as expected:
            np.linalg.lstsq(a[1], b[1], rcond=None)
        with pytest.raises(np.linalg.LinAlgError) as stacked:
            _stacked_lstsq(a, b)
        assert (type(stacked.value), str(stacked.value)) == (
            type(expected.value), str(expected.value)
        )
        assert str(stacked.value) == "SVD did not converge in Linear Least Squares"
