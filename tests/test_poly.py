from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mdswe.poly import SparsePoly

from literal_pipeline import evaluate, filter_terms, substitute


def test_zero_coefficients_dropped():
    p = SparsePoly(2, {(0, 0): 1, (1, 1): 0})
    assert len(p) == 1
    assert p.coeff((1, 1)) == 0


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        SparsePoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SparsePoly(1, {(-1,): 1})


def test_add_mul_small():
    x = SparsePoly(1, {(1,): 1})
    p = (x + 1) * (x + 1)
    assert p.terms == {(0,): 1, (1,): 2, (2,): 1}
    assert (p - p).terms == {}


def test_pow_matches_repeated_mul():
    x, y = SparsePoly(2, {(1, 0): 1}), SparsePoly(2, {(0, 1): 1})
    p = x + 2 * y + 1
    assert p**3 == p * p * p
    assert p**0 == SparsePoly.one(2)


def test_evaluate_and_coefficient_sum():
    p = SparsePoly(2, {(1, 0): 2, (0, 2): Fraction(1, 2)})
    assert evaluate(p, [3, 2]) == 6 + 2
    assert p.coefficient_sum() == Fraction(5, 2)


def test_substitute_composition():
    # p(x) = x^2 + 1 with x -> y + 1 gives y^2 + 2y + 2
    p = SparsePoly(1, {(2,): 1, (0,): 1})
    y_plus_1 = SparsePoly(1, {(1,): 1, (0,): 1})
    assert substitute(p, [y_plus_1]).terms == {(2,): 1, (1,): 2, (0,): 2}


def test_substitute_into_two_variables():
    # x*y with x -> u, y -> u+v
    p = SparsePoly(2, {(1, 1): 1})
    u, v = SparsePoly(2, {(1, 0): 1}), SparsePoly(2, {(0, 1): 1})
    assert substitute(p, [u, u + v]).terms == {(2, 0): 1, (1, 1): 1}


def test_collapse_merges_and_drops():
    p = SparsePoly(3, {(1, 2, 1): 5, (0, 1, 2): 7})
    merged = p.collapse([0, 0, 1], 2)
    assert merged.terms == {(3, 1): 5, (1, 2): 7}
    total = p.collapse([0, 0, 0], 1)
    assert total.terms == {(4,): 5, (3,): 7}
    dropped = p.collapse([None, 0, None], 1)
    assert dropped.terms == {(2,): 5, (1,): 7}


def test_filter_terms():
    p = SparsePoly(2, {(0, 0): 1, (1, 1): 2, (2, 0): 3})
    assert filter_terms(p, lambda e: e[0] == 0).terms == {(0, 0): 1}


@st.composite
def polys(draw, nvars=2, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(nvars))
        terms[exps] = draw(st.integers(-9, 9))
    return SparsePoly(nvars, terms)


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
def test_evaluation_is_ring_morphism(a, b):
    point = [2, -3]
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)
    assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)


@given(polys())
def test_collapse_preserves_coefficient_sum(p):
    assert p.collapse([0, 0], 1).coefficient_sum() == p.coefficient_sum()
    assert p.collapse([None, None], 0).coefficient_sum() == p.coefficient_sum()
