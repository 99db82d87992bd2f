import pytest
from hypothesis import given, strategies as st

from mdswe.gf import (DegreeMismatchError, Field, NotIrreducibleError, NotPrimeError,
                      field_from_order, parse_field_spec)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16]
LARGER_ORDERS = [27, 32, 64, 128, 256]


def test_construction_gf8():
    f = Field(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
    assert f.order == 8
    assert f.characteristic == 2 and f.extension_degree == 3


def test_construction_gf2_with_linear_poly():
    f = Field(2, 1, (1, 1))  # x + 1
    assert f.order == 2
    assert f.mul(1, 1) == 1


def test_reducible_poly_rejected():
    # x^3 + 1 = (x + 1)(x^2 + x + 1)
    with pytest.raises(NotIrreducibleError):
        Field(2, 3, (1, 0, 0, 1))


def test_not_prime_rejected():
    with pytest.raises(NotPrimeError):
        Field(6, 1)
    with pytest.raises(NotPrimeError):
        field_from_order(12)


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatchError):
        Field(2, 3, (1, 1))  # degree 1 poly for m=3
    with pytest.raises(DegreeMismatchError):
        Field(2, 2, (1, 1, 2))  # 2 == 0 leading coeff: not monic


def test_gf8_alpha_cubed():
    # with x^3 + x + 1: x * x^2 = x^3 = x + 1
    f = Field(2, 3)
    assert f.mul(2, 4) == 3


def test_mul_by_zero_and_div_one():
    f = Field(2, 3)
    assert all(f.mul(0, x) == 0 for x in range(8))
    assert f.div(1, 1) == 1


def test_division_by_zero():
    f = Field(2, 3)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("q", SMALL_ORDERS + LARGER_ORDERS)
def test_inverses_exhaustive(q):
    f = field_from_order(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_ring_axioms_exhaustive(q):
    f = field_from_order(q)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS + LARGER_ORDERS)
def test_multiplicative_group_is_cyclic(q):
    f = field_from_order(q)
    g = f.generator()
    seen = set()
    v = 1
    for _ in range(q - 1):
        seen.add(v)
        v = f.mul(v, g)
    assert seen == set(range(1, q))


@pytest.mark.parametrize("q", [8, 16, 64, 256])
def test_table_path_matches_raw_exhaustive(q):
    f = field_from_order(q)
    f.build_tables()
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f._mul_raw(a, b)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1


@given(st.sampled_from([4, 8, 9, 16, 27]), st.data())
def test_field_axioms_random(q, data):
    f = field_from_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(a, b) == f.add(b, a)
    assert f.sub(f.add(a, b), b) == a
    if b:
        assert f.mul(f.div(a, b), b) == a


def test_parse_field_spec_round_trip():
    f = parse_field_spec("gf:2^3:poly=0xB")
    assert f == Field(2, 3, (1, 1, 0, 1))
    assert parse_field_spec(f.spec_string()) == f
    assert parse_field_spec("gf:3^1").order == 3


def test_parse_field_spec_rejects_garbage():
    for bad in ("gf:2", "gf:2^", "xy:2^3", "gf:2^3:mask=0xB"):
        with pytest.raises(ValueError):
            parse_field_spec(bad)


def test_odd_characteristic_extension_arithmetic():
    f = Field(3, 2)  # GF(9), x^2 + 1
    # (x) * (x) = x^2 = -1 = 2
    x = 3  # digits (0,1)
    assert f.mul(x, x) == 2
    for a in range(9):
        for b in range(9):
            assert f.sub(f.add(a, b), b) == a
