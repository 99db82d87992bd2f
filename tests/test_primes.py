"""The prime-power test: trial division up to a small bound, then exact
integer roots certified by deterministic Miller-Rabin."""

import random
import time

import pytest

from mdswe.primes import factorize, prime_power

M61 = 2**61 - 1


def reference(q):
    """(p, m) from the full trial-division factorization, or None."""
    fac = factorize(q)
    if len(fac) != 1:
        return None
    (p, m), = fac.items()
    return p, m


def test_agrees_with_trial_division_below_10000():
    assert [prime_power(q) for q in range(-2, 10**4)] == \
        [reference(q) for q in range(-2, 10**4)]


def test_agrees_with_trial_division_on_random_32_bit_orders():
    rng = random.Random(2024)
    for q in (rng.randrange(2**32) for _ in range(100)):
        assert prime_power(q) == reference(q), q


@pytest.mark.parametrize("q, expected", [
    pytest.param(M61, (M61, 1), id="mersenne-61"),
    pytest.param(10**18 + 3, (10**18 + 3, 1), id="1e18+3"),
    # above the Miller-Rabin limit, but its square root is not
    pytest.param(M61**2, (M61, 2), id="mersenne-61-squared"),
    pytest.param((10**9 + 7) * (10**12 + 39), None, id="two-large-primes"),
    pytest.param(1031**5, (1031, 5), id="power-past-the-trial-bound"),
])
def test_large_orders_are_decided_quickly(q, expected):
    start = time.perf_counter()
    assert prime_power(q) == expected
    assert time.perf_counter() - start < 0.1


def test_root_beyond_the_miller_rabin_limit_raises():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        prime_power((2**31 - 1) * M61)
    assert time.perf_counter() - start < 0.1
