"""Trial-division factorization and the one prime-power test.

Kept apart from `gf` so that the closed forms can validate a field order
without loading the field arithmetic.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

_TRIAL_BITS = 10
_TRIAL_BOUND = 1 << _TRIAL_BITS     # `prime_power` trial-divides up to here

# Miller-Rabin with the primes up to 41 as bases is deterministic below
# _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


class NotPrimeError(ValueError):
    """Characteristic is not a prime (or an order is not a prime power)."""


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n; empty for n < 2."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _iroot(n: int, m: int) -> int:
    """floor(n^(1/m)) for n >= 1, by Newton's method on integers."""
    r = 1 << -(-n.bit_length() // m)    # above the root
    while True:
        s = ((m - 1) * r + n // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _MR_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, m) with q = p^m for a prime p, or None if q is not a prime power.

    q is trial-divided up to `_TRIAL_BOUND`.  Past it, q = r^m for the
    largest m with an exact integer root r, and r is prime or q is no
    prime power; r is certified by Miller-Rabin, which is deterministic
    only below `_MR_LIMIT`, so a larger r raises ValueError.
    """
    if q < 2:
        return None
    for f in range(2, min(_TRIAL_BOUND, isqrt(q)) + 1):
        if q % f == 0:
            m = 0
            while q % f == 0:
                q, m = q // f, m + 1
            return (f, m) if q == 1 else None
    if isqrt(q) <= _TRIAL_BOUND:    # no factor up to sqrt(q)
        return q, 1
    # every prime factor exceeds _TRIAL_BOUND, so q = r^m with m < log2(q) / _TRIAL_BITS
    r, m = q, 1
    for e in range(q.bit_length() // _TRIAL_BITS, 1, -1):
        root = _iroot(q, e)
        if root ** e == q:
            r, m = root, e
            break
    if r >= _MR_LIMIT:
        raise ValueError(f"cannot tell whether {q} is a prime power: it has no factor "
                         f"up to {_TRIAL_BOUND}, and primality is decided only below "
                         f"{_MR_LIMIT}")
    return (r, m) if _is_prime(r) else None
