"""Trial-division factorization and the one prime-power test.

Kept apart from `gf` so that the closed forms can validate a field order
without loading the field arithmetic.
"""

from __future__ import annotations

from typing import Optional


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


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, m) with q = p^m for a prime p, or None if q is not a prime power."""
    fac = factorize(q)
    if len(fac) != 1:
        return None
    (p, m), = fac.items()
    return p, m
