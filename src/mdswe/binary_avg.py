"""Average binary-image enumerators for codes over GF(2^m).

When each symbol of a code over GF(2^m) is written as m bits, the bit
pattern of a nonzero symbol is modeled as uniform over the 2^m - 1
nonzero patterns.  Averaged over that model, every symbol-level
generating function turns into a bit-level one through the substitution

    F(Z) = ((1 + Z)^m - 1) / (2^m - 1),

applied per variable.  No polynomial is substituted into: F(Z)^w is the
w-th list of `pattern_weight_powers(m)` over (2^m - 1)^w, and the
averaged weight distribution contracts those integer lists against E(w)
over one common denominator (2^m - 1)^n.  `avg_binary_iowe` is an
independent closed form of the two-block table.  All arithmetic here is
exact (integers, or `Fraction` where a result needs it), which keeps
every check a strict pass/fail.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .mds_enum import (MdsParams, ProfileOutOfRangeError, binom, fixed_support_counts,
                       weight_distribution)


class NotCharTwoError(ValueError):
    """The operation needs a field of characteristic two."""


def bits_per_symbol(q: int) -> int:
    """m with q = 2^m, or NotCharTwoError."""
    m = q.bit_length() - 1
    if q < 2 or (1 << m) != q:
        raise NotCharTwoError(f"q={q} is not a power of two")
    return m


def pattern_weight_powers(m: int) -> Iterator[list[int]]:
    """Integer coefficient lists of ((1+Z)^m - 1)^w for w = 0, 1, 2, ...

    Entry b of the w-th list counts the ways w nonzero m-bit symbols
    carry b set bits in total; it is (2^m - 1)^w times the coefficient of
    Z^b in F(Z)^w, so callers stay in integers and divide once.
    """
    g = [binom(m, j) for j in range(m + 1)]
    power = [1]
    while True:
        yield power
        nxt = [0] * (len(power) + m)
        for i, a in enumerate(power):
            if a:
                for j in range(1, m + 1):
                    nxt[i + j] += a * g[j]
        power = nxt


def avg_binary_weights_from_distribution(weights: Sequence[int], m: int) -> list[Fraction]:
    """Averaged binary weight distribution from a symbol weight distribution.

    Expands sum_h E(h)/(2^m-1)^h * ((1+X)^m - 1)^h over the common
    denominator (2^m-1)^n; returns the coefficient vector over binary
    weights 0..m*n.
    """
    n = len(weights) - 1
    den = (1 << m) - 1
    acc = [0] * (m * n + 1)
    for h, power in zip(range(n + 1), pattern_weight_powers(m)):
        if weights[h]:
            scale = weights[h] * den ** (n - h)
            for i, c in enumerate(power):
                if c:
                    acc[i] += scale * c
    top = den**n
    return [Fraction(a, top) for a in acc]


def avg_binary_wgf(params: MdsParams) -> list[Fraction]:
    """Averaged binary weight distribution of an MDS code over GF(2^m)."""
    m = bits_per_symbol(params.q)
    return avg_binary_weights_from_distribution(weight_distribution(params), m)


def avg_binary_iowe(params: MdsParams, s: int, w_b: int, h_b: int) -> Fraction:
    """Averaged binary input-output weight enumerator, closed form.

    For an (s, n-s) symbol split, the average number of binary-image
    codewords with w_b input bits and h_b total bits, over the symbol-level
    `iowe` O(w,h) = f(h) C(s,w) C(n-s,h-w):

        sum_{w,h} O(w,h)/(2^m-1)^h
          * [ sum_j (-1)^(h-w-j) C(h-w,j) C(jm, h_b - w_b) ]
          * [ sum_j (-1)^(w-j)   C(w,j)   C(jm, w_b) ].
    """
    m = bits_per_symbol(params.q)
    n = params.n
    if not 0 <= s <= n:
        raise ProfileOutOfRangeError(f"s={s} not in [0, {n}]")
    if not 0 <= w_b <= m * s or not 0 <= h_b <= m * n:
        raise ProfileOutOfRangeError(f"(w_b, h_b) = ({w_b}, {h_b}) out of range")
    den = (1 << m) - 1
    f = fixed_support_counts(params)
    total = Fraction(0)
    for w in range(s + 1):
        input_sum = sum((-1) ** (w - j) * binom(w, j) * binom(j * m, w_b)
                        for j in range(w + 1))
        if input_sum == 0:
            continue
        for h in range(w, n + 1):
            o = f[h] * binom(s, w) * binom(n - s, h - w)
            if o == 0:
                continue
            rest_sum = sum((-1) ** (h - w - j) * binom(h - w, j) * binom(j * m, h_b - w_b)
                           for j in range(h - w + 1))
            if rest_sum:
                total += Fraction(o * rest_sum * input_sum, den**h)
    return total


def binomial_approx(params: MdsParams, h_b: int) -> Fraction:
    """Normalized-binomial reference value q^-(n-k) * C(mn, h_b).

    The averaged binary weight distribution approaches this for weights
    above the averaged binary minimum distance; exposed for comparison,
    never used in exact identities.
    """
    m = bits_per_symbol(params.q)
    if not 0 <= h_b <= m * params.n:
        raise ProfileOutOfRangeError(f"h_b={h_b} not in [0, {m * params.n}]")
    return Fraction(binom(m * params.n, h_b), params.q ** (params.n - params.k))
