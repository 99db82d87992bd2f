"""Average binary-image enumerators for codes over GF(2^m).

When each symbol of a code over GF(2^m) is written as m bits, the bit
pattern of a nonzero symbol is modeled as uniform over the 2^m - 1
nonzero patterns.  Averaged over that model, every symbol-level
generating function turns into a bit-level one through the substitution

    F(Z) = ((1 + Z)^m - 1) / (2^m - 1),

applied per variable.  No polynomial is substituted into: with
G(Z) = (1+Z)^m - 1, the averaged weight distribution is the sum of
E(h) (2^m - 1)^(n-h) G^h over (2^m - 1)^n, which `_horner` evaluates by
Horner's rule, keeping no power of G; `errorprob`'s per-user profiles use
the same contraction.  `pattern_weight_powers` (the powers themselves)
and `avg_binary_iowe` (the two-block table) are independent routes for
the checks.  All arithmetic here is exact (integers, or `Fraction` where
a result needs it), which keeps every check a strict pass/fail.  A
product by G is m passes of c_i + c_(i-1), one per factor 1+Z, less the
polynomial itself, so no coefficient is multiplied.  `fractions` is
imported by the functions that return a Fraction, so the error curves,
which read only the polynomial products, never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .mds_enum import (MdsParams, ProfileOutOfRangeError, binom, fixed_support_counts,
                       weight_distribution)

if TYPE_CHECKING:
    from fractions import Fraction


class NotCharTwoError(ValueError):
    """The operation needs a field of characteristic two."""


def bits_per_symbol(q: int) -> int:
    """m with q = 2^m, or NotCharTwoError."""
    m = q.bit_length() - 1
    if q < 2 or (1 << m) != q:
        raise NotCharTwoError(f"q={q} is not a power of two")
    return m


def _times_one_plus_z(poly: list[int], times: int) -> list[int]:
    """Coefficients of poly(Z) (1+Z)^times, one factor at a time."""
    poly = poly + [0] * times
    for _ in range(times):
        poly = [a + b for a, b in zip(poly, [0, *poly])]
    return poly


def _times_pattern_poly(poly: list[int], m: int) -> list[int]:
    """Coefficients of poly(Z) ((1+Z)^m - 1)."""
    return [a - b for a, b in zip(_times_one_plus_z(poly, m), poly + [0] * m)]


def pattern_weight_powers(m: int) -> Iterator[list[int]]:
    """Integer coefficient lists of ((1+Z)^m - 1)^w for w = 0, 1, 2, ...

    Entry b of the w-th list counts the ways w nonzero m-bit symbols
    carry b set bits in total; it is (2^m - 1)^w times the coefficient of
    Z^b in F(Z)^w, so callers stay in integers and divide once.
    """
    power = [1]
    while True:
        yield power
        power = _times_pattern_poly(power, m)


def _horner(s: Sequence[int], m: int) -> list[int]:
    """Coefficients of sum_w s[w] G^w with G(Z) = (1+Z)^m - 1, by Horner's
    rule; a list of length m (len(s) - 1) + 1, and [0] for s == []."""
    acc = [s[-1]] if s else [0]
    for c in reversed(s[:-1]):
        acc = _times_pattern_poly(acc, m)
        acc[0] += c
    return acc


def avg_binary_weights_from_distribution(weights: Sequence[int], m: int) -> list[Fraction]:
    """Averaged binary weight distribution from a symbol weight distribution:
    sum_h E(h)/(2^m-1)^h * ((1+X)^m - 1)^h, as the coefficient vector over
    binary weights 0..m*n."""
    from fractions import Fraction

    n, den = len(weights) - 1, (1 << m) - 1
    scaled = _horner([e * den ** (n - h) for h, e in enumerate(weights)], m)
    return [Fraction(a, den**n) for a in scaled]


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
    from fractions import Fraction

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
    from fractions import Fraction

    return Fraction(binom(m * params.n, h_b), params.q ** (params.n - params.k))
