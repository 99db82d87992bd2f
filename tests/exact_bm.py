"""The BM decoder sum as an exact rational at the channel's own float p.

A float p is a dyadic rational M / 2^E.  With D = (q-1) 2^E, each of
p1 = p/(q-1), 1 - p1, p and 1 - p is an integer over D, and every term of

    sum_h c_h D(h),   D(h) = sum_{j <= min(h, tau)} C(h, j) (1-p1)^j p1^(h-j)
                                                  P(Bin(n-h, p) <= tau - j),

has total degree n in those four factors.  So D(h) D^n is an integer, and
the sum is one integer over D^n times the coefficients' denominator.
`float()` of the Fraction is the correctly rounded value of the model at
that p, against which the float path is measured.

`sphere_distance_prob` is the float probability P_t^h of each distance t
from a weight-h codeword, summed term by term as written: a reference
that shares no code with either sum.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from mdswe.errorprob import FREE, Condition, _user_profile
from mdswe.mds_enum import MdsParams, ParamOutOfRangeError, weight_distribution


def decoded_numerators(n: int, q: int, tau: int, p: float,
                       weights: Optional[Iterable[int]] = None) -> tuple[dict[int, int], int]:
    """D(h) for each h in `weights` (default 0..n) as integer numerators
    over one denominator D^n."""
    num, two_e = Fraction(p).as_integer_ratio()
    one_p1, p1 = (q - 1) * two_e - num, num              # over D = (q-1) 2^E
    pe, not_pe = num * (q - 1), (two_e - num) * (q - 1)
    out = {}
    for h in range(n + 1) if weights is None else weights:
        off = n - h
        cdf = list(itertools.accumulate(math.comb(off, e) * pe**e * not_pe ** (off - e)
                                        for e in range(min(tau, off) + 1)))
        out[h] = sum(math.comb(h, j) * one_p1**j * p1 ** (h - j) * cdf[min(tau - j, off)]
                     for j in range(min(h, tau) + 1))
    return out, ((q - 1) * two_e) ** n


def exact_bm(params: MdsParams, metric: str, p: float, sizes: Optional[Sequence[int]] = None,
             user: Optional[int] = None,
             conditions: Optional[Sequence[Condition]] = None) -> Fraction:
    """sum_h c_h D(h) at the exact value of the float p, as a Fraction.  The
    exact coefficients are integer numerators over one denominator: E(h)
    for h >= d (cep), or the symbol-level profile of `user`, or else of
    the one block (n,) (sep)."""
    if metric == "cep":
        weights = weight_distribution(params)
        coeffs, den = {h: weights[h] for h in range(params.d, params.n + 1)}, 1
    elif metric == "sep" and user is None:
        coeffs, den = _user_profile(params, (params.n,), 0, (FREE,), 1)
    elif metric == "sep":
        coeffs, den = _user_profile(params, sizes, user, conditions, 1)
    else:
        raise ValueError(f"BM metrics are cep and sep, not {metric!r}")
    decoded, scale = decoded_numerators(params.n, params.q, (params.d - 1) // 2, p, coeffs)
    return Fraction(sum(c * decoded[h] for h, c in coeffs.items()), den * scale)


def sphere_distance_prob(n: int, q: int, h: int, t: int, p: float) -> float:
    """P_t^h: probability the received word is exactly distance t from a
    fixed codeword of weight h, when the zero word crosses a q-ary
    symmetric channel with symbol error probability p.

    Splits over a = number of support coordinates where the error equals
    the codeword symbol (probability p/(q-1) each); the off-support part
    must then contribute exactly t - h + a errors.  Each term is
    C(h, a) p1^a (1-p1)^(h-a) C(n-h, e) p^e (1-p)^(n-h-e) with p1 = p/(q-1).
    """
    if not 0 <= h <= n or not 0 <= t <= n:
        raise ParamOutOfRangeError(f"need 0 <= t, h <= n; got t={t}, h={h}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRangeError(f"need 0 <= p <= 1, got {p}")
    p1 = p / (q - 1)
    terms = []
    for a in range(max(0, h - t), min(h, n - t) + 1):
        e = t - h + a
        terms.append(math.comb(h, a) * p1**a * (1.0 - p1) ** (h - a)
                     * math.comb(n - h, e) * p**e * (1.0 - p) ** (n - h - e))
    return math.fsum(terms)
