"""Decoder error-probability curves from exact enumerators.

Channel model
-------------
The binary image of the code is BPSK-modulated over AWGN at rate k/n, so
a bit is received in error with probability p_bit = Q(sqrt(2 (k/n) g))
at linear SNR g, and a q-ary symbol (m bits) is in error with
probability p = 1 - (1 - p_bit)^m, computed as -expm1(m log1p(-p_bit)),
which does not cancel to 0 at high SNR.  Symbol errors are then treated as a
q-ary symmetric channel: a wrong symbol is uniform over the q - 1 wrong
values.  The nonuniformity that bit-level errors induce between wrong
symbol values is deliberately ignored (the standard model; it shifts
absolute curve positions, never the exact identities under test here).

Bounded-minimum-distance (BM) decoding corrects up to
tau = floor((d-1)/2) symbol errors.  A decoder *error* is the received
word landing inside the radius-tau sphere of a wrong codeword.  The
spheres are disjoint, so with the zero word sent, and each wrong symbol
value received with probability p1 = p/(q-1), the codeword error
probability is exact as a sum over the received weight w:

    CEP(p) = sum_w M(w) p1^w (1-p)^(n-w),   M(w) = sum_{h=d}^{n} E(h) N(h, w).

N(h, w) counts the weight-w words within tau of a fixed weight-h word
(McEliece & Swanson, IEEE Trans. IT 32(5), 1986): s of its support
symbols zeroed, o changed to another nonzero value and e of the n - h
others made nonzero, with s + o + e <= tau and w = h - s + e:

    N(h, w) = sum_{s,e} C(h,s) C(n-h,e) (q-1)^e P(h-s, tau-s-e),
    P(a, r) = sum_{o <= r} C(a,o) (q-2)^o.

The symbol error probability substitutes E(h) -> (h/n) E(h), which is
exact for codes with the uniform-coordinate-weight property (all MDS
codes).

`_sphere_spectrum` builds M once per curve in integers: the h that share
a = h - s share the prefix row P(a, .), so N(h, .) costs
O(tau min(tau, n-h)) products, and c_h multiplies each received weight
once.  M(w) is at most den C(n,w) (q-1)^w (den, the coefficients' common
denominator, is 1 for CEP), so the share of the weight-w words decoded
to a wrong codeword,

    mu(w) = M(w) / (den C(n,w) (q-1)^w) <= 1,

stays in the float range where E(h) does not, and a point is the sum of
positive terms mu(w) C(n,w) p^w (1-p)^(n-w).

For maximum-likelihood decoding of the binary image the union bound is
the one term: probabilities have the shape
sum_h coeff(h) Q(sqrt(2 h (k/n) g)), clipped to [0, 1].

Multiuser profiles
------------------
A per-user curve needs, for block u of a partition (n_1..n_p), the
profile O_h = sum over the allowed codewords of total weight h of
w_u / n_u, or its analogue on the averaged binary image (`binary_avg`).
Both contract the product form

    PWE(w_1..w_p) = f(w) prod_i C(n_i, w_i),   f(w) = E(w) / C(n, w).

With G(Z) = (1+Z)^m - 1, w symbols set b bits in [Z^b]G^w ways.  The
user's bit count is Z d/dZ on its own factor, and (Z d/dZ G^w_u) G^w_o
= w_u Z G' G^(w-1) with w = w_u + w_o, so summed over the bit splits
the user-weighted count is w_u (b/w) [Z^b]G^w, where the factor
(b/w) [Z^b]G^w = [Z^b] Z G' G^(w-1) is an integer.  The bit weight
therefore never travels through the blocks: each block that is not
'full' gives the row C(n_i, w) for w = 0..hi ('free': hi = n_i; 'zero':
0; 'atmost' a: floor(a n_i)), times w for the user's block, and the
rows convolve to U(w).  The 'full' blocks, of total size F, set every
bit, so they only shift the result by F symbols and m F bits:

    O_(b+mF) = sum_w U(w) f(w+F) (2^m-1)^(n-w-F) (b/w) [Z^b]G^w
               / ((2^m-1)^n m n_u),

exact integers up to that one division (the averaging factor
(2^m-1)^-w of F(Z)^w is moved to the common denominator).  Since
(b/w) [Z^b]G^w = [Z^b] Z G' G^(w-1), the sum over w is the one product
Z G'(Z) H(Z) with H = sum_w s_w G^(w-1), s_w = U(w) f(w+F) (2^m-1)^(n-w-F),
and H is evaluated by `binary_avg._horner`: one multiplication by G per
symbol weight, and no power of G is kept and no division made.  At m = 1,
G = Z and the same contraction is the symbol profile.  'atmost' needs
no bit cap, since b_i <= m floor(a n_i) <= floor(a m n_i).  Code-level
SEP and BEP are the one-block case (n,) at m = 1 and m = log2 q, where
O_h = (h/n) E(h) and (h/(mn)) E~(h); `error_curve` is the one curve entry
point, code level and per user alike.

Conditioning restricts the enumerator to the allowed codewords, with no
Bayes renormalization, so conditional curves are joint-style quantities.
The contraction is the only route: no generating function is
materialised, substituted into or filtered to get a profile; the tests
keep that literal route as a reference and compare the two exactly.

`error_curve` reads a curve's exact coefficients once, as integer
numerators over one common denominator (`_numerators`), and they cross
the float boundary once per curve: as mu(w) for BM curves, and in
`_floats` as c / den for the union bound.  Both are integer true
divisions, which are correctly rounded (c / den is
float(Fraction(c, den)) and no Fraction is built).  `_bm_sum` and
`_ml_sum` then add the terms with `math.fsum`, which is correctly
rounded and so needs no sort.  `fractions` is loaded only where a value
is a Fraction: an 'atmost' condition.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .binary_avg import _horner, _times_one_plus_z, bits_per_symbol
from .mds_enum import (MdsParams, ParamOutOfRangeError, _validate_profile, binom,
                       fixed_support_counts, weight_distribution)

if TYPE_CHECKING:
    from fractions import Fraction


class ConditionCountMismatchError(ValueError):
    """Number of per-block conditions differs from the number of blocks."""


# -- channel -------------------------------------------------------------


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class ChannelPoint(NamedTuple):
    """Bit and symbol error rates at one SNR point."""

    p_bit: float
    p_symbol: float


def _linear_snr(gamma_db: float) -> float:
    """10^(gamma_db / 10), or inf where that exceeds the float64 range."""
    try:
        return 10.0 ** (gamma_db / 10.0)
    except OverflowError:
        return math.inf


def channel_map(gamma_db: float, n: int, k: int, m: int) -> ChannelPoint:
    """Map Eb/N0 in dB to bit/symbol error probabilities (rate-k/n BPSK)."""
    p_bit = q_function(math.sqrt(2.0 * (k / n) * _linear_snr(gamma_db)))
    p_symbol = p_bit if m == 1 else -math.expm1(m * math.log1p(-p_bit))
    return ChannelPoint(p_bit, p_symbol)


# -- bounded-minimum-distance decoding ------------------------------------


def _floats(exact: dict[int, int], den: int) -> dict[int, float]:
    """The union bound's float boundary: exact integer coefficients over
    the common denominator `den` become binary64 here only."""
    return {h: c / den for h, c in exact.items()}


def _sphere_spectrum(n: int, q: int, tau: int, exact: dict[int, int]) -> list[int]:
    """M(w) = sum_h c_h N(h, w) for w = 0..n, with c_h = exact[h] (module
    docstring): at exact = {h: 1}, the row N(h, .)."""
    spectrum = [0] * (n + 1)
    prefix = {}   # a -> [P(a, r) for r = 0..tau], kept while some h <= a + tau is to come
    for h in range(min(exact, default=n + 1), n + 1):
        prefix.pop(h - tau - 1, None)
        c = exact.get(h)
        if not c:
            continue
        off = n - h
        outside = [math.comb(off, e) * (q - 1) ** e for e in range(min(tau, off) + 1)]
        near = [0] * (2 * tau + 1)   # near[i] = N(h, h - tau + i)
        for s in range(min(h, tau) + 1):
            a = h - s
            if a not in prefix:
                row, term, total = [], 1, 0
                for o in range(tau + 1):
                    total += term
                    row.append(total)
                    term = term * (a - o) * (q - 2) // (o + 1)
                prefix[a] = row
            row = prefix[a]
            zeroed = math.comb(h, s)
            for e in range(min(tau - s, off) + 1):
                near[tau - s + e] += zeroed * outside[e] * row[tau - s - e]
        for i, v in enumerate(near):
            if v:
                spectrum[h - tau + i] += c * v
    return spectrum


def _bm_coefficients(n: int, q: int, tau: int, exact: dict[int, int],
                     den: int) -> dict[int, float]:
    """mu(w) = M(w) / (den C(n,w) (q-1)^w) for the w with M(w) > 0: the
    BM float boundary (module docstring).  Raises OverflowError before the
    spectrum is built when C(n, n//2), which `_bm_sum` reads, is not a float."""
    if math.comb(n, n // 2) > sys.float_info.max:
        raise OverflowError(f"C({n}, {n // 2}) exceeds the float64 range")
    return {w: c / (den * math.comb(n, w) * (q - 1) ** w)
            for w, c in enumerate(_sphere_spectrum(n, q, tau, exact)) if c}


def _bm_sum(coeffs: dict[int, float], n: int, p: float) -> float:
    """sum_w mu(w) C(n,w) p^w (1-p)^(n-w) over the coefficients mu(w).

    1 - p = hi + lo exactly, with hi the float 1 - p, and
    (hi + lo)^j = hi^j (1 + j lo/hi) to well below an ulp, so the rounding
    of 1 - p is not raised to the power n - w."""
    hi = 1.0 - p
    ratio = ((1.0 - hi) - p) / hi if hi else 0.0   # lo / hi
    return math.fsum([mu * math.comb(n, w) * p**w * hi ** (n - w) * (1.0 + (n - w) * ratio)
                      for w, mu in coeffs.items()])


# -- maximum-likelihood bounds on the binary image --------------------------

def _ml_sum(coeffs: dict[int, float], rate: float, gamma_db: float) -> float:
    """Union bound sum_h coeff(h) Q(sqrt(2 h rate g)) for BPSK/AWGN, clipped."""
    gamma = _linear_snr(gamma_db)
    return min(1.0, max(0.0, math.fsum([c * q_function(math.sqrt(2.0 * h * rate * gamma))
                                        for h, c in coeffs.items() if c])))


# -- multiuser conditioning -------------------------------------------------


class _ConditionFields(NamedTuple):
    kind: str
    fraction: Optional[Fraction]


class Condition(_ConditionFields):
    """Per-block constraint on codeword weight: free / zero / full, or at
    most a fraction of the block ('atmost').

    A tuple: it compares equal to the plain tuple (kind, fraction).
    """

    __slots__ = ()

    def __new__(cls, kind: str, fraction: Optional[Fraction] = None):
        if kind not in ("free", "zero", "full", "atmost"):
            raise ValueError(f"unknown condition kind {kind!r}")
        if (kind == "atmost") != (fraction is not None):
            raise ValueError("exactly the 'atmost' condition carries a fraction")
        if fraction is not None and not 0 <= fraction <= 1:
            raise ValueError(f"fraction {fraction} not in [0, 1]")
        return super().__new__(cls, kind, fraction)

    def __str__(self) -> str:
        return f"atmost:{self.fraction}" if self.kind == "atmost" else self.kind


FREE = Condition("free")
ZERO = Condition("zero")
FULL = Condition("full")


def at_most(fraction: Union[Fraction, float, str, int]) -> Condition:
    from fractions import Fraction

    return Condition("atmost", Fraction(fraction))


def parse_condition(token: str) -> Condition:
    token = token.strip().lower()
    if token in ("free", "zero", "full"):
        return Condition(token)
    if token.startswith("atmost:"):
        text = token[len("atmost:"):]
        try:
            return at_most(text)
        except ZeroDivisionError:
            raise ValueError(f"bad fraction {text!r} in {token!r}: zero denominator") from None
    raise ValueError(f"bad condition token {token!r}; "
                     "expected free, zero, full, or atmost:<fraction>")


def _cap(cond: Condition, block_total: int) -> int:
    """Largest weight a block that is not 'full' may carry."""
    if cond.kind == "zero":
        return 0
    if cond.kind == "atmost":
        return math.floor(cond.fraction * block_total)
    return block_total


def _user_profile(params: MdsParams, sizes: Sequence[int], user: int,
                  conditions: Sequence[Condition], m: int) -> tuple[dict[int, int], int]:
    """Conditioned profile of one user at m bits per symbol (m = 1: symbol
    level): total weight -> sum of the user's weight share, by the
    product-form contraction in the module docstring.  Returned as the
    nonzero integer numerators and their one common denominator."""
    if len(conditions) != len(sizes):
        raise ConditionCountMismatchError(
            f"{len(sizes)} blocks but {len(conditions)} conditions")
    if not 0 <= user < len(sizes):
        raise ValueError(f"user index {user} out of range for {len(sizes)} blocks")
    if conditions[user].kind in ("zero", "full"):
        raise ValueError("the user under study must have a free or atmost condition")
    _validate_profile(params, sizes, [0] * len(sizes))
    n, den = params.n, (1 << m) - 1
    full, conv = 0, [1]   # F = total size of the 'full' blocks; conv = U(w)
    for i, (size, cond) in enumerate(zip(sizes, conditions)):
        if cond.kind == "full":
            full += size
            continue
        hi = _cap(cond, size)
        row = [binom(size, w) * (w if i == user else 1) for w in range(hi + 1)]
        nxt = [0] * (len(conv) + hi)
        for w0, c0 in enumerate(conv):
            if c0:
                for w1, c1 in enumerate(row):
                    nxt[w0 + w1] += c0 * c1
        conv = nxt
    # H(Z) = sum_{w >= 1} s_w G^(w-1) with s_w = U(w) f(w+F) (2^m-1)^(n-w-F);
    # U(0) = 0, since the user's row carries the factor w
    f = fixed_support_counts(params)
    h = _horner([conv[w] * f[w + full] * den ** (n - w - full)
                 for w in range(1, len(conv))], m)
    # [Z^b] Z G'(Z) H(Z), with Z G'(Z) = m Z (1+Z)^(m-1)
    return ({b + 1 + m * full: m * c for b, c in enumerate(_times_one_plus_z(h, m - 1)) if c},
            den**n * m * sizes[user])


# -- SNR sweeps ----------------------------------------------------------------


class ErrorCurve(NamedTuple):
    """A decoder error-probability curve over an SNR grid."""

    decoder: str                       # "bm" or "ml-union"
    metric: str                        # "cep", "sep", or "bep"
    user: Optional[int]                # block index, or None for code-level
    conditions: Optional[tuple[Condition, ...]]
    points: tuple[tuple[float, float], ...]  # (gamma_db, probability)


MAX_SNR_POINTS = 100_000


def snr_grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop inclusive; a bad range or more
    than MAX_SNR_POINTS points raises ValueError before any is built."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("start, stop and step must be finite")
    if step <= 0:
        raise ValueError("step must be positive")
    if stop < start:
        raise ValueError("stop must not be below start")
    span = (stop - start) / step   # inf when the division overflows
    if not span <= MAX_SNR_POINTS - 1:
        raise ValueError(f"more than {MAX_SNR_POINTS} points")
    return [start + i * step for i in range(round(span) + 1)]


def _numerators(params: MdsParams, metric: str, sizes: Optional[Sequence[int]] = None,
                user: Optional[int] = None,
                conditions: Optional[Sequence[Condition]] = None
                ) -> tuple[dict[int, int], int]:
    """The exact coefficients of one curve as integer numerators over one
    denominator: E(h) for h >= d (CEP), or the profile of `user`, or else
    of the one block (n,), at the symbol level (SEP) or the bit level (BEP)."""
    if metric == "cep":
        weights = weight_distribution(params)
        return {h: weights[h] for h in range(params.d, params.n + 1)}, 1
    level = 1 if metric == "sep" else bits_per_symbol(params.q)
    return (_user_profile(params, (params.n,), 0, (FREE,), level) if user is None
            else _user_profile(params, sizes, user, conditions, level))


def _coefficients(params: MdsParams, metric: str, sizes: Optional[Sequence[int]] = None,
                  user: Optional[int] = None,
                  conditions: Optional[Sequence[Condition]] = None) -> dict[int, float]:
    """mu(w) of one CEP or SEP curve, by received weight: what `_bm_sum`
    reads, for the checks that sum it outside `error_curve`."""
    return _bm_coefficients(params.n, params.q, (params.d - 1) // 2,
                            *_numerators(params, metric, sizes, user, conditions))


def error_curve(params: MdsParams, gammas: Sequence[float], metric: str,
                sizes: Optional[Sequence[int]] = None, user: Optional[int] = None,
                conditions: Optional[Sequence[Condition]] = None) -> ErrorCurve:
    """CEP or SEP of the BM decoder, or the BEP union bound, over an SNR grid.

    Code level (no user): CEP reads E(h) for h >= d; SEP and BEP read the
    one-block profile (n,).  Per user: SEP or BEP of block `user` under `conditions`.
    """
    if (user is None) != (sizes is None) or (user is None) != (conditions is None):
        raise ValueError("sizes and conditions are given exactly when a user is")
    if metric not in ("cep", "sep", "bep"):
        raise ValueError(f"metrics are cep, sep and bep, not {metric!r}")
    if user is not None and metric == "cep":
        raise ValueError(f"per-user metrics are sep and bep, not {metric!r}")
    n, k, m = params.n, params.k, bits_per_symbol(params.q)
    exact, den = _numerators(params, metric, sizes, user, conditions)
    if metric == "bep":
        coeffs = _floats(exact, den)
        points = tuple((g, _ml_sum(coeffs, k / n, g)) for g in gammas)
    else:
        coeffs = _bm_coefficients(n, params.q, (params.d - 1) // 2, exact, den)
        points = tuple((g, _bm_sum(coeffs, n, channel_map(g, n, k, m).p_symbol))
                       for g in gammas)
    return ErrorCurve("ml-union" if metric == "bep" else "bm", metric, user,
                      None if conditions is None else tuple(conditions), points)
