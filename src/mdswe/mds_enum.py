"""Closed-form partition weight enumerators of MDS codes.

Everything here is exact big-integer combinatorics; no floating point.

For an (n, k) MDS code over GF(q) with d = n - k + 1, the weight
distribution is

    E(0) = 1,  E(i) = 0 for 0 < i < d,
    E(i) = C(n,i) * sum_{j=d}^{i} C(i,j) (-1)^(i-j) (q^(j-d+1) - 1)

and the partition weight enumerator for blocks of sizes (n_1..n_p) and a
weight profile (w_1..w_p) admits two independent evaluations:

  * the nested alternating sum over indices j_1..j_p, where the innermost
    index runs from max(0, d - sum of the earlier indices) so that the
    power of q is always positive;
  * `pwe_product` - E(w) * prod C(n_i, w_i) / C(n, w) with w = sum w_i,
    an exact integer division (`pwgf` tabulates it for a partition).

The nested sum has two entry points over one depth-first walk of the
blocks: `pwe_direct` for one profile and `pwe_direct_table` for every
profile of a partition.  Neither calls `weight_at`, the product form, or
a Vandermonde collapse of the sum, so the two evaluations stay
independent: both must agree with each other and with exhaustive
enumeration (`linear_code.brute_force_pwe`), and ``mdswe verify --suite
oracle`` checks this coefficient for coefficient.  The conventions
E(0) = 1 and E(h) = 0 below d let the product form cover every profile,
not only those of weight >= d.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product as iter_product
from typing import NamedTuple, Sequence

from .primes import prime_power
from .poly import SparsePoly


class ProfileOutOfRangeError(ValueError):
    """A weight profile, size list, or index is outside its valid range."""


class ParamOutOfRangeError(ValueError):
    """A channel, distance or Krawtchouk parameter is outside its domain."""


class InternalError(ArithmeticError):
    """An exact division guaranteed by theory failed (implementation bug)."""


def binom(n: int, r: int) -> int:
    """C(n, r) with out-of-range indices giving 0."""
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


@dataclass(frozen=True)
class MdsParams:
    """Parameters (n, k, q) of an MDS code; d = n - k + 1."""

    n: int
    k: int
    q: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if prime_power(self.q) is None:
            raise ValueError(f"q={self.q} is not a prime power")

    @property
    def d(self) -> int:
        return self.n - self.k + 1


def weight_at(params: MdsParams, w: int) -> int:
    """E(w): number of codewords of Hamming weight w."""
    if not 0 <= w <= params.n:
        raise ProfileOutOfRangeError(f"weight {w} not in [0, {params.n}]")
    d, q = params.d, params.q
    if w == 0:
        return 1
    if w < d:
        return 0
    s = sum(binom(w, j) * (-1) ** (w - j) * (q ** (j - d + 1) - 1)
            for j in range(d, w + 1))
    return binom(params.n, w) * s


def weight_distribution(params: MdsParams) -> list[int]:
    """The full weight distribution vector E(0..n)."""
    return [weight_at(params, w) for w in range(params.n + 1)]


def _validate_profile(params: MdsParams, sizes: Sequence[int],
                      profile: Sequence[int]) -> None:
    if any(s <= 0 for s in sizes):
        raise ProfileOutOfRangeError(f"block sizes must be positive: {tuple(sizes)}")
    if sum(sizes) != params.n:
        raise ProfileOutOfRangeError(
            f"block sizes {tuple(sizes)} sum to {sum(sizes)}, expected n={params.n}")
    if len(profile) != len(sizes):
        raise ProfileOutOfRangeError("profile length differs from block count")
    if any(not 0 <= w <= s for w, s in zip(profile, sizes)):
        raise ProfileOutOfRangeError(f"profile {tuple(profile)} exceeds {tuple(sizes)}")


def _nested_sum(params: MdsParams, sizes: Sequence[int],
                choices: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
    """The nested alternating sum at every profile in the product of `choices`.

    `choices[i]` lists the weights of block i to evaluate.  A depth-first
    walk over the blocks carries, for each prefix (w_1..w_i), its binomial
    scale prod C(n_i, w_i) and the vector over the running index total
    J = j_1 + ... + j_i of sum prod C(w_i, j_i) (-1)^(w_i - j_i); profiles
    sharing a prefix share its convolutions.  The last block's inner sum

        T(w, J) = sum_{j = max(0, d - J)}^{w} C(w, j) (-1)^(w - j) (q^(J + j - d + 1) - 1)

    is tabulated once over J, so each profile costs one dot product.
    Entries that vanish are left out.
    """
    q, d = params.q, params.d
    *head, last = choices
    top = sum(max(ws) for ws in head)
    rows = {w: [binom(w, j) * (-1) ** (w - j) for j in range(w + 1)]
            for ws in choices for w in ws}
    tails = {w: [sum(rows[w][j] * (q ** (acc + j - d + 1) - 1)
                     for j in range(max(0, d - acc), w + 1))
                 for acc in range(top + 1)]
             for w in last}
    table: dict[tuple[int, ...], int] = {}

    def walk(i: int, prefix: tuple[int, ...], vec: list[int], scale: int) -> None:
        if i == len(head):
            for w in last:
                total = sum(map(operator.mul, vec, tails[w]))
                if total:
                    table[(*prefix, w)] = scale * binom(sizes[i], w) * total
            return
        for w in head[i]:
            row = rows[w]
            conv = [0] * (len(vec) + w)
            for a, v in enumerate(vec):
                if v:
                    for b, r in enumerate(row):
                        conv[a + b] += v * r
            walk(i + 1, (*prefix, w), conv, scale * binom(sizes[i], w))

    walk(0, (), [1], 1)
    if all(0 in ws for ws in choices):
        table[(0,) * len(choices)] = 1
    return table


def pwe_direct(params: MdsParams, sizes: Sequence[int],
               profile: Sequence[int]) -> int:
    """Partition weight enumerator via the nested alternating sum.

    The one-profile case of `pwe_direct_table`; retained as an
    implementation independent of `pwe_product` for cross-validation.
    """
    _validate_profile(params, sizes, profile)
    profile = tuple(profile)
    return _nested_sum(params, sizes, [(w,) for w in profile]).get(profile, 0)


def pwe_direct_table(params: MdsParams, sizes: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Nested-sum enumerator at every profile of one partition.

    Maps each profile with a nonzero count to that count, like
    `pwgf(params, sizes).terms`, but by the route of `pwe_direct`.
    """
    _validate_profile(params, sizes, [0] * len(sizes))
    return _nested_sum(params, sizes, [range(s + 1) for s in sizes])


def _product_count(e_w: int, n: int, w: int, sizes: Sequence[int],
                   profile: Sequence[int]) -> int:
    num = e_w * math.prod(binom(s, x) for s, x in zip(sizes, profile))
    den = binom(n, w)
    count, rem = divmod(num, den)
    if rem:
        raise InternalError(
            f"E({w}) * prod C(n_i,w_i) = {num} not divisible by C({n},{w}) = {den}")
    return count


def pwe_product(params: MdsParams, sizes: Sequence[int],
                profile: Sequence[int]) -> int:
    """Partition weight enumerator via E(w) * prod C(n_i,w_i) / C(n,w)."""
    _validate_profile(params, sizes, profile)
    w = sum(profile)
    return _product_count(weight_at(params, w), params.n, w, sizes, profile)


def pwgf(params: MdsParams, sizes: Sequence[int]) -> SparsePoly:
    """The full partition weight generating polynomial.

    Coefficient of X_1^w_1 ... X_p^w_p is the number of codewords with
    that weight profile; the coefficients sum to q^k.
    """
    _validate_profile(params, sizes, [0] * len(sizes))
    weights = weight_distribution(params)
    terms: dict[tuple[int, ...], int] = {}
    for profile in iter_product(*[range(s + 1) for s in sizes]):
        w = sum(profile)
        if weights[w] == 0:
            continue
        terms[profile] = _product_count(weights[w], params.n, w, sizes, profile)
    return SparsePoly(len(sizes), terms)


def iowe(params: MdsParams, s: int, w: int, h: int) -> int:
    """Input-output weight enumerator for an (s, n-s) coordinate split.

    Counts codewords of total weight h carrying weight w on a fixed set
    of s coordinates: E(h) * C(s,w) * C(n-s,h-w) / C(n,h).  Profiles that
    are in range but unrealizable (w > h or h - w > n - s) count zero.
    """
    n = params.n
    if not 0 <= s <= n:
        raise ProfileOutOfRangeError(f"s={s} not in [0, {n}]")
    if not 0 <= w <= s or not 0 <= h <= n:
        raise ProfileOutOfRangeError(f"(w, h) = ({w}, {h}) out of range")
    if w > h or h - w > n - s:
        return 0
    e = weight_at(params, h)
    num = e * binom(s, w) * binom(n - s, h - w)
    count, rem = divmod(num, binom(n, h))
    if rem:
        raise InternalError(f"IOWE division not exact at s={s}, w={w}, h={h}")
    return count


def fixed_support_count(params: MdsParams, h: int) -> int:
    """Codewords nonzero exactly on one fixed h-subset of coordinates.

    Equals E(h) / C(n,h); zero for 0 < h < d, one for h = 0.
    """
    if not 0 <= h <= params.n:
        raise ProfileOutOfRangeError(f"h={h} not in [0, {params.n}]")
    e = weight_at(params, h)
    if e == 0:
        return 0
    count, rem = divmod(e, binom(params.n, h))
    if rem:
        raise InternalError(f"E({h}) = {e} not divisible by C({params.n},{h})")
    return count


def coordinate_weight_sum(params: MdsParams, h: int) -> int:
    """Total weight of any one coordinate over the weight-h subcode.

    Equals h * E(h) / n, an exact integer for MDS codes.
    """
    if not 0 <= h <= params.n:
        raise ProfileOutOfRangeError(f"h={h} not in [0, {params.n}]")
    num = h * weight_at(params, h)
    count, rem = divmod(num, params.n)
    if rem:
        raise InternalError(f"h*E(h) = {num} not divisible by n = {params.n}")
    return count


def psi(params: MdsParams, h: int, w: int) -> int:
    """Alternating-sum kernel of the split enumerator.

    psi(h, w) is the split weight enumerator at profile (w, h-w) divided
    by its two binomial factors; psi(h, 0) = E(h) / C(n,h).
    """
    q, d = params.q, params.d
    total = 0
    for j in range(w + 1):
        inner = 0
        for i in range(max(0, d - j), h - w + 1):
            inner += binom(h - w, i) * (-1) ** (h - w - i) * (q ** (i + j - d + 1) - 1)
        total += binom(w, j) * (-1) ** (w - j) * inner
    return total


class IdentityCheck(NamedTuple):
    holds: bool
    lhs: int
    rhs: int


def check_convolution_identity(params: MdsParams, h: int) -> IdentityCheck:
    """Binomial convolution of psi against the (k, n-k) split is flat:

        sum_w C(k,w) C(n-k,h-w) psi(h,w)  ==  psi(h,0) * sum_w C(k,w) C(n-k,h-w)

    for d <= h <= n.  Both sides are returned for inspection.
    """
    n, k = params.n, params.k
    if not params.d <= h <= n:
        raise ProfileOutOfRangeError(f"h={h} not in [{params.d}, {n}]")
    lhs = sum(binom(k, w) * binom(n - k, h - w) * psi(params, h, w)
              for w in range(k + 1))
    rhs = psi(params, h, 0) * sum(binom(k, w) * binom(n - k, h - w)
                                  for w in range(k + 1))
    return IdentityCheck(lhs == rhs, lhs, rhs)


def check_subset_identity(params: MdsParams, s: int, h: int) -> IdentityCheck:
    """The weighted form of the flatness identity, for any s coordinates:

        sum_{w>=1} C(s-1,w-1) C(n-s,h-w) psi(h,w)
            ==  psi(h,0) * sum_{w>=1} C(s-1,w-1) C(n-s,h-w).
    """
    n = params.n
    if not 1 <= s <= n:
        raise ProfileOutOfRangeError(f"s={s} not in [1, {n}]")
    if not params.d <= h <= n:
        raise ProfileOutOfRangeError(f"h={h} not in [{params.d}, {n}]")
    lhs = sum(binom(s - 1, w - 1) * binom(n - s, h - w) * psi(params, h, w)
              for w in range(1, s + 1))
    rhs = psi(params, h, 0) * sum(binom(s - 1, w - 1) * binom(n - s, h - w)
                                  for w in range(1, s + 1))
    return IdentityCheck(lhs == rhs, lhs, rhs)
