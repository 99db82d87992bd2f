"""Closed-form partition weight enumerators of MDS codes.

Everything here is exact big-integer combinatorics; no floating point.

For an (n, k) MDS code over GF(q) with d = n - k + 1, the number of
codewords nonzero exactly on one fixed h-subset of coordinates is the
same for every subset:

    f(0) = 1,  f(h) = 0 for 0 < h < d,
    f(h) = sum_{j=d}^{h} C(h,j) (-1)^(h-j) (q^(j-d+1) - 1).

`fixed_support_counts` tabulates f(0..n) by a one-term recurrence (the
tests keep the alternating sum as its reference).  Every closed form
multiplies by f and none divides: the weight distribution is
E(h) = C(n,h) f(h), and `pwe_product` and `pwgf` give the partition
weight enumerator f(w) prod C(n_i, w_i) with w = sum w_i, of which
`iowe` and `coordinate_weight_sum` are the two-block and one-coordinate
cases.

For blocks of sizes (n_1..n_p) and a weight profile (w_1..w_p), the
partition weight enumerator has two independent evaluations: that
product form, and the nested alternating sum over indices j_1..j_p,
where the innermost index runs from max(0, d - sum of the earlier
indices) so that the power of q is always positive.  The nested sum has
two entry points over one depth-first walk of the blocks: `pwe_direct`
for one profile and `pwe_direct_table` for every profile of a partition.
Neither calls `fixed_support_counts`, the product form, or a Vandermonde
collapse of the sum, so the two evaluations stay independent: both must
agree with each other and with exhaustive enumeration
(`linear_code.brute_force_pwe`), and ``mdswe verify --suite oracle``
checks this coefficient for coefficient.
"""

from __future__ import annotations

import math
import operator
from itertools import product as iter_product
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .primes import prime_power

if TYPE_CHECKING:
    from .poly import SparsePoly


class ProfileOutOfRangeError(ValueError):
    """A weight profile, size list, or index is outside its valid range."""


class ParamOutOfRangeError(ValueError):
    """A channel, distance or Krawtchouk parameter is outside its domain."""


def binom(n: int, r: int) -> int:
    """C(n, r) with out-of-range indices giving 0."""
    if r < 0 or n < 0 or r > n:
        return 0
    return math.comb(n, r)


class _MdsFields(NamedTuple):
    n: int
    k: int
    q: int


class MdsParams(_MdsFields):
    """Parameters (n, k, q) of an MDS code; d = n - k + 1.

    A tuple: it compares equal to the plain tuple (n, k, q).
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, q: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if prime_power(q) is None:
            raise ValueError(f"q={q} is not a prime power")
        return super().__new__(cls, n, k, q)

    @property
    def d(self) -> int:
        return self.n - self.k + 1


def fixed_support_counts(params: MdsParams) -> list[int]:
    """f(0..n): codewords nonzero exactly on one fixed h-subset of coordinates.

    f(0) = 1, f(h) = 0 for 0 < h < d, and f(h) = (q - 1) S(h) for h >= d,
    where S(d) = 1 and

        S(h+1) = (q - 1) S(h) + (-1)^(h+1-d) C(h-1, d-2),

    so each step is one small multiply and one add.  The weight
    distribution is E(h) = C(n,h) f(h).
    """
    n, q, d = params.n, params.q, params.d
    counts = [1] + [0] * n
    s = 1
    for h in range(d, n + 1):
        counts[h] = (q - 1) * s
        s = (q - 1) * s + (-1) ** (h + 1 - d) * binom(h - 1, d - 2)
    return counts


def weight_distribution(params: MdsParams) -> list[int]:
    """The full weight distribution vector E(0..n)."""
    return [binom(params.n, h) * f for h, f in enumerate(fixed_support_counts(params))]


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


def pwe_product(params: MdsParams, sizes: Sequence[int],
                profile: Sequence[int]) -> int:
    """Partition weight enumerator via f(w) * prod C(n_i,w_i), w = sum w_i."""
    _validate_profile(params, sizes, profile)
    return fixed_support_counts(params)[sum(profile)] * \
        math.prod(binom(s, x) for s, x in zip(sizes, profile))


def pwgf(params: MdsParams, sizes: Sequence[int]) -> SparsePoly:
    """The full partition weight generating polynomial.

    Coefficient of X_1^w_1 ... X_p^w_p is the number of codewords with
    that weight profile; the coefficients sum to q^k.
    """
    from .poly import SparsePoly

    _validate_profile(params, sizes, [0] * len(sizes))
    counts = fixed_support_counts(params)
    terms: dict[tuple[int, ...], int] = {}
    for profile in iter_product(*[range(s + 1) for s in sizes]):
        f = counts[sum(profile)]
        if f:
            terms[profile] = f * math.prod(binom(s, x) for s, x in zip(sizes, profile))
    return SparsePoly(len(sizes), terms)


def iowe(params: MdsParams, s: int, w: int, h: int) -> int:
    """Input-output weight enumerator for an (s, n-s) coordinate split.

    Counts codewords of total weight h carrying weight w on a fixed set
    of s coordinates: f(h) * C(s,w) * C(n-s,h-w).  Profiles that are in
    range but unrealizable (w > h or h - w > n - s) count zero.
    """
    n = params.n
    if not 0 <= s <= n:
        raise ProfileOutOfRangeError(f"s={s} not in [0, {n}]")
    if not 0 <= w <= s or not 0 <= h <= n:
        raise ProfileOutOfRangeError(f"(w, h) = ({w}, {h}) out of range")
    return fixed_support_counts(params)[h] * binom(s, w) * binom(n - s, h - w)


def coordinate_weight_sum(params: MdsParams, h: int) -> int:
    """Total weight of any one coordinate over the weight-h subcode.

    Equals C(n-1,h-1) * f(h) = h * E(h) / n.
    """
    if not 0 <= h <= params.n:
        raise ProfileOutOfRangeError(f"h={h} not in [0, {params.n}]")
    return binom(params.n - 1, h - 1) * fixed_support_counts(params)[h]


def psi(params: MdsParams, h: int, w: int) -> int:
    """Alternating-sum kernel of the split enumerator.

    psi(h, w) is the split weight enumerator at profile (w, h-w) divided
    by its two binomial factors; psi(h, 0) = f(h) = E(h) / C(n,h).
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
