"""The nested alternating sum: an evaluation of the partition weight
enumerator independent of the product form, kept as an oracle.

For blocks of sizes (n_1..n_p) and a weight profile (w_1..w_p) of an
(n, k) MDS code over GF(q), the partition weight enumerator is the
product form f(w) prod C(n_i, w_i) of `mds_enum.pwgf`, and also the
nested alternating sum over indices j_1..j_p, where the innermost index
runs from max(0, d - sum of the earlier indices) so that the power of q
is always positive.  The nested sum has two entry points over one
depth-first walk of the blocks: `pwe_direct` for one profile and
`pwe_direct_table` for every profile of a partition.  Neither calls
`mds_enum.fixed_support_counts`, the product form, or a Vandermonde
collapse of the sum, so the two evaluations stay independent: both must
agree with each other and with exhaustive enumeration
(`linear_code.brute_force_pwe`), and ``mdswe verify --suite oracle``
checks this coefficient for coefficient.

`psi` is the two-block kernel of the same sum, and
`check_convolution_identity` and `check_subset_identity` check the
flatness identities it satisfies.  Only the verification suites and the
tests use this module; the closed forms never load it.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Sequence

from .mds_enum import MdsParams, ProfileOutOfRangeError, _validate_profile, binom


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
    `pwgf(params, sizes).counts`, but by the route of `pwe_direct`.
    """
    _validate_profile(params, sizes, [0] * len(sizes))
    return _nested_sum(params, sizes, [range(s + 1) for s in sizes])




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
