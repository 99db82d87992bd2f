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

The walk's vector for a prefix (w_1..w_i) of a profile, the
convolution of the signed binomial rows C(w_j, .)(-1)^(w_j - .) over its
blocks, depends on the prefix alone and not on q, d or the block sizes.
`_prefix_row` computes it once per process from its parent prefix's
vector, and every table and profile that shares the prefix reads it.
This is not the collapse: the convolution stays explicit and is keyed
by the ordered prefix, so (1, 2), (2, 1) and (3,) are three entries,
each convolved block by block, although Vandermonde's identity makes
their vectors equal.

The walk skips what the sum's own index bounds make zero.  The running
total J of the earlier indices never exceeds the prefix weight
w_1 + ... + w_(p-1), so when the profile's total weight is below d, every
innermost range max(0, d - J) .. w_p is empty and the profile's sum is 0:
the walk passes over such a leaf, and over a whole subtree when even the
largest weights left in its blocks cannot lift the prefix to d.  This
reads the empty ranges off the formula; it does not use the MDS fact
that no nonzero codeword has weight below d (f(h) = 0 for 0 < h < d), so
the oracle still owes nothing to the product form.  Most profiles of a
low-rate code lie below d: the oracle suite evaluates about one in seven
of the unpruned walk's sums.

`psi` is the two-block kernel of the same sum, and
`check_convolution_identity` and `check_subset_identity` check the
flatness identities it satisfies.  Only the verification suites and the
tests use this module; the closed forms never load it.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple, Sequence

from .mds_enum import MdsParams, ProfileOutOfRangeError, _validate_profile, binom


def _signed_binomials(w: int) -> list[int]:
    """C(w, j) (-1)^(w - j) for j = 0..w."""
    return [binom(w, j) * (-1) ** (w - j) for j in range(w + 1)]


@functools.lru_cache(maxsize=1 << 13)
def _prefix_row(prefix: tuple[int, ...]) -> tuple[int, ...]:
    """The vector over J = j_1 + ... + j_i of sum prod C(w_i, j_i) (-1)^(w_i - j_i)
    for the prefix (w_1..w_i), by convolving its parent prefix's vector
    with the signed binomials of w_i.  It depends on the ordered weights
    alone, not on q, d or the block sizes, so every table shares it."""
    if not prefix:
        return (1,)
    vec = _prefix_row(prefix[:-1])
    row = _signed_binomials(prefix[-1])
    conv = [0] * (len(vec) + len(row) - 1)
    for a, v in enumerate(vec):
        if v:
            for b, r in enumerate(row):
                conv[a + b] += v * r
    return tuple(conv)


def _nested_sum(params: MdsParams, sizes: Sequence[int],
                choices: Sequence[Sequence[int]]) -> dict[tuple[int, ...], int]:
    """The nested alternating sum at every profile in the product of `choices`.

    `choices[i]` lists the weights of block i to evaluate.  A depth-first
    walk over the blocks carries, for each prefix (w_1..w_i), its binomial
    scale prod C(n_i, w_i); the prefix's vector over the running index
    total J = j_1 + ... + j_i comes from `_prefix_row`.  The last block's
    inner sum

        T(w, J) = sum_{j = max(0, d - J)}^{w} C(w, j) (-1)^(w - j) (q^(J + j - d + 1) - 1)

    is tabulated once over J, times the last block's C(n_p, w), so each
    profile costs one dot product.  The walk carries the prefix weight
    w_1 + ... + w_i, an upper bound on J, and skips every leaf and subtree
    whose profiles all weigh less than d: each of their inner ranges is
    empty.  Entries that vanish are left out.
    """
    q, d = params.q, params.d
    *head, last = choices
    top = sum(max(ws) for ws in head)
    tails = {}
    for w in last:
        row = _signed_binomials(w)
        size_binom = binom(sizes[-1], w)
        tails[w] = [size_binom * sum(row[j] * (q ** (acc + j - d + 1) - 1)
                                     for j in range(max(0, d - acc), w + 1))
                    if acc + w >= d else 0 for acc in range(top + 1)]
    # room[i]: the most weight blocks i..p-1 can still add to a prefix
    room = [0] * (len(choices) + 1)
    for i in reversed(range(len(choices))):
        room[i] = room[i + 1] + max(choices[i])
    table: dict[tuple[int, ...], int] = {}

    def walk(i: int, prefix: tuple[int, ...], weight: int, scale: int) -> None:
        if i == len(head):
            vec = _prefix_row(prefix)
            for w in last:
                if weight + w < d:
                    continue   # J <= weight: every inner range is empty
                total = sum(map(operator.mul, vec, tails[w]))
                if total:
                    table[(*prefix, w)] = scale * total
            return
        for w in head[i]:
            if weight + w + room[i + 1] >= d:
                walk(i + 1, (*prefix, w), weight + w, scale * binom(sizes[i], w))

    walk(0, (), 0, 1)
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
    if h == 0:
        return 1   # f(0) = E(0): the zero word, which the sum over q-powers leaves out
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
