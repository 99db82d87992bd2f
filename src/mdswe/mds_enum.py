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

`PweTable` is the one enumerator table type: `pwgf`, the exhaustive
tally (`linear_code.brute_force_pwe`) and the MacWilliams transform
(`duality.macwilliams_pwe`) all return it.  `check_rs_params` validates
Reed-Solomon parameters from q alone, so an ``rs:`` spec is checked
without loading the field arithmetic.  The nested alternating sum, the
evaluation kept independent of the product form, lives in `nested_sum`.
"""

from __future__ import annotations

import math
from itertools import product as iter_product
from typing import Mapping, NamedTuple, Sequence

from .primes import NotPrimeError, prime_power


class ProfileOutOfRangeError(ValueError):
    """A weight profile, size list, or index is outside its valid range."""


class ParamOutOfRangeError(ValueError):
    """A channel, distance or Krawtchouk parameter is outside its domain."""


class LengthExceedsFieldError(ValueError):
    """Requested RS length exceeds q - 1."""


def check_rs_params(q: int, n: int, k: int) -> None:
    """Raise ValueError unless GF(q) has an (n, k) Reed-Solomon code:
    q a prime power and 1 <= k <= n <= q - 1."""
    if prime_power(q) is None:
        raise NotPrimeError(f"{q} is not a prime power")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > q - 1:
        raise LengthExceedsFieldError(f"length {n} exceeds q-1 = {q - 1}")


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


def pwe_product(params: MdsParams, sizes: Sequence[int],
                profile: Sequence[int]) -> int:
    """Partition weight enumerator via f(w) * prod C(n_i,w_i), w = sum w_i."""
    _validate_profile(params, sizes, profile)
    return fixed_support_counts(params)[sum(profile)] * \
        math.prod(binom(s, x) for s, x in zip(sizes, profile))


def _profiles_in_range(sizes: tuple[int, ...], profiles) -> bool:
    """Whether every profile has one weight per block, within its size:
    one pass over the lengths, then one min and one max per block."""
    if not set(map(len, profiles)) <= {len(sizes)}:
        return False
    return all(0 <= min(col) and max(col) <= s
               for col, s in zip(zip(*profiles), sizes))


class PweTable:
    """Exact partition weight enumerator: profile tuple -> codeword count.

    `sizes` are the block sizes and `counts` maps each weight profile
    (w_1..w_p) with a nonzero count to that count; zero counts are
    dropped.  `len` is the number of nonzero profiles.  A profile outside
    the block sizes raises ValueError.
    """

    __slots__ = ("sizes", "counts")

    def __init__(self, sizes: Sequence[int], counts: Mapping[Sequence[int], int]):
        self.sizes = tuple(sizes)
        if not _profiles_in_range(self.sizes, counts):
            for profile in counts:   # name the first profile out of range
                profile = tuple(profile)
                if len(profile) != len(self.sizes) or any(
                        not 0 <= w <= s for w, s in zip(profile, self.sizes)):
                    raise ValueError(
                        f"profile {profile} out of range for sizes {self.sizes}")
        self.counts = {tuple(profile): c for profile, c in counts.items() if c}

    def total(self) -> int:
        return sum(self.counts.values())

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other) -> bool:
        if isinstance(other, PweTable):
            return self.sizes == other.sizes and self.counts == other.counts
        return NotImplemented

    def __repr__(self) -> str:
        return f"PweTable(sizes={self.sizes!r}, counts={self.counts!r})"


def pwgf(params: MdsParams, sizes: Sequence[int]) -> PweTable:
    """The full partition weight enumerator, every profile by the product form.

    The count at profile (w_1..w_p) is the coefficient of X_1^w_1 ...
    X_p^w_p in the partition weight generating function; the counts sum
    to q^k.
    """
    _validate_profile(params, sizes, [0] * len(sizes))
    counts = fixed_support_counts(params)
    rows = [[math.comb(s, x) for x in range(s + 1)] for s in sizes]
    terms: dict[tuple[int, ...], int] = {}
    for profile, binoms in zip(iter_product(*[range(s + 1) for s in sizes]),
                               iter_product(*rows)):
        f = counts[sum(profile)]
        if f:
            terms[profile] = f * math.prod(binoms)
    return PweTable(sizes, terms)


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
