"""Krawtchouk polynomials, the MacWilliams transform of a partition weight
enumerator with any number of blocks, and the uniform-coordinate-weight
property.

A code has the uniform-coordinate-weight property (referred to as
"property A" throughout) when, inside every fixed-weight subcode, each
coordinate carries exactly the average share h*E(h)/n of the total
weight.  Equivalently any s coordinates carry the fraction s/n; the
per-coordinate check used here is exact and equivalent because an
s-subset sum is the sum of its per-coordinate sums.  MDS codes have the
property; a code has it iff its dual does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linear_code import LinearCode, dual, support_histogram
from .mds_enum import ParamOutOfRangeError, PweTable, binom


class IncompleteTableError(ValueError):
    """The transform needs the complete enumerator of a code."""


class NonIntegerResultError(ValueError):
    """Transform output is not a nonnegative integer table; the input was
    not the enumerator of a linear code."""


def krawtchouk(q: int, beta: int, v: int, gamma: int) -> int:
    """K_beta(v, gamma) over GF(q):

        sum_j C(gamma-v, beta-j) C(v, j) (-1)^j (q-1)^(beta-j)
    """
    if not 0 <= beta <= gamma or not 0 <= v <= gamma:
        raise ParamOutOfRangeError(
            f"need 0 <= beta, v <= gamma; got beta={beta}, v={v}, gamma={gamma}")
    return sum(binom(gamma - v, beta - j) * binom(v, j) * (-1) ** j
               * (q - 1) ** (beta - j) for j in range(beta + 1))


def krawtchouk_matrix(q: int, gamma: int) -> list[list[int]]:
    """rows[v][beta] = K_beta(v, gamma) over GF(q), for 0 <= v, beta <= gamma.

    Row v is the coefficient list of

        sum_beta K_beta(v, gamma) z^beta = (1 + (q-1) z)^(gamma-v) (1 - z)^v,

    so row v + 1 is row v times (1 - z), divided exactly by 1 + (q-1) z:
    O(gamma) integer operations per row, where `krawtchouk`, the
    reference, spends O(gamma) on each entry.
    """
    row = [binom(gamma, beta) * (q - 1) ** beta for beta in range(gamma + 1)]
    rows = [row]
    for _ in range(gamma):
        nxt, prev, quot = [], 0, 0
        for c in row:
            # coefficient of (1 - z) * row, less (q-1) z times the quotient so far
            quot = c - prev - (q - 1) * quot
            prev = c
            nxt.append(quot)
        row = nxt
        rows.append(row)
    return rows


def macwilliams_pwe(table: PweTable, q: int, k: int) -> PweTable:
    """MacWilliams transform of a p-block enumerator: the dual code's enumerator.

        A_dual(a) = (1/q^k) sum_w A(w) prod_i K_{a_i}(w_i, n_i)

    for any number p >= 1 of blocks.  The sum is separable, so block i's
    Krawtchouk matrix (`krawtchouk_matrix`, O(n_i^2) to build) is applied
    along axis i, one block at a time, in exact integers, and q^k divides
    once at the end: prod(n_i + 1) * sum(n_i + 1) operations.
    """
    size = q**k
    if table.total() != size:
        raise IncompleteTableError(
            f"table total {table.total()} != q^k = {size}; not a complete enumerator")
    counts = table.counts
    for i, n_i in enumerate(table.sizes):
        # kraw[w][a] = K_a(w, n_i): one row per input weight w on block i
        kraw = krawtchouk_matrix(q, n_i)
        out: dict[tuple[int, ...], int] = {}
        for profile, c in counts.items():
            head, tail = profile[:i], profile[i + 1:]
            for a, kr in enumerate(kraw[profile[i]]):
                key = (*head, a, *tail)
                out[key] = out.get(key, 0) + c * kr
        counts = out
    for profile in sorted(counts):
        if counts[profile] % size or counts[profile] < 0:
            raise NonIntegerResultError(
                f"transform entry at {profile} is {counts[profile]}/{size}; "
                "input is not a linear code's enumerator")
    return PweTable(table.sizes, {profile: s // size for profile, s in counts.items()})


@dataclass(frozen=True)
class PropertyAWitness:
    coordinate: int
    weight: int
    observed: int
    expected: Fraction


@dataclass(frozen=True)
class PropertyAReport:
    """Outcome of the uniform-coordinate-weight check.

    The property holds iff `witnesses` is empty; each witness records a
    (coordinate, weight class) pair whose observed coordinate weight sum
    differs from h*E(h)/n.
    """

    witnesses: tuple[PropertyAWitness, ...]
    method = ("per-coordinate sums compared exactly against h*E(h)/n; "
              "subset sums are linear in coordinate sums, so this is "
              "equivalent to the all-subsets statement")

    @property
    def holds(self) -> bool:
        return not self.witnesses

    def __bool__(self) -> bool:
        return self.holds


def property_a_check(code: LinearCode, budget: Optional[int] = None) -> PropertyAReport:
    """Check the uniform-coordinate-weight property by exhaustive tally."""
    import numpy as np

    hist = support_histogram(code, budget)
    n = code.n
    weights = np.zeros(n + 1, dtype=np.int64)
    # per_coord[h][i]: total count of the weight-h masks covering coordinate i
    per_coord = np.zeros((n + 1, n), dtype=np.int64)
    for bits, counts in hist.bit_chunks():
        weight = bits.sum(axis=1)
        np.add.at(weights, weight, counts)
        np.add.at(per_coord, weight, bits * counts[:, None])
    weights, per_coord = weights.tolist(), per_coord.tolist()
    witnesses = []
    for h in range(1, n + 1):
        if weights[h] == 0:
            continue
        expected = Fraction(h * weights[h], n)
        for i in range(n):
            if per_coord[h][i] != expected:
                witnesses.append(PropertyAWitness(i, h, per_coord[h][i], expected))
    return PropertyAReport(tuple(witnesses))


def dual_property_a(code: LinearCode, budget: Optional[int] = None) -> tuple[bool, bool]:
    """(property holds for C, property holds for dual(C)); always equal."""
    return (property_a_check(code, budget).holds,
            property_a_check(dual(code), budget).holds)
