"""Krawtchouk polynomials, the two-block MacWilliams transform, and the
uniform-coordinate-weight property.

A code has the uniform-coordinate-weight property (referred to as
"property A" throughout) when, inside every fixed-weight subcode, each
coordinate carries exactly the average share h*E(h)/n of the total
weight.  Equivalently any s coordinates carry the fraction s/n; the
per-coordinate check used here is exact and equivalent because an
s-subset sum is the sum of its per-coordinate sums.  MDS codes have the
property; a code has it iff its dual does.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional

from .linear_code import LinearCode, PweTable, dual, support_histogram
from .mds_enum import ParamOutOfRangeError, binom


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


def macwilliams_wgf(weights, n: int, q: int, k: int) -> list[int]:
    """Classical MacWilliams transform of a weight distribution."""
    size = q**k
    out = []
    for j in range(n + 1):
        s = sum(weights[i] * krawtchouk(q, j, i, n) for i in range(n + 1))
        val, rem = divmod(s, size)
        if rem or val < 0:
            raise NonIntegerResultError(f"transform not a valid distribution at j={j}")
        out.append(val)
    return out


def macwilliams_pwe(table: PweTable, q: int, k: int) -> PweTable:
    """Two-block MacWilliams transform: the dual code's enumerator.

        A_dual(a, b) = (1/q^k) sum_{w,v} A(w,v) K_a(w,n1) K_b(v,n2)
    """
    if len(table.sizes) != 2:
        raise ValueError(f"transform defined for 2 blocks, got {len(table.sizes)}")
    n1, n2 = table.sizes
    size = q**k
    if table.total() != size:
        raise IncompleteTableError(
            f"table total {table.total()} != q^k = {size}; not a complete enumerator")
    k1 = [[krawtchouk(q, a, w, n1) for w in range(n1 + 1)] for a in range(n1 + 1)]
    k2 = [[krawtchouk(q, b, v, n2) for v in range(n2 + 1)] for b in range(n2 + 1)]
    items = list(table.counts.items())
    out: dict[tuple[int, int], int] = {}
    for a in range(n1 + 1):
        for b in range(n2 + 1):
            s = sum(c * k1[a][w] * k2[b][v] for (w, v), c in items)
            val, rem = divmod(s, size)
            if rem or val < 0:
                raise NonIntegerResultError(
                    f"transform entry at ({a}, {b}) is {s}/{size}; "
                    "input is not a linear code's enumerator")
            if val:
                out[(a, b)] = val
    return PweTable(table.sizes, out)


@dataclass(frozen=True)
class PropertyAWitness:
    coordinate: int
    weight: int
    observed: int
    expected: Fraction


@dataclass(frozen=True)
class PropertyAReport:
    """Outcome of the uniform-coordinate-weight check.

    `holds` is true iff `witnesses` is empty; each witness records a
    (coordinate, weight class) pair whose observed coordinate weight sum
    differs from h*E(h)/n.
    """

    holds: bool
    witnesses: tuple[PropertyAWitness, ...]
    method: str = dataclass_field(
        default="per-coordinate sums compared exactly against h*E(h)/n; "
                "subset sums are linear in coordinate sums, so this is "
                "equivalent to the all-subsets statement")

    def __bool__(self) -> bool:
        return self.holds


def property_a_check(code: LinearCode, budget: Optional[int] = None) -> PropertyAReport:
    """Check the uniform-coordinate-weight property by exhaustive tally."""
    import numpy as np

    hist = support_histogram(code, budget)
    n = code.n
    bits = hist.bits()
    weight = bits.sum(axis=1)
    weights = np.zeros(n + 1, dtype=np.int64)
    np.add.at(weights, weight, hist.counts)
    # per_coord[h][i]: total count of the weight-h masks covering coordinate i
    per_coord = np.zeros((n + 1, n), dtype=np.int64)
    np.add.at(per_coord, weight, bits * hist.counts[:, None])
    weights, per_coord = weights.tolist(), per_coord.tolist()
    witnesses = []
    for h in range(1, n + 1):
        if weights[h] == 0:
            continue
        expected = Fraction(h * weights[h], n)
        for i in range(n):
            if per_coord[h][i] != expected:
                witnesses.append(PropertyAWitness(i, h, per_coord[h][i], expected))
    return PropertyAReport(not witnesses, tuple(witnesses))


def dual_property_a(code: LinearCode, budget: Optional[int] = None) -> tuple[bool, bool]:
    """(property holds for C, property holds for dual(C)); always equal."""
    return (property_a_check(code, budget).holds,
            property_a_check(dual(code), budget).holds)
