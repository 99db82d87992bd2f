"""The literal generating-function pipeline, kept as a test reference.

The package gets the averaged binary image and the per-user profiles
from one product-form contraction (`binary_avg`, `errorprob`).  This
module computes them the long way, as the paper writes them, over
`SparsePoly`: materialise the PWGF, substitute X_i -> F(Z_i), keep the
terms the block conditions allow, and collapse to one user's
input-output enumerator.  Tests compare the two routes exactly.

The same holds one level down: the package tabulates the fixed-support
counts f(h) = E(h) / C(n,h) by a one-term recurrence
(`mds_enum.fixed_support_counts`), and `fixed_support_counts_by_sum`
evaluates the paper's alternating sum for each h afresh.
"""

import math
from fractions import Fraction
from typing import Callable, Sequence

from mdswe.errorprob import Condition, ConditionCountMismatchError
from mdswe.mds_enum import MdsParams, binom
from mdswe.poly import SparsePoly


def fixed_support_counts_by_sum(params: MdsParams) -> list[int]:
    """f(0..n) from the alternating sum: f(0) = 1, f(h) = 0 for 0 < h < d,

        f(h) = sum_{j=d}^{h} C(h,j) (-1)^(h-j) (q^(j-d+1) - 1).
    """
    n, q, d = params.n, params.q, params.d
    return [1] + [sum(binom(h, j) * (-1) ** (h - j) * (q ** (j - d + 1) - 1)
                      for j in range(d, h + 1))
                  for h in range(1, n + 1)]


def evaluate(poly: SparsePoly, values: Sequence) -> Fraction:
    """The value of `poly` at the point `values`."""
    if len(values) != poly.nvars:
        raise ValueError("value count mismatch")
    return sum(c * math.prod(v**e for v, e in zip(values, exps))
               for exps, c in poly.terms.items())


def substitute(poly: SparsePoly, replacements: Sequence[SparsePoly]) -> SparsePoly:
    """Substitute variable i -> replacements[i], term by term.

    The replacements share one variable space, which the result lives in.
    """
    if len(replacements) != poly.nvars:
        raise ValueError("need one replacement per variable")
    out_nvars = replacements[0].nvars
    if any(r.nvars != out_nvars for r in replacements):
        raise ValueError("replacement polynomials disagree on variable count")
    powers: dict[tuple[int, int], SparsePoly] = {}
    total = SparsePoly(out_nvars)
    for exps, c in poly.terms.items():
        term = SparsePoly(out_nvars, {(0,) * out_nvars: c})
        for i, e in enumerate(exps):
            if (i, e) not in powers:
                powers[i, e] = replacements[i] ** e
            term = term * powers[i, e]
        total = total + term
    return total


def filter_terms(poly: SparsePoly, keep: Callable[[tuple[int, ...]], bool]) -> SparsePoly:
    return SparsePoly(poly.nvars, {e: c for e, c in poly.terms.items() if keep(e)})


def bit_substitution_poly(m: int) -> SparsePoly:
    """F(Z) = ((1+Z)^m - 1)/(2^m - 1): the bit-weight generating function
    of a uniformly random nonzero m-bit pattern."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    den = (1 << m) - 1
    return SparsePoly(1, {(i,): Fraction(binom(m, i), den) for i in range(1, m + 1)})


def avg_binary_pwgf(symbol_pwgf: SparsePoly, m: int) -> SparsePoly:
    """Averaged binary PWGF: X_i -> F(Z_i) in a symbol-level PWGF."""
    f = bit_substitution_poly(m)
    nvars = symbol_pwgf.nvars
    replacements = []
    for i in range(nvars):
        exps = [0] * nvars
        terms = {}
        for (e,), c in f.terms.items():
            exps[i] = e
            terms[tuple(exps)] = c
        replacements.append(SparsePoly(nvars, terms))
    return substitute(symbol_pwgf, replacements)


def conditional_pwgf(poly: SparsePoly, sizes: Sequence[int],
                     conditions: Sequence[Condition], *,
                     binary: bool = False, m: int = 1) -> SparsePoly:
    """Keep the terms of a (symbol or averaged-binary) PWGF that the
    per-block conditions allow.

    Block i has total weight sizes[i] symbols, or m*sizes[i] bits when
    `binary` is set; 'full' means that total and 'atmost' caps the
    exponent at floor(fraction * total).  No renormalization happens.
    """
    if len(conditions) != poly.nvars or len(sizes) != poly.nvars:
        raise ConditionCountMismatchError(
            f"{poly.nvars} blocks but {len(conditions)} conditions / {len(sizes)} sizes")
    totals = [(m if binary else 1) * s for s in sizes]

    def allowed(e: int, cond: Condition, total: int) -> bool:
        if cond.kind == "zero":
            return e == 0
        if cond.kind == "full":
            return e == total
        if cond.kind == "atmost":
            return e <= math.floor(cond.fraction * total)
        return True

    return filter_terms(poly, lambda exps: all(
        allowed(e, cond, total) for e, cond, total in zip(exps, conditions, totals)))


def user_iowe(poly: SparsePoly, user: int) -> dict[tuple[int, int], Fraction]:
    """One block's input-output enumerator: X_i -> Y for i != user and
    X_user -> X*Y; maps (block weight, total weight) to the coefficient."""
    if not 0 <= user < poly.nvars:
        raise ValueError(f"user index {user} out of range for {poly.nvars} blocks")
    out: dict[tuple[int, int], Fraction] = {}
    for exps, c in poly.terms.items():
        key = (exps[user], sum(exps))
        out[key] = out.get(key, 0) + c
    return out
