"""Sparse multivariate polynomials with exact coefficients.

A `SparsePoly` maps exponent tuples to exact coefficients (Python ints or
`fractions.Fraction`); zero coefficients are never stored.  It is the
result type of `mds_enum.pwgf`, the symbol-level partition weight
generating function with integer coefficients; `collapse` merges or drops
its blocks.  The averaged binary image and the multiuser profiles are not
built as polynomials: `binary_avg` and `errorprob` contract integer
coefficient lists against the product form directly.
"""

from __future__ import annotations

from numbers import Rational
from typing import Mapping, Optional, Sequence


class SparsePoly:
    """Polynomial in `nvars` variables, stored as {exponents: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple[int, ...], Rational]] = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Rational] = {}
        if terms:
            for exps, c in terms.items():
                if c == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
                clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: 1})

    # -- queries -----------------------------------------------------------

    def coeff(self, exps: Sequence[int]) -> Rational:
        return self.terms.get(tuple(exps), 0)

    def coefficient_sum(self) -> Rational:
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rational]]:
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparsePoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "SparsePoly(0)"
        parts = [f"{c}*{exps}" for exps, c in self.sorted_terms()[:6]]
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
        return "SparsePoly(" + " + ".join(parts) + more + ")"

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, SparsePoly):
            self._check_compatible(other)
            out = dict(self.terms)
            for exps, c in other.terms.items():
                out[exps] = out.get(exps, 0) + c
            return SparsePoly(self.nvars, out)
        if isinstance(other, Rational):
            return self + SparsePoly(self.nvars, {(0,) * self.nvars: other})
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            self._check_compatible(other)
            out: dict[tuple[int, ...], Rational] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            return SparsePoly(self.nvars, out)
        if isinstance(other, Rational):
            return SparsePoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative powers not supported")
        result = SparsePoly.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structural operations ----------------------------------------------

    def collapse(self, var_map: Sequence[Optional[int]], nvars_out: int) -> "SparsePoly":
        """Remap variables: var i -> var_map[i] in the output, or set the
        variable to 1 when var_map[i] is None.  Exponents mapping to the
        same output variable add, so mapping two variables together merges
        them (X_i -> X_j) and mapping everything to one variable yields the
        total-degree polynomial.
        """
        if len(var_map) != self.nvars:
            raise ValueError("need one target per variable")
        out: dict[tuple[int, ...], Rational] = {}
        for exps, c in self.terms.items():
            key = [0] * nvars_out
            for i, e in enumerate(exps):
                t = var_map[i]
                if t is not None:
                    key[t] += e
            k = tuple(key)
            out[k] = out.get(k, 0) + c
        return SparsePoly(nvars_out, out)
