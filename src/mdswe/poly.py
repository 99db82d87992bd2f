"""Sparse multivariate polynomials with exact coefficients.

A `SparsePoly` maps exponent tuples to exact coefficients (Python ints or
`fractions.Fraction`); zero coefficients are never stored.  This is the
carrier type for every generating function in the package: symbol-level
partition weight enumerators have integer coefficients, averaged binary
enumerators have rational ones.
"""

from __future__ import annotations

from numbers import Rational
from typing import Callable, Mapping, Optional, Sequence


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
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SparsePoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

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

    def evaluate(self, values: Sequence[Rational]) -> Rational:
        if len(values) != self.nvars:
            raise ValueError("value count mismatch")
        total = 0
        for exps, c in self.terms.items():
            t = c
            for v, e in zip(values, exps):
                if e:
                    t *= v**e
            total += t
        return total

    def substitute(self, replacements: Sequence["SparsePoly"]) -> "SparsePoly":
        """Substitute variable i -> replacements[i].

        All replacement polynomials must share one target variable space;
        the result lives in that space.  Powers of each replacement are
        cached, so repeated exponents cost one multiplication each.
        """
        if len(replacements) != self.nvars:
            raise ValueError("need one replacement per variable")
        out_nvars = replacements[0].nvars
        for r in replacements:
            if r.nvars != out_nvars:
                raise ValueError("replacement polynomials disagree on variable count")
        powers: list[dict[int, SparsePoly]] = [
            {0: SparsePoly.one(out_nvars)} for _ in range(self.nvars)
        ]

        def power(i: int, e: int) -> SparsePoly:
            cache = powers[i]
            if e not in cache:
                top = max(cache)
                acc = cache[top]
                for j in range(top + 1, e + 1):
                    acc = acc * replacements[i]
                    cache[j] = acc
            return cache[e]

        total = SparsePoly.zero(out_nvars)
        for exps, c in self.terms.items():
            prod = SparsePoly(out_nvars, {(0,) * out_nvars: c})
            for i, e in enumerate(exps):
                if e:
                    prod = prod * power(i, e)
            total = total + prod
        return total

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

    def filter_terms(self, keep: Callable[[tuple[int, ...]], bool]) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: c for e, c in self.terms.items() if keep(e)})

    def map_coeffs(self, fn: Callable[[Rational], Rational]) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})
