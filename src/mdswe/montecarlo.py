"""Seeded Monte-Carlo oracle for the bounded-minimum-distance decoder.

Independent of the closed-form curves: the decoder is realized literally
as a lookup into radius-tau spheres enumerated around every nonzero
codeword, and the channel draws i.i.d. symbol errors.  The table checks
the curves twice.  `weight_tally` counts its words, and sums their
information weights, by received weight: exactly the integer spectra
M(w) that the CEP and SEP curves divide into mu(w)
(`errorprob._sphere_spectrum`).  `simulate` estimates the decoder's
error rates, to be compared statistically with the BM sums the curves
print (`errorprob._bm_sum`); it is reproducible given (seed, trials).
numpy is imported when an oracle is built.

The sphere table is built as arrays: the nonzero codewords are one
array, every error pattern of weight <= tau a second, and the key of
codeword c moved by pattern e is sum_j ((c_j + e_j) mod q) q^j.  Each
table entry packs key * (k + 1) + the information weight of c into one
unsigned integer of the narrowest type that holds (q^n - 1)(k + 1) + k,
so that value must fit in 64 bits (this also refuses a few codes with
q^n <= 2^63, such as a binary [63, 2] code, whose sphere tables are far
too large to build anyway).  The entries are accumulated one coordinate
at a time in place, a block of codewords at a time, sorted in place, and
split into keys and information weights without a copy of the table.

The channel sends the zero codeword, and each symbol is in error with
probability p, independently, with its value uniform on 1..q-1.  A word
within tau of a nonzero codeword has weight >= w0 = d - tau, so a trial
with fewer errors is decoded correctly and adds nothing to either
estimate.  The simulator therefore draws only the heavy trials: their
number H ~ Binomial(trials, P(W >= w0)) with W ~ Bin(n, p), then for each
one a weight from Bin(n, p) conditioned on W >= w0, a uniform support of
that size and uniform nonzero values.  That is the i.i.d. channel's law
given the weight, so the estimates have the law of a full simulation;
time and memory go with H, not with the number of trials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .linear_code import LinearCode, min_distance
from .mds_enum import ParamOutOfRangeError

_BLOCK = 1 << 14  # rows at once: heavy trials drawn and looked up, table keys tallied
_BUILD_BYTES = 1 << 18  # transient bytes per block of codewords in the table build


def _error_patterns(q: int, n: int, tau: int):
    """Every error pattern of weight <= tau, one per row: each choice of
    values 1..q-1 on each set of at most tau positions, zero elsewhere."""
    import numpy as np

    blocks = [np.zeros((1, n), dtype=np.int64)]
    for t in range(1, tau + 1):
        values = np.array(list(itertools.product(range(1, q), repeat=t)), dtype=np.int64)
        for positions in itertools.combinations(range(n), t):
            block = np.zeros((len(values), n), dtype=np.int64)
            block[:, positions] = values
            blocks.append(block)
    return np.concatenate(blocks)


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    trials: int

    def within(self, reference: float, sigmas: float = 3.0) -> bool:
        return abs(self.value - reference) <= sigmas * self.stderr


@dataclass(frozen=True)
class BmSimulation:
    p: float
    seed: int
    cep: MonteCarloEstimate
    sep: MonteCarloEstimate


class BmSphereOracle:
    """Sphere-membership decoder for one code, plus a channel simulator.

    Enumerates every word within Hamming distance tau of a nonzero
    codeword (the spheres are disjoint for tau = floor((d-1)/2)), keyed
    by the base-q packing of the word.  A trial is a decoder error iff
    its received word is one of those; the symbol-error contribution of a
    trial is the decoded codeword's information weight over k.
    """

    def __init__(self, code: LinearCode, tau: Optional[int] = None):
        q, n, k = code.field.order, code.n, code.k
        widest = (q**n - 1) * (k + 1) + k
        if widest >> 64:
            raise ValueError(f"words of length {n} over GF({q}) with information weights "
                             f"up to {k} do not pack into uint64 keys "
                             f"((q^n - 1)(k + 1) + k >= 2^64)")
        import numpy as np

        d = min_distance(code)
        if tau is None:
            tau = (d - 1) // 2
        if tau < 0:
            raise ValueError(f"radius {tau} is negative")
        if 2 * tau + 1 > d:
            raise ValueError(f"radius {tau} spheres overlap at distance {d}")
        info_cols = list(code.systematic_columns or range(k))

        words = np.array([cw for cw in code.codewords() if any(cw)], dtype=np.int64)
        patterns = _error_patterns(q, n, tau)
        dtype = np.min_scalar_type(widest)
        # table[c, e] = key * (k + 1) + info weight of c, with
        # key = sum_j ((c_j + e_j) mod q) q^j added one coordinate at a
        # time.  Digit j takes each value other than c_j once as e_j runs
        # over 1..q-1, so the keys are the words within distance tau of c,
        # the same set that field addition would give.  digits[j][v] is
        # coordinate j's term for c_j = v, for every pattern.
        shift = ((np.arange(q)[:, None] + np.arange(q)) % q).astype(dtype)
        digits = [(shift * dtype.type(q**j * (k + 1)))[:, patterns[:, j]] for j in range(n)]
        table = np.empty((len(words), len(patterns)), dtype=dtype)
        table[:] = np.count_nonzero(words[:, info_cols], axis=1)[:, None]
        step = max(1, _BUILD_BYTES // table[0].nbytes)
        for start in range(0, len(words), step):
            block = table[start:start + step]
            for j in range(n):
                block += digits[j][words[start:start + step, j]]
        # The table is the only table-sized array: sorted in place (an
        # information weight is below k + 1, so this is key order), then the
        # information weights taken out and the keys left in its place.
        table = table.reshape(-1)
        table.sort()
        self._info = np.remainder(table, k + 1, casting="unsafe",
                                  out=np.empty(len(table), dtype=np.min_scalar_type(k)))
        self._keys = np.floor_divide(table, k + 1, out=table)
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise AssertionError("decoding spheres overlap")  # would break exactness
        self.code = code
        self.tau = tau
        self.q, self.n, self.k = q, n, k
        self._qpow = q ** np.arange(n, dtype=np.int64)
        self._min_weight = d - tau

    def sphere_size(self) -> int:
        return len(self._keys)

    def weight_tally(self) -> tuple[list[int], list[int]]:
        """For each received weight w = 0..n: the number of table words of
        weight w, and the sum of their codewords' information weights."""
        import numpy as np

        n, k = self.n, self.k
        counts = np.zeros((n + 1) * (k + 1), dtype=np.int64)   # by (weight, info weight)
        for start in range(0, len(self._keys), _BLOCK):
            rest = self._keys[start:start + _BLOCK].copy()
            slot = np.zeros(len(rest), dtype=np.int64)   # weight, then weight * (k + 1) + info
            for _ in range(n):
                slot += rest % self.q != 0
                rest //= self.q
            slot *= k + 1
            slot += self._info[start:start + _BLOCK]
            counts += np.bincount(slot, minlength=len(counts))
        rows = counts.reshape(n + 1, k + 1).tolist()
        return [sum(row) for row in rows], [sum(i * c for i, c in enumerate(row)) for row in rows]

    def _weight_tail(self, p: float) -> list[float]:
        """P(W = w) for w = w0..n, W ~ Bin(n, p): the weights that can
        reach a sphere."""
        n = self.n
        return [math.comb(n, w) * p**w * (1.0 - p)**(n - w)
                for w in range(self._min_weight, n + 1)]

    def _heavy_errors(self, rng, rows: int, p: float):
        """`rows` error words of the i.i.d. symbol channel conditioned on
        weight >= w0, one per row: the weight from the conditioned
        binomial, the support the first w positions of a uniform random
        permutation, the values uniform on 1..q-1."""
        import numpy as np

        tail = self._weight_tail(p)
        weight = rng.choice(np.arange(self._min_weight, self.n + 1), size=rows,
                            p=np.array(tail) / math.fsum(tail))
        support = rng.permuted(np.arange(self.n) < weight[:, None], axis=1)
        words = np.zeros((rows, self.n), dtype=np.int64)
        words[support] = rng.integers(1, self.q, size=int(weight.sum()), dtype=np.int64)
        return words

    def simulate(self, p: float, trials: int, seed: int) -> BmSimulation:
        """Estimate CEP and SEP at symbol error probability p."""
        if not 0.0 <= p <= 1.0:
            raise ParamOutOfRangeError(f"need 0 <= p <= 1, got {p}")
        if trials < 1:
            raise ParamOutOfRangeError(f"need trials >= 1, got {trials}")
        import numpy as np

        rng = np.random.default_rng(seed)
        heavy = int(rng.binomial(trials, min(math.fsum(self._weight_tail(p)), 1.0)))
        counts = np.zeros(self.k + 1, dtype=np.int64)   # hits per information weight
        last = len(self._keys) - 1
        for start in range(0, heavy, _BLOCK):
            received = self._heavy_errors(rng, min(_BLOCK, heavy - start), p) @ self._qpow
            # the keys' own type: a mixed signed/unsigned search compares as float64
            received = received.astype(self._keys.dtype)
            received.sort()   # in-order lookups: ~half the time of unsorted ones
            idx = np.minimum(np.searchsorted(self._keys, received), last)
            hit = self._keys[idx] == received
            counts += np.bincount(self._info[idx[hit]], minlength=self.k + 1)
        counts = counts.tolist()
        hits = sum(counts)
        info_sum = sum(i * c for i, c in enumerate(counts))
        info_sumsq = sum(i * i * c for i, c in enumerate(counts))
        cep = hits / trials
        cep_se = math.sqrt(max(cep * (1.0 - cep), 1e-300) / trials)
        sep = info_sum / (self.k * trials)
        sep_var = max(info_sumsq / (self.k * self.k * trials) - sep * sep, 0.0)
        sep_se = math.sqrt(max(sep_var, 1e-300) / trials)
        return BmSimulation(p, seed,
                            MonteCarloEstimate(cep, cep_se, trials),
                            MonteCarloEstimate(sep, sep_se, trials))
