"""Seeded Monte-Carlo oracle for the bounded-minimum-distance decoder.

Independent of the closed-form curves: the decoder is realized literally
as coset-leader (syndrome) decoding (MacWilliams & Sloane, ch. 1), and the
channel draws i.i.d. symbol errors.  The oracle checks the curves twice.
`weight_tally` enumerates the radius-tau spheres around every nonzero
codeword, and counts their words, and sums their information weights, by
received weight: exactly the integer spectra M(w) that the CEP and SEP
curves divide into mu(w) (`errorprob._sphere_spectrum`).  `simulate`
estimates the decoder's error rates, to be compared statistically with
the BM sums the curves print (`errorprob._bm_sum`); it is reproducible
given (seed, trials).  numpy is imported when an oracle is built.

The decoder keeps one table of q^(n-k) entries, not the spheres.  The
syndrome H r of a received word r (H the generator of the dual code) is
a GF(p)-linear map of r's base-p digits, q = p^m: the base-p digits of
the terms H[:, j] r_j, summed over j and reduced mod p, are the digits of
H r, and those digits read in base p are its index.  The table maps each
syndrome to the one error pattern of weight <= tau that has it, if any:
the coset leader, unique because the spheres are disjoint.  A received
word r with leader e is decoded to c = r - e, so the decoder errs iff a
leader exists and e != r, and c's information weight is the number of
information coordinates where r and e differ; no field arithmetic runs
per trial.  The spheres themselves are enumerated only by
`weight_tally`, a block of codewords at a time.

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

from .linear_code import (DEFAULT_ENUMERATION_BUDGET, BudgetExceededError, LinearCode, dual,
                          min_distance)
from .mds_enum import ParamOutOfRangeError

_BLOCK = 1 << 14  # rows at once: heavy trials drawn and decoded, sphere words tallied


def _error_patterns(q: int, n: int, tau: int):
    """Every error pattern of weight <= tau, one per row in the narrowest
    type that holds q - 1: each choice of values 1..q-1 on each set of at
    most tau positions, zero elsewhere."""
    import numpy as np

    dtype = np.min_scalar_type(q - 1)
    blocks = [np.zeros((1, n), dtype=dtype)]
    for t in range(1, tau + 1):
        values = np.array(list(itertools.product(range(1, q), repeat=t)), dtype=dtype)
        for positions in itertools.combinations(range(n), t):
            block = np.zeros((len(values), n), dtype=dtype)
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
    """Coset-leader decoder of radius tau for one code, plus a channel
    simulator.

    Every error pattern of weight <= tau has a syndrome no other such
    pattern has (the spheres are disjoint for tau = floor((d-1)/2)), so
    a table indexed by syndrome finds the error pattern, and with it the
    decoded codeword, of each received word inside a sphere.  A trial is a decoder error iff it is decoded
    to a nonzero codeword; its symbol-error contribution is that
    codeword's information weight over k.
    """

    def __init__(self, code: LinearCode, tau: Optional[int] = None):
        q, n, k = code.field.order, code.n, code.k
        if q ** (n - k) > DEFAULT_ENUMERATION_BUDGET:
            raise BudgetExceededError(f"q^(n-k) = {q ** (n - k)} syndromes exceed "
                                      f"enumeration budget {DEFAULT_ENUMERATION_BUDGET}")
        import numpy as np

        d = min_distance(code)
        if tau is None:
            tau = (d - 1) // 2
        if tau < 0:
            raise ValueError(f"radius {tau} is negative")
        if 2 * tau + 1 > d:
            raise ValueError(f"radius {tau} spheres overlap at distance {d}")
        field = code.field
        p, m = field.characteristic, field.extension_degree
        # digits[j, v, t]: digit t of the syndrome of value v at coordinate
        # j, where digit i*m + s is the p^s digit of (H[:, j] v)_i
        products = np.array([[[field.mul(h, v) for h in column] for v in range(q)]
                             for column in zip(*dual(code).generator)],
                            dtype=np.int64).reshape(n, q, n - k)
        digits = (products[..., None] // p ** np.arange(m) % p).reshape(n, q, -1)
        # Each digit is summed over the n coordinates in a field of `bits`
        # bits, which the sum cannot overflow.  `per_lane` digits share a
        # lane of at most 12 bits (or one field, if that is wider):
        # _lanes[c, j, v] is lane c of the syndrome of value v at coordinate
        # j, and `_reduce` maps each lane value to its field sums, each
        # taken mod p, read in base p.
        bits = (n * (p - 1)).bit_length()
        per_lane = max(1, min(12 // bits, digits.shape[2]))
        lanes = -(-digits.shape[2] // per_lane)
        digits = np.pad(digits, ((0, 0), (0, 0), (0, lanes * per_lane - digits.shape[2])))
        shifts = bits * np.arange(per_lane)
        self._lanes = np.ascontiguousarray(
            (digits.reshape(n, q, lanes, per_lane) << shifts).sum(axis=3).transpose(2, 0, 1),
            dtype=np.min_scalar_type((1 << (bits * per_lane)) - 1))
        fields = np.arange(1 << (bits * per_lane))[:, None] >> shifts & ((1 << bits) - 1)
        self._syndrome_dtype = np.min_scalar_type(q ** (n - k))   # holds p^per_lane too
        self._reduce = (fields % p @ p ** np.arange(per_lane)).astype(self._syndrome_dtype)
        self._lane_base = p ** per_lane
        self.code = code
        self.tau = tau
        self.q, self.n, self.k = q, n, k
        self._info_cols = list(code.systematic_columns or range(k))
        self._min_weight = d - tau

        self._patterns = _error_patterns(q, n, tau)
        none = len(self._patterns)   # the entry of a syndrome with no leader
        self._leader = np.full(q ** (n - k), none, dtype=np.min_scalar_type(none))
        self._leader[self._syndromes(self._patterns)] = np.arange(none)
        if np.count_nonzero(self._leader != none) != none:
            raise AssertionError("decoding spheres overlap")  # would break exactness

    def _syndromes(self, words):
        """The syndrome index of each row of `words`."""
        import numpy as np

        sums = np.zeros((len(self._lanes), len(words)), dtype=self._lanes.dtype)
        for j in range(self.n):
            values = words[:, j].astype(np.intp)   # one index conversion for every lane
            for lane, tables in zip(sums, self._lanes):
                lane += tables[j][values]
        index = np.zeros(len(words), dtype=self._syndrome_dtype)
        for lane in sums[::-1]:   # Horner's rule from the highest lane down
            index *= self._lane_base
            index += self._reduce[lane]
        return index

    def sphere_size(self) -> int:
        """The number of words within tau of a nonzero codeword."""
        return (self.code.size - 1) * len(self._patterns)

    def weight_tally(self) -> tuple[list[int], list[int]]:
        """For each received weight w = 0..n: the number of words of weight
        w within tau of a nonzero codeword, and the sum of those codewords'
        information weights."""
        import numpy as np

        n, k, field = self.n, self.k, self.code.field
        neg = np.array([field.neg(v) for v in range(self.q)], dtype=self._patterns.dtype)
        # zero[j][v, e]: coordinate j of c + e is zero, for c_j = v
        zero = [(self._patterns[:, j] == neg[:, None]).view(np.uint8) for j in range(n)]
        counts = np.zeros((n + 1) * (k + 1), dtype=np.int64)   # by (weight, info weight)
        nonzero = (cw for cw in self.code.codewords() if any(cw))
        step = max(1, _BLOCK // len(self._patterns))   # codewords per block
        while block := list(itertools.islice(nonzero, step)):
            words = np.array(block, dtype=self._patterns.dtype)
            zeros = zero[0][words[:, 0]]
            for j in range(1, n):
                zeros += zero[j][words[:, j]]
            slot = (n - zeros).astype(np.intp) * (k + 1)
            slot += np.count_nonzero(words[:, self._info_cols], axis=1)[:, None]
            counts += np.bincount(slot.reshape(-1), minlength=len(counts))
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
        words = np.zeros((rows, self.n), dtype=np.min_scalar_type(self.q - 1))
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
        counts = np.zeros(self.k + 1, dtype=np.int64)   # errors per information weight
        none = len(self._patterns)
        for start in range(0, heavy, _BLOCK):
            received = self._heavy_errors(rng, min(_BLOCK, heavy - start), p)
            leader = self._leader[self._syndromes(received)]
            decoded = leader != none
            # c = r - e is nonzero exactly where r and e differ
            changed = received[decoded] != self._patterns[leader[decoded]]
            wrong = changed[changed.any(axis=1)]
            counts += np.bincount(np.count_nonzero(wrong[:, self._info_cols], axis=1),
                                  minlength=self.k + 1)
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
