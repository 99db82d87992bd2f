"""Seeded Monte-Carlo oracle for the bounded-minimum-distance decoder.

Independent of the closed-form curves: the decoder is realized literally
as a lookup into radius-tau spheres enumerated around every nonzero
codeword, and the channel draws i.i.d. symbol errors.  Used to validate
`errorprob.cep_bm` / `errorprob.sep_bm` statistically; reproducible
given (seed, trials).  numpy is imported when an oracle is built.

The sphere table is built as arrays: the nonzero codewords are one
array, every error pattern of weight <= tau a second, and the key of
codeword c moved by pattern e is sum_j ((c_j + e_j) mod q) q^j,
accumulated one coordinate at a time, so no (codewords x patterns x n)
array exists.  Keys are int64, so q^n - 1 must fit in 63 bits.  A sphere
word has weight >= d - tau, so the simulator packs and looks up only the
trials with at least d - tau symbol errors; every trial still draws its
errors, so the random stream and the estimates do not depend on the
filter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .linear_code import LinearCode, min_distance
from .mds_enum import ParamOutOfRangeError

_SIM_CHUNK = 1 << 18
_MAX_KEY = (1 << 63) - 1  # a word packs into one int64 key


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
        if q**n - 1 > _MAX_KEY:
            raise ValueError(f"words of length {n} over GF({q}) do not pack into "
                             f"int64 keys (q^n - 1 > 2^63 - 1)")
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
        # key[c, e] = sum_j ((c_j + e_j) mod q) q^j, one coordinate at a time.
        # Digit j takes each value other than c_j once as e_j runs over
        # 1..q-1, so these are the words within distance tau of c, the same
        # set that field addition would give.
        shift = (np.arange(q)[:, None] + np.arange(q)) % q
        keys = np.zeros((len(words), len(patterns)), dtype=np.int64)
        for j in range(n):
            keys += (shift * q**j)[words[:, j, None], patterns[None, :, j]]
        info = np.count_nonzero(words[:, info_cols], axis=1).astype(np.int64)
        # at most three table-sized arrays are alive at once
        order = np.argsort(keys, axis=None)
        self._keys = keys.ravel()[order]
        del keys
        order //= len(patterns)     # row of each sorted key: its codeword
        self._info = info[order]
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise AssertionError("decoding spheres overlap")  # would break exactness
        self.code = code
        self.tau = tau
        self.q, self.n, self.k = q, n, k
        self._qpow = q ** np.arange(n, dtype=np.int64)
        self._min_weight = d - tau

    def sphere_size(self) -> int:
        return len(self._keys)

    def _decode_chunk(self, rng, chunk: int, p: float):
        """Run `chunk` trials; returns the information weight share of each
        decoder error.  The chunk's arrays are freed on return, so two
        chunks' arrays are never alive at once."""
        import numpy as np

        errors = rng.random((chunk, self.n)) < p
        values = rng.integers(1, self.q, size=(chunk, self.n), dtype=np.int64)
        # a sphere word has weight >= d - tau, so lighter trials never hit;
        # each trial's weight is the sum of its n error columns as uint8
        # (n < 64), which is faster than counting along the rows
        flags = errors.view(np.uint8)
        weight = flags[:, 0].copy()
        for j in range(1, self.n):
            weight += flags[:, j]
        heavy = weight >= self._min_weight
        received = np.where(errors[heavy], values[heavy], 0) @ self._qpow
        idx = np.searchsorted(self._keys, received)
        idx = np.clip(idx, 0, len(self._keys) - 1)
        hit = self._keys[idx] == received
        return self._info[idx[hit]] / self.k

    def simulate(self, p: float, trials: int, seed: int) -> BmSimulation:
        """Estimate CEP and SEP at symbol error probability p."""
        if not 0.0 <= p <= 1.0:
            raise ParamOutOfRangeError(f"need 0 <= p <= 1, got {p}")
        if trials < 1:
            raise ParamOutOfRangeError(f"need trials >= 1, got {trials}")
        import numpy as np

        rng = np.random.default_rng(seed)
        hits = 0
        sep_sum = 0.0
        sep_sumsq = 0.0
        done = 0
        while done < trials:
            chunk = min(_SIM_CHUNK, trials - done)
            frac = self._decode_chunk(rng, chunk, p)
            hits += len(frac)
            sep_sum += float(frac.sum())
            sep_sumsq += float((frac * frac).sum())
            done += chunk
        cep = hits / trials
        cep_se = math.sqrt(max(cep * (1.0 - cep), 1e-300) / trials)
        sep = sep_sum / trials
        sep_var = max(sep_sumsq / trials - sep * sep, 0.0)
        sep_se = math.sqrt(max(sep_var, 1e-300) / trials)
        return BmSimulation(p, seed,
                            MonteCarloEstimate(cep, cep_se, trials),
                            MonteCarloEstimate(sep, sep_se, trials))
