"""Seeded Monte-Carlo oracle for the bounded-minimum-distance decoder.

Independent of the closed-form curves: the decoder is realized literally
as a lookup into radius-tau spheres enumerated around every nonzero
codeword, and the channel draws i.i.d. symbol errors.  Used to validate
`errorprob.cep_bm` / `errorprob.sep_bm` statistically; reproducible
given (seed, trials).  numpy is imported when an oracle is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .linear_code import LinearCode, min_distance

_SIM_CHUNK = 1 << 18


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
        import numpy as np

        q, n, k = code.field.order, code.n, code.k
        d = min_distance(code)
        if tau is None:
            tau = (d - 1) // 2
        if 2 * tau + 1 > d:
            raise ValueError(f"radius {tau} spheres overlap at distance {d}")
        info_cols = code.systematic_columns or tuple(range(k))

        packed: list[int] = []
        info_w: list[int] = []
        qpow = [q**j for j in range(n)]
        for cw in code.codewords():
            if not any(cw):
                continue
            w_info = sum(1 for j in info_cols if cw[j])
            base = sum(v * qpow[j] for j, v in enumerate(cw))
            for t in range(tau + 1):
                for positions in itertools.combinations(range(n), t):
                    # digit j moves from cw[j] to v by adding v - cw[j] (plain
                    # integer difference; the packing is positional base q)
                    deltas = [[v - cw[j] for v in range(q) if v != cw[j]]
                              for j in positions]
                    for repl in itertools.product(*deltas):
                        word = base
                        for j, dv in zip(positions, repl):
                            word += dv * qpow[j]
                        packed.append(word)
                        info_w.append(w_info)
        keys = np.array(packed, dtype=np.int64)
        order = np.argsort(keys)
        self._keys = keys[order]
        self._info = np.array(info_w, dtype=np.int64)[order]
        if np.any(self._keys[1:] == self._keys[:-1]):
            raise AssertionError("decoding spheres overlap")  # would break exactness
        self.code = code
        self.tau = tau
        self.q, self.n, self.k = q, n, k
        self._qpow = np.array(qpow, dtype=np.int64)

    def sphere_size(self) -> int:
        return len(self._keys)

    def _decode_chunk(self, rng, chunk: int, p: float):
        """Run `chunk` trials; returns the information weight share of each
        decoder error.  The chunk's arrays are freed on return, so two
        chunks' arrays are never alive at once."""
        import numpy as np

        errors = rng.random((chunk, self.n)) < p
        values = rng.integers(1, self.q, size=(chunk, self.n), dtype=np.int64)
        received = np.where(errors, values, 0) @ self._qpow
        idx = np.searchsorted(self._keys, received)
        idx = np.clip(idx, 0, len(self._keys) - 1)
        hit = self._keys[idx] == received
        return self._info[idx[hit]] / self.k

    def simulate(self, p: float, trials: int, seed: int) -> BmSimulation:
        """Estimate CEP and SEP at symbol error probability p."""
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
