"""The sphere-lookup oracle against a literal nested-loop reference.

`_reference_tables` enumerates the decoding spheres one word at a time, and
`_reference_simulate` packs and looks up every trial, as the oracle did
before it was vectorised.  The oracle must reproduce both exactly: the same
sorted sphere table and bit-identical estimates from the same seed.
"""

import itertools
import math

import numpy as np
import pytest

from mdswe import montecarlo
from mdswe.gf import Field, field_from_order
from mdswe.linear_code import LinearCode, code_from_generator, rs_code
from mdswe.mds_enum import ParamOutOfRangeError
from mdswe.montecarlo import BmSimulation, BmSphereOracle, MonteCarloEstimate


def _reference_tables(code, tau):
    """Sorted sphere keys and the information weight of each key's codeword."""
    q, n, k = code.field.order, code.n, code.k
    info_cols = code.systematic_columns or tuple(range(k))
    packed, info_w = [], []
    qpow = [q**j for j in range(n)]
    for cw in code.codewords():
        if not any(cw):
            continue
        w_info = sum(1 for j in info_cols if cw[j])
        base = sum(v * qpow[j] for j, v in enumerate(cw))
        for t in range(tau + 1):
            for positions in itertools.combinations(range(n), t):
                deltas = [[v - cw[j] for v in range(q) if v != cw[j]] for j in positions]
                for repl in itertools.product(*deltas):
                    word = base
                    for j, dv in zip(positions, repl):
                        word += dv * qpow[j]
                    packed.append(word)
                    info_w.append(w_info)
    keys = np.array(packed, dtype=np.int64)
    order = np.argsort(keys)
    return keys[order], np.array(info_w, dtype=np.int64)[order]


def _reference_simulate(keys, info, q, n, k, p, trials, seed):
    """Every trial packed and looked up, in chunks of the oracle's size."""
    qpow = np.array([q**j for j in range(n)], dtype=np.int64)
    rng = np.random.default_rng(seed)
    hits, sep_sum, sep_sumsq, done = 0, 0.0, 0.0, 0
    while done < trials:
        chunk = min(montecarlo._SIM_CHUNK, trials - done)
        errors = rng.random((chunk, n)) < p
        values = rng.integers(1, q, size=(chunk, n), dtype=np.int64)
        received = np.where(errors, values, 0) @ qpow
        idx = np.clip(np.searchsorted(keys, received), 0, len(keys) - 1)
        frac = info[idx[keys[idx] == received]] / k
        hits += len(frac)
        sep_sum += float(frac.sum())
        sep_sumsq += float((frac * frac).sum())
        done += chunk
    cep = hits / trials
    sep = sep_sum / trials
    sep_var = max(sep_sumsq / trials - sep * sep, 0.0)
    return BmSimulation(
        p, seed,
        MonteCarloEstimate(cep, math.sqrt(max(cep * (1.0 - cep), 1e-300) / trials), trials),
        MonteCarloEstimate(sep, math.sqrt(max(sep_var, 1e-300) / trials), trials))


@pytest.mark.parametrize("q, n, k, tau", [
    (8, 7, 3, None),
    (8, 7, 5, None),
    (4, 3, 1, None),
    (9, 5, 3, None),
    (5, 4, 2, None),
    (8, 7, 3, 1),
], ids=["rs-7-3-8", "rs-7-5-8", "rs-3-1-4", "rs-5-3-9", "rs-4-2-5", "rs-7-3-8-tau1"])
def test_oracle_matches_nested_loop_reference(q, n, k, tau):
    code = rs_code(field_from_order(q), n, k)
    oracle = BmSphereOracle(code, tau)
    tau = oracle.tau
    assert tau == ((n - k) // 2 if tau is None else tau)
    keys, info = _reference_tables(code, tau)
    assert oracle._keys.dtype == keys.dtype and oracle._info.dtype == info.dtype
    assert np.array_equal(oracle._keys, keys)
    assert np.array_equal(oracle._info, info)
    for p in (0.05, 0.3):
        assert oracle.simulate(p, 200_000, seed=7) == \
            _reference_simulate(keys, info, q, n, k, p, 200_000, 7)


def test_multichunk_simulation_matches_reference():
    # 2.5 chunks: the heavy-trial filter must keep the stream across chunks
    code = rs_code(Field(2, 3), 7, 3)
    oracle = BmSphereOracle(code)
    trials = 2 * montecarlo._SIM_CHUNK + montecarlo._SIM_CHUNK // 2
    keys, info = _reference_tables(code, oracle.tau)
    assert oracle.simulate(0.2, trials, seed=3) == \
        _reference_simulate(keys, info, 8, 7, 3, 0.2, trials, 3)


# simulate(p, 10**5, seed=7) on RS(7,3,8), recorded before the heavy-trial
# filter counted each trial's weight by summing its error columns
PINNED_ESTIMATES = {0.05: (0.00046, 0.0003333333333333334),
                    0.1: (0.00305, 0.00219),
                    0.2: (0.02236, 0.016053333333333336)}


@pytest.mark.parametrize("p", sorted(PINNED_ESTIMATES))
def test_estimates_are_pinned(p):
    sim = BmSphereOracle(rs_code(Field(2, 3), 7, 3)).simulate(p, 10**5, 7)
    assert (sim.cep.value, sim.sep.value) == PINNED_ESTIMATES[p]


@pytest.mark.parametrize("q, n", [(2, 64), (4, 32), (256, 8), (2, 100)])
def test_words_wider_than_int64_rejected_before_enumeration(monkeypatch, q, n):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    monkeypatch.setattr(montecarlo, "min_distance", refuse)
    monkeypatch.setattr(LinearCode, "codewords", refuse)
    code = code_from_generator(field_from_order(q), [[1] * n])
    with pytest.raises(ValueError, match="int64"):
        BmSphereOracle(code)


def test_widest_packable_words_pass_the_width_check(monkeypatch):
    # q^n = 2^63: the largest word, q^n - 1, still fits in an int64 key
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(montecarlo, "min_distance", reached)
    with pytest.raises(Reached):
        BmSphereOracle(code_from_generator(Field(2, 1), [[1] * 63]))


@pytest.mark.parametrize("tau, message", [(-1, "negative"), (3, "overlap")])
def test_radius_checked(tau, message):
    with pytest.raises(ValueError, match=message):
        BmSphereOracle(rs_code(Field(2, 3), 7, 3), tau)


@pytest.fixture(scope="module")
def small_oracle():
    return BmSphereOracle(rs_code(Field(2, 2), 3, 1))


class TestSimulateArguments:
    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan"), float("inf")])
    def test_probability_outside_unit_interval(self, small_oracle, p):
        with pytest.raises(ParamOutOfRangeError, match="0 <= p <= 1"):
            small_oracle.simulate(p, 1000, seed=1)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials(self, small_oracle, trials):
        with pytest.raises(ParamOutOfRangeError, match="trials >= 1"):
            small_oracle.simulate(0.1, trials, seed=1)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_unit_interval_endpoints_accepted(self, small_oracle, p):
        sim = small_oracle.simulate(p, 1000, seed=1)
        assert 0.0 <= sim.cep.value <= 1.0
        assert sim.cep.trials == 1000

