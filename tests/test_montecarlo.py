"""The coset-leader decoder against a literal nested-loop sphere decoder.

`_reference_tables` enumerates the decoding spheres one word at a time
into a dict, and `_reference_simulate` makes the simulator's random draws
in the same order, then packs and looks up every heavy trial one at a
time in that dict.  The oracle must reproduce both exactly: the sphere
table's tally by received weight and identical estimates from the same
seed.  The law of the drawn error words is checked on its own, against
the i.i.d. symbol channel, and the syndromes against the parity checks
computed in the field.
"""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mdswe import montecarlo
from mdswe.gf import Field, field_from_order
from mdswe.linear_code import (DEFAULT_ENUMERATION_BUDGET, LinearCode, code_from_generator, dual,
                               rs_code)
from mdswe.mds_enum import ParamOutOfRangeError
from mdswe.montecarlo import BmSimulation, BmSphereOracle, MonteCarloEstimate


def _reference_tables(code, tau):
    """{base-q packing of each word within tau of a nonzero codeword: that
    codeword's information weight}."""
    q, n, k = code.field.order, code.n, code.k
    info_cols = code.systematic_columns or tuple(range(k))
    table = {}
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
                    assert word not in table   # the spheres are disjoint
                    table[word] = w_info
    return table


def _reference_tally(table, q, n):
    """The table's words counted, and their information weights summed, by
    received weight w = 0..n, the weight read off the base-q digits."""
    words = np.array(list(table), dtype=np.int64)
    info = np.array(list(table.values()), dtype=np.int64)
    weight = sum(words // q**j % q != 0 for j in range(n))
    return ([int(np.count_nonzero(weight == w)) for w in range(n + 1)],
            [int(info[weight == w].sum()) for w in range(n + 1)])


def _reference_simulate(table, q, n, k, w0, p, trials, seed):
    """(estimates, heavy trials): the oracle's draws in the oracle's order,
    in blocks of its size, and each heavy trial decoded on its own."""
    tail = [math.comb(n, w) * p**w * (1.0 - p)**(n - w) for w in range(w0, n + 1)]
    rng = np.random.default_rng(seed)
    heavy = int(rng.binomial(trials, min(math.fsum(tail), 1.0)))
    hits, info_sum, info_sumsq = 0, 0, 0
    for start in range(0, heavy, montecarlo._BLOCK):
        rows = min(montecarlo._BLOCK, heavy - start)
        weight = rng.choice(np.arange(w0, n + 1), size=rows,
                            p=np.array(tail) / math.fsum(tail))
        support = rng.permuted(np.arange(n) < weight[:, None], axis=1)
        values = iter(rng.integers(1, q, size=int(weight.sum()), dtype=np.int64).tolist())
        for row in support.tolist():
            word = sum(next(values) * q**j for j in range(n) if row[j])
            if word in table:
                hits += 1
                info_sum += table[word]
                info_sumsq += table[word] ** 2
    cep = hits / trials
    sep = info_sum / (k * trials)
    sep_var = max(info_sumsq / (k * k * trials) - sep * sep, 0.0)
    return BmSimulation(
        p, seed,
        MonteCarloEstimate(cep, math.sqrt(max(cep * (1.0 - cep), 1e-300) / trials), trials),
        MonteCarloEstimate(sep, math.sqrt(max(sep_var, 1e-300) / trials), trials)), heavy


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
    table = _reference_tables(code, tau)
    assert oracle.sphere_size() == len(table)
    assert oracle.weight_tally() == _reference_tally(table, q, n)
    w0 = n - k + 1 - tau
    for p in (0.0, 0.05, 0.3, 1.0):
        sim, heavy = _reference_simulate(table, q, n, k, w0, p, 50_000, 7)
        assert oracle.simulate(p, 50_000, seed=7) == sim
        if p in (0.0, 1.0):   # no trial is heavy, or every one
            assert heavy == p * 50_000


def test_wide_digit_fields_decode_like_the_reference():
    # over GF(4099) a syndrome digit summed over two coordinates needs 14
    # bits, so each lane holds one digit
    code = rs_code(field_from_order(4099), 2, 1)
    oracle = BmSphereOracle(code)
    assert oracle.tau == 0 and len(oracle._reduce) == 1 << 14
    table = _reference_tables(code, 0)
    assert oracle.weight_tally() == _reference_tally(table, 4099, 2)
    for p in (0.3, 1.0):
        assert oracle.simulate(p, 5_000, seed=2) == _reference_simulate(
            table, 4099, 2, 1, 2, p, 5_000, 2)[0]


@pytest.mark.parametrize("q, n, k", [(8, 7, 3), (9, 5, 3), (5, 4, 2), (4, 3, 1), (16, 6, 2),
                                     (4099, 2, 1)])
def test_syndromes_are_the_parity_checks(q, n, k):
    # the index of H r read in base q, with H r computed in the field
    field = field_from_order(q)
    code = rs_code(field, n, k)
    oracle = BmSphereOracle(code)
    words = np.random.default_rng(5).integers(0, q, size=(300, n)).astype(
        np.min_scalar_type(q - 1))
    expected = []
    for r in words.tolist():
        index = 0
        for row in reversed(dual(code).generator):
            s = 0
            for h, v in zip(row, r):
                s = field.add(s, field.mul(h, v))
            index = index * q + s
        expected.append(index)
    assert oracle._syndromes(words).tolist() == expected


def test_multiblock_simulation_matches_reference():
    # the heavy trials span more than 2.5 blocks: the draws must keep the
    # stream across blocks and the hit counts must add up over them
    code = rs_code(Field(2, 3), 7, 3)
    oracle = BmSphereOracle(code)
    sim, heavy = _reference_simulate(_reference_tables(code, oracle.tau),
                                     8, 7, 3, 3, 0.3, 150_000, 3)
    assert heavy >= 2.5 * montecarlo._BLOCK
    assert oracle.simulate(0.3, 150_000, seed=3) == sim


def test_heavy_errors_follow_the_channel_law():
    # RS(3,1,4) has w0 = 2: the 54 words of weight 2 or 3 are the heavy
    # patterns, each drawn with its i.i.d. channel probability over P(W >= 2)
    q, n, p, draws = 4, 3, 0.3, 10**5
    oracle = BmSphereOracle(rs_code(Field(2, 2), 3, 1))
    words = oracle._heavy_errors(np.random.default_rng(11), draws, p)
    assert words.dtype == np.uint8
    observed = Counter(map(tuple, words.tolist()))
    heavy = [e for e in itertools.product(range(q), repeat=n)
             if sum(v != 0 for v in e) >= 2]
    assert len(heavy) == 54 and set(observed) <= set(heavy)
    tail = sum(math.comb(n, w) * p**w * (1 - p)**(n - w) for w in (2, 3))
    chi2 = 0.0
    for e in heavy:
        w = sum(v != 0 for v in e)
        expected = draws * p**w * (1 - p)**(n - w) / (q - 1)**w / tail
        chi2 += (observed[e] - expected) ** 2 / expected
    assert chi2 < 90.57   # chi-square quantile at 53 degrees of freedom, alpha = 1e-3


# simulate(p, 10**5, seed=7) on RS(7,3,8), recorded when the simulator
# began drawing only the trials that can reach a sphere
PINNED_ESTIMATES = {0.05: (0.00043, 0.00028333333333333335),
                    0.1: (0.00344, 0.002373333333333333),
                    0.2: (0.02266, 0.016253333333333335)}


@pytest.mark.parametrize("p", sorted(PINNED_ESTIMATES))
def test_estimates_are_pinned(p):
    sim = BmSphereOracle(rs_code(Field(2, 3), 7, 3)).simulate(p, 10**5, 7)
    assert (sim.cep.value, sim.sep.value) == PINNED_ESTIMATES[p]


def _reaches_enumeration(monkeypatch, code):
    """True iff the oracle gets past its syndrome-table budget on `code`."""
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(montecarlo, "min_distance", reached)
    monkeypatch.setattr(LinearCode, "codewords", reached)
    try:
        BmSphereOracle(code)
    except Reached:
        return True
    except ValueError as exc:
        assert "syndromes exceed enumeration budget" in str(exc)
        return False
    raise AssertionError("neither refused nor enumerated")


@pytest.mark.parametrize("q, n, fits", [(2, 27, True), (2, 28, False), (4, 14, True),
                                        (4, 15, False), (256, 5, False), (2, 100, False)])
def test_syndrome_table_budget_checked_before_enumeration(monkeypatch, q, n, fits):
    # a one-row code has q^(n-1) syndromes; the budget is 2^26
    assert (q ** (n - 1) <= DEFAULT_ENUMERATION_BUDGET) is fits
    code = code_from_generator(field_from_order(q), [[1] * n])
    assert _reaches_enumeration(monkeypatch, code) is fits


def test_decoder_memory_is_bounded_by_its_blocks():
    # tracemalloc counts numpy's buffers: on RS(7,3,8) the build, the
    # tally of 551,369 sphere words and a simulation of ~15,000 heavy
    # trials (about one block) stay within 1 MiB, of which the 4,096-entry
    # leader table is 8 KiB
    code = rs_code(Field(2, 3), 7, 3)

    def run():
        oracle = BmSphereOracle(code)
        oracle.weight_tally()
        oracle.simulate(0.2, 10**5, seed=7)
        return oracle

    run()   # caches the support histogram and warms numpy's generator
    tracemalloc.start()
    try:
        oracle = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle._leader.size == 8**4 and oracle._leader.nbytes == 8192
    assert peak <= 1 << 20


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

