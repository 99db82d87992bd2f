import random
import re
from fractions import Fraction

import pytest

from mdswe.gf import Field, field_from_order
from mdswe.duality import (IncompleteTableError, NonIntegerResultError,
                           ParamOutOfRangeError, dual_property_a, krawtchouk,
                           krawtchouk_matrix, macwilliams_pwe, property_a_check)
from mdswe.linear_code import (Partition, RankDeficientError, brute_force_pwe,
                               brute_force_weights, code_from_generator, dual, rm1_code,
                               rs_code)
from mdswe.mds_enum import MdsParams, PweTable, pwgf
from mdswe.poly import SparsePoly

F2 = Field(2, 1)
F8 = Field(2, 3)

ROWS_53 = [[1, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1]]


def _random_code(field, n, k, rng):
    while True:
        rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
        try:
            return code_from_generator(field, rows)
        except RankDeficientError:
            continue


def _scattered(n, p, rng):
    """Partition of n coordinates into p blocks, coordinates shuffled."""
    assignment = [j % p for j in range(n)]
    rng.shuffle(assignment)
    return Partition(tuple(assignment.count(b) for b in range(p)), tuple(assignment))


class TestKrawtchouk:
    def test_beta_zero_is_one(self):
        for v in range(6):
            assert krawtchouk(2, 0, v, 5) == 1
            assert krawtchouk(8, 0, v, 5) == 1

    def test_v_zero(self):
        for q in (2, 4, 8):
            for beta in range(6):
                assert krawtchouk(q, beta, 0, 5) == \
                    __import__("math").comb(5, beta) * (q - 1) ** beta

    def test_binary_generating_identity(self):
        # sum_beta K_beta(v, gamma) x^beta == (1+x)^(gamma-v) (1-x)^v
        x = SparsePoly(1, {(1,): 1})
        one = SparsePoly.one(1)
        for gamma in range(1, 7):
            for v in range(gamma + 1):
                rhs = (one + x) ** (gamma - v) * (one - x) ** v
                for beta in range(gamma + 1):
                    assert krawtchouk(2, beta, v, gamma) == rhs.coeff((beta,))

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRangeError):
            krawtchouk(2, 3, 0, 2)
        with pytest.raises(ParamOutOfRangeError):
            krawtchouk(2, 0, 3, 2)

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 16])
    def test_matrix_matches_entrywise_sum(self, q):
        for gamma in range(13):
            assert krawtchouk_matrix(q, gamma) == \
                [[krawtchouk(q, beta, v, gamma) for beta in range(gamma + 1)]
                 for v in range(gamma + 1)], gamma


class TestMacWilliamsPwe:
    def test_full_space_maps_to_zero_code(self):
        full = code_from_generator(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        table = brute_force_pwe(full, Partition.contiguous((1, 2)))
        out = macwilliams_pwe(table, 2, 3)
        assert out.counts == {(0, 0): 1}

    def test_rs_code_matches_brute_force_dual(self):
        c = rs_code(F8, 7, 3)
        part = Partition.contiguous((3, 4))
        lhs = macwilliams_pwe(brute_force_pwe(c, part), 8, 3)
        assert lhs == brute_force_pwe(dual(c), part)

    @pytest.mark.parametrize("part", [Partition.contiguous((2, 3)),
                                      Partition((2, 1, 2), (1, 0, 2, 2, 0))],
                             ids=["2-blocks", "3-blocks"])
    def test_involution(self, part):
        c = code_from_generator(F2, ROWS_53)
        table = brute_force_pwe(c, part)
        again = macwilliams_pwe(macwilliams_pwe(table, 2, 3), 2, 2)
        assert again == table

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5])
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_random_codes(self, q, blocks):
        rng = random.Random(q)
        field = field_from_order(q)
        for _ in range(4):
            n = rng.randint(max(3, blocks), 10)
            k = rng.randint(1, min(n - 1, 4))
            c = _random_code(field, n, k, rng)
            part = _scattered(n, blocks, rng)
            lhs = macwilliams_pwe(brute_force_pwe(c, part), q, k)
            assert lhs == brute_force_pwe(dual(c), part)

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1)])
    def test_incomplete_table_rejected(self, sizes):
        with pytest.raises(IncompleteTableError):
            macwilliams_pwe(PweTable(sizes, {(0,) * len(sizes): 1}), 2, 1)

    def test_non_code_table_rejected(self):
        # two words both of profile (1,0): not closed under addition
        bogus = PweTable((1, 1), {(1, 0): 2})
        with pytest.raises(NonIntegerResultError):
            macwilliams_pwe(bogus, 2, 1)

    @pytest.mark.parametrize("counts, k, message", [
        ({(0, 0, 0): 3, (0, 0, 1): 1}, 2, "entry at (0, 0, 1) is 2/4;"),    # remainder
        ({(0, 0, 1): 1, (0, 1, 0): 1}, 1, "entry at (0, 1, 1) is -2/2;"),   # negative
    ], ids=["remainder", "negative"])
    def test_three_block_non_code_table_names_the_profile(self, counts, k, message):
        with pytest.raises(NonIntegerResultError, match=re.escape(message)):
            macwilliams_pwe(PweTable((1, 1, 1), counts), 2, k)

    def test_collapse_matches_classical_transform(self):
        c = rs_code(F8, 7, 3)
        two_block = macwilliams_pwe(brute_force_pwe(c, Partition.contiguous((3, 4))), 8, 3)
        by_weight = SparsePoly(2, two_block.counts).collapse([0, 0], 1)
        one_block = macwilliams_pwe(brute_force_pwe(c, Partition.contiguous((7,))), 8, 3)
        assert by_weight.terms == one_block.counts
        assert [one_block.counts.get((h,), 0) for h in range(8)] == brute_force_weights(dual(c))

    @pytest.mark.parametrize("sizes", [(7,), (3, 4), (2, 2, 3), (1, 2, 2, 2),
                                       (15,), (7, 8), (3, 5, 7), (3, 3, 5, 4)])
    def test_mds_dual_closed_form(self, sizes):
        # the dual of an (n, k) MDS code is an (n, n - k) MDS code
        q = 8 if sum(sizes) == 7 else 16
        n = sum(sizes)
        for k in range(1, n):
            table = pwgf(MdsParams(n, k, q), sizes)
            expected = pwgf(MdsParams(n, n - k, q), sizes)
            assert macwilliams_pwe(table, q, k) == expected, k

    def test_mds_dual_closed_form_rs_255_223(self):
        # a code no enumeration reaches: RS(255,223) over GF(256), one block
        table = pwgf(MdsParams(255, 223, 256), (255,))
        expected = pwgf(MdsParams(255, 32, 256), (255,))
        assert macwilliams_pwe(table, 256, 223) == expected


class TestPropertyA:
    def test_counterexample_fails_with_witness(self):
        report = property_a_check(code_from_generator(F2, ROWS_53))
        assert not report.holds
        # weight class 2 has three codewords; 2*3/5 per coordinate is not
        # an integer, so every coordinate at h=2 is a witness
        w = next(w for w in report.witnesses if w.weight == 2 and w.coordinate == 0)
        assert w.expected == Fraction(6, 5)
        assert w.observed == 0

    def test_report_bool(self):
        assert bool(property_a_check(rm1_code(3)))
        assert not bool(property_a_check(code_from_generator(F2, ROWS_53)))

    @pytest.mark.parametrize("code", [
        pytest.param(lambda: code_from_generator(F2, ROWS_53), id="counterexample-5-3"),
        pytest.param(lambda: _random_code(field_from_order(4), 6, 3, random.Random(4)),
                     id="gf4-6-3"),
        pytest.param(lambda: _random_code(field_from_order(9), 5, 2, random.Random(9)),
                     id="gf9-5-2"),
        pytest.param(lambda: rm1_code(7), id="rm1-7"),
    ])
    def test_witnesses_match_python_tally(self, code):
        # reference: coordinate weight sums over every codeword, one at a time
        code = code()
        n = code.n
        weights = [0] * (n + 1)
        per_coord = [[0] * n for _ in range(n + 1)]
        for word in code.codewords():
            h = sum(1 for v in word if v)
            weights[h] += 1
            for i, v in enumerate(word):
                if v:
                    per_coord[h][i] += 1
        expected = [(i, h, per_coord[h][i], Fraction(h * weights[h], n))
                    for h in range(1, n + 1) if weights[h] for i in range(n)
                    if per_coord[h][i] != Fraction(h * weights[h], n)]
        report = property_a_check(code)
        assert [(w.coordinate, w.weight, w.observed, w.expected)
                for w in report.witnesses] == expected
        assert report.holds == (not expected)


class TestDualPropertyA:
    def test_counterexample_and_its_dual(self):
        assert dual_property_a(code_from_generator(F2, ROWS_53)) == (False, False)

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_random_codes(self, seed):
        rng = random.Random(seed)
        field = field_from_order(rng.choice([2, 2, 4]))
        n = rng.randint(3, 9)
        k = rng.randint(1, n - 1)
        a, b = dual_property_a(_random_code(field, n, k, rng))
        assert a == b
