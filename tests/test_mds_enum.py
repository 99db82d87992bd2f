import ast
import itertools
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mdswe import gf, linear_code, nested_sum, verify
from mdswe.gf import Field, field_from_order
from mdswe.linear_code import Partition, brute_force_pwe, rs_code
from mdswe.mds_enum import (MdsParams, ProfileOutOfRangeError, PweTable, binom,
                            check_rs_params, coordinate_weight_sum, fixed_support_counts,
                            iowe, pwe_product, pwgf, weight_distribution)
from mdswe.nested_sum import psi, pwe_direct, pwe_direct_table

from literal_pipeline import as_poly, fixed_support_counts_by_sum

P738 = MdsParams(7, 3, 8)
P758 = MdsParams(7, 5, 8)
P1511 = MdsParams(15, 11, 16)

# the 14 nonzero profile counts of the (7,3) RS code over GF(8) with
# blocks (1,1,2,3), as verified against exhaustive enumeration
EXPECTED_PWGF_738 = {
    (0, 0, 0, 0): 1,
    (1, 1, 2, 1): 21,
    (1, 1, 1, 2): 42,
    (1, 0, 2, 2): 21,
    (0, 1, 2, 2): 21,
    (1, 1, 2, 2): 63,
    (1, 1, 0, 3): 7,
    (1, 0, 1, 3): 14,
    (0, 1, 1, 3): 14,
    (1, 1, 1, 3): 42,
    (0, 0, 2, 3): 7,
    (1, 0, 2, 3): 21,
    (0, 1, 2, 3): 21,
    (1, 1, 2, 3): 217,
}


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(-1, 0) == 0
    assert binom(5, 2) == 10


class TestMdsParams:
    def test_d(self):
        assert P738.d == 5

    def test_is_a_tuple(self):
        assert P738 == (7, 3, 8) and hash(P738) == hash((7, 3, 8))
        assert repr(P738) == "MdsParams(n=7, k=3, q=8)"

    def test_validation(self):
        with pytest.raises(ValueError):
            MdsParams(3, 4, 8)
        with pytest.raises(ValueError):
            MdsParams(7, 3, 6)  # 6 is not a prime power

    @pytest.mark.parametrize("q", [-4, 0, 1, 6, 12, 100, 2 * 3**5])
    def test_order_must_be_a_prime_power(self, q):
        with pytest.raises(ValueError, match=f"^q={q} is not a prime power$"):
            MdsParams(1, 1, q)

    @pytest.mark.parametrize("q", [2, 3, 4, 9, 49, 243, 1 << 16, 65537])
    def test_prime_powers_accepted(self, q):
        assert MdsParams(1, 1, q).q == q

    def test_order_check_loads_no_field_arithmetic(self):
        # the closed-form experiment scripts never build a field
        probe = ("import sys\nfrom mdswe.errorprob import error_curve\n"
                 "from mdswe.mds_enum import MdsParams\nMdsParams(15, 11, 16)\n"
                 "print('mdswe.gf' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestCheckRsParams:
    @pytest.mark.parametrize("q, n, k, error, message", [
        (6, 5, 3, gf.NotPrimeError, "6 is not a prime power"),
        (6, 3, 5, gf.NotPrimeError, "6 is not a prime power"),       # checked first
        (1, 9, 0, gf.NotPrimeError, "1 is not a prime power"),
        (8, 3, 5, ValueError, "need 1 <= k <= n, got k=5, n=3"),
        (8, 9, 12, ValueError, "need 1 <= k <= n, got k=12, n=9"),   # before n <= q - 1
        (8, 7, 0, ValueError, "need 1 <= k <= n, got k=0, n=7"),
        (8, 8, 3, linear_code.LengthExceedsFieldError, "length 8 exceeds q-1 = 7"),
    ])
    def test_rejections_in_order(self, q, n, k, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check_rs_params(q, n, k)

    @pytest.mark.parametrize("q, n, k", [(2, 1, 1), (8, 7, 3), (8, 7, 7), (9, 8, 1),
                                         (256, 255, 223)])
    def test_accepts(self, q, n, k):
        assert check_rs_params(q, n, k) is None

    def test_rs_code_applies_it(self):
        with pytest.raises(linear_code.LengthExceedsFieldError):
            rs_code(Field(2, 3), 8, 3)
        with pytest.raises(ValueError, match=r"^need 1 <= k <= n, got k=4, n=3$"):
            rs_code(Field(2, 3), 3, 4)


class TestWeightDistribution:
    def test_7_3_8(self):
        assert weight_distribution(P738) == [1, 0, 0, 0, 0, 147, 147, 217]

    def test_whole_space(self):
        prm = MdsParams(5, 5, 4)
        assert weight_distribution(prm) == [binom(5, i) * 3**i for i in range(6)]

    def test_total_15_11_16(self):
        assert sum(weight_distribution(P1511)) == 16**11

    def test_matches_brute_force(self):
        c = rs_code(Field(2, 3), 7, 3)
        t = brute_force_pwe(c, Partition.contiguous((7,)))
        assert weight_distribution(P738) == [t.counts.get((h,), 0) for h in range(8)]


class TestPweDirect:
    def test_paper_coefficient(self):
        assert pwe_direct(P738, (1, 1, 2, 3), (1, 1, 2, 2)) == 63

    def test_zero_profile(self):
        assert pwe_direct(P738, (1, 1, 2, 3), (0, 0, 0, 0)) == 1

    def test_below_distance_is_zero(self):
        assert pwe_direct(P738, (1, 1, 2, 3), (1, 0, 1, 1)) == 0

    def test_profile_validation(self):
        with pytest.raises(ProfileOutOfRangeError):
            pwe_direct(P738, (1, 1, 2, 3), (2, 0, 0, 0))
        with pytest.raises(ProfileOutOfRangeError):
            pwe_direct(P738, (1, 1, 2), (0, 0, 0))  # sizes sum != n


class TestPweProduct:
    def test_paper_coefficient(self):
        assert pwe_product(P738, (1, 1, 2, 3), (0, 1, 2, 2)) == 21

    def test_two_block_derived_value(self):
        # E(5) * C(1,1) C(6,4) / C(7,5) = 147 * 15 / 21, equals the
        # exhaustive count
        assert pwe_product(P738, (1, 6), (1, 4)) == 105
        c = rs_code(Field(2, 3), 7, 3)
        t = brute_force_pwe(c, Partition.contiguous((1, 6)))
        assert t.counts[(1, 4)] == 105

    def test_single_block_reduces_to_weight_distribution(self):
        E = weight_distribution(P738)
        for h in range(8):
            assert pwe_product(P738, (7,), (h,)) == E[h]


class TestPwgf:
    def test_paper_polynomial_exact(self):
        table = pwgf(P738, (1, 1, 2, 3))
        assert table.counts == EXPECTED_PWGF_738

    def test_coefficient_sum_is_512(self):
        assert pwgf(P738, (1, 1, 2, 3)).total() == 512

    def test_single_block_is_wgf(self):
        table = pwgf(P738, (7,))
        assert table.counts == {(0,): 1, (5,): 147, (6,): 147, (7,): 217}

    def test_is_the_brute_force_table_type(self):
        table = pwgf(P738, (1, 1, 2, 3))
        assert type(table) is PweTable and table.sizes == (1, 1, 2, 3)
        assert len(table) == 14
        c = rs_code(Field(2, 3), 7, 3)
        assert brute_force_pwe(c, Partition.contiguous((1, 1, 2, 3))) == table


class TestPweTable:
    def test_len_counts_nonzero_profiles(self):
        assert len(PweTable((2,), {(0,): 1, (1,): 0, (2,): 3})) == 2
        assert len(PweTable((1, 1), {})) == 0

    def test_keys_become_tuples(self):
        assert PweTable([2], {(2,): 3}).counts == {(2,): 3}
        assert PweTable((2,), {(2,): 3}).sizes == (2,)

    @pytest.mark.parametrize("counts, named", [
        ({(0, 0): 1, (1, 3): 0, (3, 1): 1}, (1, 3)),     # a zero count is checked too
        ({(0, 0): 1, (2, 2): 1, (0, -1): 1}, (0, -1)),
        ({(0, 0): 1, (0,): 1, (0, 0, 0): 1}, (0,)),
        ({(1, 1): 1, (0, 0, 0): 1, (3, 0): 1}, (0, 0, 0)),
    ])
    def test_out_of_range_names_the_first_bad_profile(self, counts, named):
        message = f"profile {named} out of range for sizes (2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PweTable((2, 2), counts)

    def test_equality(self):
        table = PweTable((1, 1), {(0, 0): 1, (1, 1): 1})
        assert table == PweTable((1, 1), {(1, 1): 1, (0, 0): 1, (1, 0): 0})
        assert table != PweTable((2,), {(0,): 1, (2,): 1})
        assert table != table.counts


class TestSplitWe:
    """The two-block (split) case of the product form."""

    def test_derived_value(self):
        # 147 * C(3,1) C(4,4) / C(7,5) = 21, equals the exhaustive count
        assert pwe_product(P738, (3, 4), (1, 4)) == 21
        c = rs_code(Field(2, 3), 7, 3)
        assert brute_force_pwe(c, Partition.contiguous((3, 4))).counts[(1, 4)] == 21

    def test_zero_profile(self):
        assert pwe_product(P738, (3, 4), (0, 0)) == 1

    def test_full_weight(self):
        assert pwe_product(P738, (3, 4), (3, 4)) == 217


class TestIowe:
    def test_derived_value(self):
        assert iowe(P738, 3, 1, 5) == 21
        c = rs_code(Field(2, 3), 7, 3)
        assert brute_force_pwe(c, Partition.contiguous((3, 4))).counts[(1, 4)] == 21

    def test_zero(self):
        assert iowe(P738, 3, 0, 0) == 1

    def test_marginal_full_weight(self):
        assert sum(iowe(P738, 3, w, 7) for w in range(4)) == 217

    def test_marginal_is_weight_distribution(self):
        E = weight_distribution(P738)
        for s in (1, 3, 6):
            for h in range(8):
                assert sum(iowe(P738, s, w, h) for w in range(s + 1)) == E[h]

    def test_unrealizable_profiles_count_zero(self):
        assert iowe(P738, 3, 0, 5) == 0  # 5 > n - s = 4
        assert iowe(P738, 3, 3, 2) == 0  # w > h

    def test_out_of_range_raises(self):
        with pytest.raises(ProfileOutOfRangeError):
            iowe(P738, 3, 4, 5)
        with pytest.raises(ProfileOutOfRangeError):
            iowe(P738, 8, 1, 5)


class TestFixedSupport:
    def test_derived_value(self):
        assert fixed_support_counts(P738)[5] == 7
        # exhaustive: codewords supported exactly on the first 5 coordinates
        c = rs_code(Field(2, 3), 7, 3)
        t = brute_force_pwe(c, Partition.contiguous((5, 2)))
        assert t.counts[(5, 0)] == 7

    def test_h_zero(self):
        assert fixed_support_counts(P738)[0] == 1

    def test_full_length(self):
        assert fixed_support_counts(P738)[7] == 217

    def test_below_distance(self):
        assert fixed_support_counts(P738)[1:5] == [0, 0, 0, 0]

    @pytest.mark.parametrize("n,k,q", [(7, 3, 8), (15, 11, 16), (15, 1, 16), (15, 15, 16),
                                       (10, 4, 11), (6, 3, 7), (255, 223, 256)])
    def test_recurrence_matches_alternating_sum(self, n, k, q):
        prm = MdsParams(n, k, q)
        assert fixed_support_counts(prm) == fixed_support_counts_by_sum(prm)

    def test_mutated_list_changes_no_later_result(self):
        prm = MdsParams(7, 3, 8)
        before = (fixed_support_counts(prm), weight_distribution(prm), pwgf(prm, (3, 4)),
                  pwe_product(prm, (3, 4), (2, 3)), iowe(prm, 3, 2, 5),
                  coordinate_weight_sum(prm, 5))
        counts = fixed_support_counts(prm)
        counts[5] = -1
        counts.append(0)
        assert (fixed_support_counts(prm), weight_distribution(prm), pwgf(prm, (3, 4)),
                pwe_product(prm, (3, 4), (2, 3)), iowe(prm, 3, 2, 5),
                coordinate_weight_sum(prm, 5)) == before


class TestCoordinateWeightSum:
    def test_derived_value(self):
        assert coordinate_weight_sum(P738, 5) == 105
        # exhaustive: weight-5 codewords that are nonzero at coordinate 0
        c = rs_code(Field(2, 3), 7, 3)
        t = brute_force_pwe(c, Partition.contiguous((1, 6)))
        assert t.counts[(1, 4)] == 105

    def test_h_zero(self):
        assert coordinate_weight_sum(P738, 0) == 0

    def test_full_weight(self):
        assert coordinate_weight_sum(P738, 7) == 217


class TestIdentities:
    def test_convolution_rhs_is_E(self):
        # psi(h,0) * C(n,h) telescopes to the weight distribution
        for h in range(P738.d, 8):
            assert psi(P738, h, 0) * binom(7, h) == weight_distribution(P738)[h]

    @pytest.mark.parametrize("params", [MdsParams(3, 1, 4), MdsParams(3, 2, 4), P738,
                                        MdsParams(7, 5, 8), MdsParams(15, 7, 16),
                                        MdsParams(15, 11, 16)], ids=str)
    def test_psi_at_zero_shift_is_f_at_every_weight(self, params):
        # psi(h, 0) = f(h) = E(h) / C(n, h), the zero word's f(0) = 1 included,
        # as in the nested sum's zero profile
        n = params.n
        assert [psi(params, h, 0) * binom(n, h) for h in range(n + 1)] == \
            weight_distribution(params)
        assert pwe_direct(params, (n,), (0,)) == psi(params, 0, 0) == 1


def _random_sizes(rng, n):
    p = rng.randint(1, min(n, 4))
    cuts = sorted(rng.sample(range(1, n), p - 1))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))


ORACLE_CODES = [(4, 3, 2), (8, 5, 3), (8, 7, 3), (16, 6, 2)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("q,n,k", ORACLE_CODES)
    def test_all_three_routes_agree(self, q, n, k):
        rng = random.Random(q * 100 + n * 10 + k)
        field = field_from_order(q)
        code = rs_code(field, n, k)
        prm = MdsParams(n, k, q)
        for _ in range(5):
            sizes = _random_sizes(rng, n)
            brute = brute_force_pwe(code, Partition.contiguous(sizes)).counts
            for profile in itertools.product(*[range(s + 1) for s in sizes]):
                direct = pwe_direct(prm, sizes, profile)
                product = pwe_product(prm, sizes, profile)
                assert direct == product == brute.get(profile, 0), (sizes, profile)

    @pytest.mark.parametrize("q,n,k", ORACLE_CODES)
    def test_direct_table_matches_per_profile_and_pwgf(self, q, n, k):
        rng = random.Random(q * 100 + n * 10 + k)
        prm = MdsParams(n, k, q)
        for _ in range(5):
            sizes = _random_sizes(rng, n)
            table = pwe_direct_table(prm, sizes)
            assert table == pwgf(prm, sizes).counts, sizes
            for profile in itertools.product(*[range(s + 1) for s in sizes]):
                assert table.get(profile, 0) == pwe_direct(prm, sizes, profile), \
                    (sizes, profile)

    def test_direct_table_validates_sizes(self):
        with pytest.raises(ProfileOutOfRangeError):
            pwe_direct_table(P738, (1, 1, 2))

    def test_total_is_q_to_k(self):
        for prm in (P738, P758, MdsParams(6, 4, 8)):
            table = pwgf(prm, (2, 2, prm.n - 4))
            assert table.total() == prm.q**prm.k


class TestNestedSumIndependence:
    """The nested sum stays an oracle: it reads no closed form, and its
    shared prefix rows carry nothing of q, d or the block sizes."""

    def test_imports_only_the_shared_helpers(self):
        tree = ast.parse(Path(nested_sum.__file__).read_text(encoding="utf-8"))
        package = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or
                                                     (node.module or "").startswith("mdswe")):
                module = (node.module or "").removeprefix("mdswe").lstrip(".")
                package |= {(module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("mdswe") for a in node.names)
        assert package == {("mds_enum", name) for name in
                           ("MdsParams", "ProfileOutOfRangeError", "_validate_profile", "binom")}

    def test_shared_rows_keep_tables_apart(self):
        for prm, sizes in [(MdsParams(7, 3, 8), (2, 5)), (MdsParams(9, 4, 16), (3, 2, 4)),
                           (MdsParams(6, 2, 8), (3, 3))]:   # warm-up on other codes
            pwe_direct_table(prm, sizes)
        sizes = (3, 2, 4, 1)
        for q, k in [(16, 3), (4, 7), (32, 3), (8, 7), (4, 3), (32, 7), (8, 3), (16, 7),
                     (4, 3), (16, 3)]:
            prm = MdsParams(10, k, q)
            assert pwe_direct_table(prm, sizes) == pwgf(prm, sizes).counts, (q, k)


def unpruned_nested_sum(prm, sizes):
    """Every profile's nested alternating sum, term by term from the formula
    in the `nested_sum` docstring, with no profile or prefix skipped: the
    innermost index runs from max(0, d - J), J the sum of the earlier
    indices.  The zero profile counts the zero word."""
    q, d = prm.q, prm.d
    table = {}
    for profile in itertools.product(*[range(s + 1) for s in sizes]):
        *head, last = profile
        total = 0
        for js in itertools.product(*[range(w + 1) for w in head]):
            outer = math.prod(binom(w, j) * (-1) ** (w - j) for w, j in zip(head, js))
            total += outer * sum(binom(last, j) * (-1) ** (last - j) *
                                 (q ** (sum(js) + j - d + 1) - 1)
                                 for j in range(max(0, d - sum(js)), last + 1))
        total *= math.prod(binom(s, w) for s, w in zip(sizes, profile))
        if total:
            table[profile] = total
    table[(0,) * len(sizes)] = 1
    return table


# low rates: most profiles lie below d, where the walk skips them
LOW_RATE_CASES = [(MdsParams(15, 2, 16), (3, 3, 5, 4)), (MdsParams(7, 1, 8), (1,) * 7),
                  (MdsParams(10, 3, 4), (4, 3, 3))]


class TestNestedSumPruning:
    """The walk skips every profile and prefix whose innermost sums are all
    empty; the unpruned sum gives the same values."""

    @pytest.mark.parametrize("prm, sizes", LOW_RATE_CASES)
    def test_table_matches_unpruned_sum(self, prm, sizes):
        assert pwe_direct_table(prm, sizes) == unpruned_nested_sum(prm, sizes)

    @pytest.mark.parametrize("prm, sizes", LOW_RATE_CASES)
    def test_profiles_at_weight_d_minus_one_and_d(self, prm, sizes):
        seen = set()
        for profile in itertools.product(*[range(s + 1) for s in sizes]):
            h = sum(profile)
            if h == prm.d - 1:
                assert pwe_direct(prm, sizes, profile) == 0, profile
            elif h == prm.d:
                direct = pwe_direct(prm, sizes, profile)
                assert direct == pwe_product(prm, sizes, profile) != 0, profile
            seen.add(h)
        assert {prm.d - 1, prm.d} <= seen


class TestStructuralProperties:
    def test_merge_blocks_matches_merged_partition(self):
        merged = as_poly(pwgf(P1511, (3, 3, 5, 4))).collapse([0, 0, 1, 2], 3)
        assert merged == as_poly(pwgf(P1511, (6, 5, 4)))

    @pytest.mark.parametrize("sizes, target, blocks", [
        ((3, 3, 5, 4), (0, 0, 1, 2), 3), ((1, 1, 2, 3), (1, 0, 1, 0), 2), ((7,), (0,), 1)])
    def test_verify_merge_matches_collapse(self, sizes, target, blocks):
        prm = MdsParams(sum(sizes), 3, 16)
        merged = verify._merge_blocks(pwgf(prm, sizes).counts, target, blocks)
        assert merged == as_poly(pwgf(prm, sizes)).collapse(target, blocks).terms

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_profile_permutation_symmetry(self, data):
        # equal-size blocks are interchangeable
        sizes = (2, 2, 3)
        prm = P738
        w1 = data.draw(st.integers(0, 2))
        w2 = data.draw(st.integers(0, 2))
        w3 = data.draw(st.integers(0, 3))
        assert pwe_product(prm, sizes, (w1, w2, w3)) == \
            pwe_product(prm, sizes, (w2, w1, w3))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_direct_equals_product_random(self, data):
        q = data.draw(st.sampled_from([4, 8, 16]))
        n = data.draw(st.integers(2, min(q - 1, 9)))
        k = data.draw(st.integers(1, n))
        prm = MdsParams(n, k, q)
        p = data.draw(st.integers(1, min(n, 4)))
        cuts = sorted(data.draw(
            st.lists(st.integers(1, n - 1), min_size=p - 1, max_size=p - 1,
                     unique=True)))
        sizes = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
        profile = tuple(data.draw(st.integers(0, s)) for s in sizes)
        assert pwe_direct(prm, sizes, profile) == pwe_product(prm, sizes, profile)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_direct_table_equals_pwgf_random(self, data):
        q = data.draw(st.sampled_from([4, 8, 16]))
        n = data.draw(st.integers(1, min(q - 1, 12)))
        k = data.draw(st.integers(1, n))
        prm = MdsParams(n, k, q)
        p = data.draw(st.integers(1, min(n, 6)))
        cuts = sorted(data.draw(
            st.lists(st.integers(1, n - 1), min_size=p - 1, max_size=p - 1,
                     unique=True))) if p > 1 else []
        sizes = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
        assert pwe_direct_table(prm, sizes) == pwgf(prm, sizes).counts
