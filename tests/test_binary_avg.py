from fractions import Fraction

import pytest

from mdswe.binary_avg import (NotCharTwoError, _horner, avg_binary_iowe, avg_binary_wgf,
                              avg_binary_weights_from_distribution, binomial_approx,
                              bits_per_symbol, pattern_weight_powers)
from mdswe.mds_enum import MdsParams, ProfileOutOfRangeError, binom, pwgf
from mdswe.poly import SparsePoly

from literal_pipeline import (as_poly, avg_binary_pwgf, bit_substitution_poly, evaluate,
                              substitute)

P738 = MdsParams(7, 3, 8)
P758 = MdsParams(7, 5, 8)


def _substitution_oracle(prm, s):
    """Coefficient table of the bit-level IOWE by polynomial substitution:
    the split PWGF evaluated at (F(X*Y), F(Y))."""
    m = bits_per_symbol(prm.q)
    f = bit_substitution_poly(m)
    f_xy = SparsePoly(2, {(e, e): c for (e,), c in f.terms.items()})
    f_y = SparsePoly(2, {(0, e): c for (e,), c in f.terms.items()})
    return substitute(as_poly(pwgf(prm, (s, prm.n - s))), [f_xy, f_y])


def _powers_route(s, m):
    """sum_w s[w] G^w summed from the kept powers G^w of
    `pattern_weight_powers`: the route `_horner` must reproduce."""
    acc = [0] * (m * max(len(s) - 1, 0) + 1)
    for c, power in zip(s, pattern_weight_powers(m)):
        for i, v in enumerate(power):
            acc[i] += c * v
    return acc


class TestHorner:
    @pytest.mark.parametrize("s", [
        [1, 0, 3, 5, 0],             # E(n) = 0: the top power still sets the length
        [1, 0, 0, 0, 0, 0, 0, 0],    # the zero code's weight list
        [0, 2, 7, 1],
        [4],
        [],
    ], ids=["top-zero", "zero-code", "dense", "constant", "empty"])
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_matches_powers_route(self, s, m):
        assert _horner(s, m) == _powers_route(s, m)

    def test_weights_with_top_weight_absent(self):
        m, weights = 2, [1, 0, 3, 4, 0]
        den = 3**4
        assert avg_binary_weights_from_distribution(weights, m) == [
            Fraction(c, den)
            for c in _powers_route([e * 3 ** (4 - h) for h, e in enumerate(weights)], m)]

    def test_zero_code(self):
        assert avg_binary_weights_from_distribution([1] + [0] * 7, 3) == [1] + [0] * 21


class TestBitSubstitutionPoly:
    def test_m1_is_identity(self):
        assert bit_substitution_poly(1).terms == {(1,): Fraction(1)}

    def test_m3(self):
        assert bit_substitution_poly(3).terms == {
            (1,): Fraction(3, 7), (2,): Fraction(3, 7), (3,): Fraction(1, 7)}

    @pytest.mark.parametrize("m", range(1, 9))
    def test_endpoints(self, m):
        f = bit_substitution_poly(m)
        assert evaluate(f, [0]) == 0
        assert evaluate(f, [1]) == 1


class TestBitsPerSymbol:
    def test_values(self):
        assert bits_per_symbol(8) == 3
        assert bits_per_symbol(2) == 1

    def test_rejects_odd(self):
        with pytest.raises(NotCharTwoError):
            bits_per_symbol(9)


class TestAvgBinaryWgf:
    def test_zero_weight_count_is_one(self):
        assert avg_binary_wgf(P738)[0] == 1
        assert avg_binary_wgf(P758)[0] == 1

    def test_total_is_q_to_k(self):
        assert sum(avg_binary_wgf(P738)) == 512

    def test_zero_below_symbol_distance(self):
        # symbol weight >= 5 forces binary weight >= 5
        E_b = avg_binary_wgf(P738)
        assert E_b[1] == E_b[2] == E_b[3] == E_b[4] == 0
        assert E_b[5] > 0

    def test_nonnegative(self):
        assert all(c >= 0 for c in avg_binary_wgf(P758))


class TestAvgBinaryPwgf:
    def test_m1_is_identity_substitution(self):
        prm = MdsParams(3, 2, 2)
        sym = as_poly(pwgf(prm, (1, 2)))
        assert avg_binary_pwgf(sym, 1) == sym

    def test_coefficient_sum(self):
        sub = avg_binary_pwgf(as_poly(pwgf(P738, (1, 6))), 3)
        assert sub.coefficient_sum() == 512

    def test_two_evaluation_orders_agree(self):
        # collapsing the second block before or after substitution
        sym = as_poly(pwgf(P738, (1, 6)))
        sub_then_collapse = avg_binary_pwgf(sym, 3).collapse([0, None], 1)
        collapse_then_sub = avg_binary_pwgf(sym.collapse([0, None], 1), 3)
        assert sub_then_collapse == collapse_then_sub

    @pytest.mark.parametrize("sizes", [(3, 4), (1, 2, 4)])
    def test_collapse_matches_wgf(self, sizes):
        merged = avg_binary_pwgf(as_poly(pwgf(P738, sizes)), 3).collapse([0] * len(sizes), 1)
        E_b = avg_binary_wgf(P738)
        assert merged == SparsePoly(1, {(h,): c for h, c in enumerate(E_b) if c})


class TestAvgBinaryIowe:
    def test_zero_profile(self):
        assert avg_binary_iowe(P738, 3, 0, 0) == 1

    def test_total_is_q_to_k(self):
        total = sum(avg_binary_iowe(P738, 3, w_b, h_b)
                    for w_b in range(10) for h_b in range(22))
        assert total == 512

    @pytest.mark.parametrize("prm", [P738, P758])
    @pytest.mark.parametrize("s", [1, 3])
    def test_closed_form_equals_substitution(self, prm, s):
        m = bits_per_symbol(prm.q)
        oracle = _substitution_oracle(prm, s)
        for w_b in range(m * s + 1):
            for h_b in range(m * prm.n + 1):
                assert avg_binary_iowe(prm, s, w_b, h_b) == \
                    oracle.coeff((w_b, h_b)), (s, w_b, h_b)

    @pytest.mark.parametrize("prm", [P738, P758])
    @pytest.mark.parametrize("s", [1, 3])
    def test_bit_weight_share_identity(self, prm, s):
        # n * sum_wb wb * O(wb, hb) == s * hb * E(hb), exact rationals
        # (equivalently mn * sum = (m s) hb E with bit-level input size)
        m = bits_per_symbol(prm.q)
        E_b = avg_binary_wgf(prm)
        for h_b in range(m * prm.n + 1):
            lhs = prm.n * sum(w_b * avg_binary_iowe(prm, s, w_b, h_b)
                              for w_b in range(1, m * s + 1))
            assert lhs == s * h_b * E_b[h_b]

    def test_out_of_range_raises(self):
        with pytest.raises(ProfileOutOfRangeError):
            avg_binary_iowe(P738, 3, 10, 10)  # w_b > m*s


class TestBinomialApprox:
    def test_direct_formula(self):
        assert binomial_approx(P738, 10) == Fraction(binom(21, 10), 8**4)

    def test_total(self):
        assert sum(binomial_approx(P738, h) for h in range(22)) == 512

    def test_midweight_relative_error_reported(self):
        # informational: the averaged distribution approaches the
        # normalized binomial near mid weight
        E_b = avg_binary_wgf(P738)
        h = 21 // 2
        rel = abs(E_b[h] / binomial_approx(P738, h) - 1)
        print(f"relative error at h_b={h}: {float(rel):.4f}")
        assert rel < Fraction(1, 2)  # sanity only; exact value is reported
