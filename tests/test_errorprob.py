import itertools
import math
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdswe import cli, duality, errorprob, mds_enum
from mdswe.binary_avg import NotCharTwoError, avg_binary_wgf, bits_per_symbol
from mdswe.errorprob import (FREE, FULL, ZERO, ChannelPoint, Condition,
                             ConditionCountMismatchError, ErrorCurve,
                             ParamOutOfRangeError, _bm_coefficients, _bm_sum,
                             _coefficients, _floats, _sphere_spectrum, _user_profile, at_most,
                             channel_map, error_curve, parse_condition, q_function,
                             snr_grid)
from mdswe.gf import Field
from mdswe.linear_code import code_from_generator, dual
from mdswe.mds_enum import MdsParams, pwgf, weight_distribution
from mdswe.montecarlo import BmSphereOracle

from exact_bm import decoded_numerators, exact_bm, sphere_distance_prob
from literal_pipeline import as_poly, avg_binary_pwgf, conditional_pwgf, user_iowe

P738 = MdsParams(7, 3, 8)
P1511 = MdsParams(15, 11, 16)
SIZES_1511 = (3, 3, 5, 4)
P6351 = MdsParams(63, 51, 64)
SIZES_6351 = (15, 15, 15, 18)
P255_223 = MdsParams(255, 223, 256)
SIZES_255 = (56, 56, 56, 87)


def _bep_reference(params, gamma_db):
    """The code-level BEP bound summed straight from the averaged binary
    spectrum: sum_h (h/(mn)) E~(h) Q(sqrt(2 h (k/n) g)), clipped to 1."""
    n, m = params.n, bits_per_symbol(params.q)
    avg = avg_binary_wgf(params)
    gamma = 10.0 ** (gamma_db / 10.0)
    terms = [float(Fraction(h, m * n) * avg[h])
             * q_function(math.sqrt(2.0 * h * (params.k / n) * gamma))
             for h in range(1, m * n + 1) if avg[h]]
    return min(1.0, math.fsum(sorted(terms)))


def _exact_profile(params, sizes, user, conditions, m):
    """The user profile as exact Fractions, built from the integer
    numerators and the one common denominator `_user_profile` returns."""
    numerators, den = _user_profile(params, sizes, user, conditions, m)
    return {h: Fraction(c, den) for h, c in numerators.items()}


def _sep_from_weights(params, p):
    """The BM symbol error probability summed from the weight list, with
    coefficients (h/n) E(h) for h >= d: the reference the one-block
    profile must reproduce."""
    n, d, E = params.n, params.d, weight_distribution(params)
    coeffs = _bm_coefficients(n, params.q, (d - 1) // 2, {h: h * E[h] for h in range(d, n + 1)}, n)
    return _bm_sum(coeffs, n, p)


def _bep_point(params, gamma_db):
    return error_curve(params, [gamma_db], "bep").points[0][1]


def _distance_distribution_oracle(n, q, h, p):
    """Exhaustive distance distribution for tiny channels: enumerate every
    received word with its probability against a fixed weight-h codeword."""
    codeword = [1] * h + [0] * (n - h)
    dist = [0.0] * (n + 1)
    for word in itertools.product(range(q), repeat=n):
        prob = 1.0
        for v in word:
            prob *= (1 - p) if v == 0 else p / (q - 1)
        d = sum(1 for a, b in zip(word, codeword) if a != b)
        dist[d] += prob
    return dist


class TestChannelMap:
    def test_high_snr_limit(self):
        ch = channel_map(40.0, 7, 3, 3)
        assert ch.p_bit < 1e-12 and ch.p_symbol < 1e-11

    def test_zero_linear_snr_gives_half(self):
        ch = channel_map(-300.0, 7, 3, 3)
        assert ch.p_bit == pytest.approx(0.5, abs=1e-6)

    def test_m1_symbol_equals_bit(self):
        ch = channel_map(3.0, 7, 4, 1)
        assert ch.p_symbol == ch.p_bit

    def test_symbol_from_bit(self):
        ch = channel_map(2.0, 15, 11, 4)
        assert ch.p_symbol == pytest.approx(1 - (1 - ch.p_bit) ** 4, rel=1e-12)

    def test_symbol_from_bit_does_not_cancel(self):
        # at 18 dB p_bit is ~1e-22, and 1 - (1 - p_bit)^4 in floats is 0
        ch = channel_map(18.0, 15, 11, 4)
        exact = 1 - (1 - Fraction(ch.p_bit)) ** 4
        assert abs(Fraction(ch.p_symbol) - exact) <= Fraction(1e-15) * exact
        assert error_curve(P1511, [18.0], "cep").points[0][1] > 0.0


class TestSphereDistanceProb:
    def test_error_free_channel(self):
        for h in range(8):
            for t in range(8):
                expected = 1.0 if t == h else 0.0
                assert sphere_distance_prob(7, 8, h, t, 0.0) == expected

    def test_small_case_frozen_value(self):
        # weight-1 codeword at distance 0 needs the single support symbol
        # flipped to the codeword value and no other errors
        assert sphere_distance_prob(3, 2, 1, 0, 0.1) == pytest.approx(0.081, abs=1e-15)

    @pytest.mark.parametrize("q,n,h", [(2, 3, 1), (2, 4, 2), (4, 3, 3), (8, 2, 1)])
    @pytest.mark.parametrize("p", [0.1, 0.35])
    def test_matches_exhaustive_oracle(self, q, n, h, p):
        oracle = _distance_distribution_oracle(n, q, h, p)
        for t in range(n + 1):
            assert sphere_distance_prob(n, q, h, t, p) == pytest.approx(
                oracle[t], abs=1e-14)

    @given(st.floats(0.0, 1.0), st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval(self, p, h, t):
        v = sphere_distance_prob(7, 8, h, t, p)
        assert -1e-15 <= v <= 1.0 + 1e-12

    def test_param_validation(self):
        with pytest.raises(ParamOutOfRangeError):
            sphere_distance_prob(7, 8, 9, 0, 0.1)
        with pytest.raises(ParamOutOfRangeError):
            sphere_distance_prob(7, 8, 0, 0, 1.5)

    def test_one_param_error_class(self):
        # duality and errorprob re-export the class defined in mds_enum
        assert ParamOutOfRangeError is mds_enum.ParamOutOfRangeError
        assert ParamOutOfRangeError is duality.ParamOutOfRangeError
        with pytest.raises(ParamOutOfRangeError):
            duality.krawtchouk(8, 4, 0, 3)


class TestBmDecoder:
    def test_zero_error_channel(self):
        for metric in ("cep", "sep"):
            assert _bm_sum(_coefficients(P738, metric), 7, 0.0) == 0.0

    @pytest.mark.parametrize("m", [1, 6])
    @pytest.mark.parametrize("sizes,user,conditions", [
        ((63,), 0, (FREE,)), (SIZES_6351, 1, (FREE,) * 4),
        (SIZES_6351, 2, (ZERO, FULL, FREE, at_most(Fraction(1, 2))))],
        ids=["code", "free", "conditioned"])
    def test_float_boundary_equals_fraction_floats(self, m, sizes, user, conditions):
        # integer true division is correctly rounded, as float(Fraction) is
        numerators, den = _user_profile(P6351, sizes, user, conditions, m)
        assert numerators and all(numerators.values())
        assert _floats(numerators, den) == \
            {h: float(Fraction(c, den)) for h, c in numerators.items()}
        E = weight_distribution(P6351)
        assert _floats({h: E[h] for h in range(64)}, 1) == {h: float(E[h]) for h in range(64)}
        if m == 1:   # symbol level: the BM boundary, mu(w) = M(w) / (den C(n,w) (q-1)^w)
            spectrum = _sphere_spectrum(63, 64, 6, numerators)
            assert _bm_coefficients(63, 64, 6, numerators, den) == \
                {w: float(Fraction(c, den * math.comb(63, w) * 63**w))
                 for w, c in enumerate(spectrum) if c}

    @pytest.mark.parametrize("q,n", [(2, 4), (4, 3), (8, 2)])
    def test_sphere_rows_match_exhaustive_count(self, q, n):
        # N(h, w): the words of weight w within tau of a fixed weight-h word
        for tau in range(n + 1):
            for h in range(n + 1):
                counts = [0] * (n + 1)
                for word in itertools.product(range(q), repeat=n):
                    if sum(v != 1 for v in word[:h]) + sum(v != 0 for v in word[h:]) <= tau:
                        counts[sum(v != 0 for v in word)] += 1
                assert _sphere_spectrum(n, q, tau, {h: 1}) == counts, (tau, h)

    @pytest.mark.parametrize("params", [P738, P1511, P6351], ids=["7,3", "15,11", "63,51"])
    @pytest.mark.parametrize("p", [0.0, 1e-6, 0.01, 0.3, 1.0])
    def test_sphere_row_sums_match_exact_oracle(self, params, p):
        # one codeword's sphere: the float BM sum over its row N(h, .)
        # against the exact D(h) at the float p.  Within 1e-15 where D(h)
        # is a normal float; below that each term rounds to a multiple of
        # the smallest subnormal, so the sum is within one such unit per term.
        n, q, tau = params.n, params.q, (params.d - 1) // 2
        numerators, scale = decoded_numerators(n, q, tau, p)
        for h in range(n + 1):
            coeffs = _bm_coefficients(n, q, tau, {h: 1}, 1)
            decoded = _bm_sum(coeffs, n, p)
            exact = Fraction(numerators[h], scale)
            if exact >= sys.float_info.min:
                assert abs(Fraction(decoded) - exact) <= Fraction(1e-15) * exact, h
            else:
                assert abs(decoded - float(exact)) <= (len(coeffs) + 1) * math.ulp(0.0), h

    def test_bm_overflow_fails_before_the_spectrum(self, monkeypatch):
        # C(2047, 1023) is not a float: the curve fails before the O(k tau^2) build
        def build(*args):
            raise AssertionError("spectrum built")
        monkeypatch.setattr(errorprob, "_sphere_spectrum", build)
        with pytest.raises(OverflowError, match="float64 range"):
            error_curve(MdsParams(2047, 50, 2048), [4.0], "cep")

    @pytest.mark.parametrize("q,n", [(2, 4), (4, 3), (8, 2)])
    @pytest.mark.parametrize("p", [0.1, 0.375])
    def test_exact_oracle_matches_exhaustive_channel(self, q, n, p):
        # every received word, with its exact probability at the float p
        exact_p = Fraction(p)
        for tau in range(n + 1):
            numerators, den = decoded_numerators(n, q, tau, p)
            for h in range(n + 1):
                total = Fraction(0)
                for word in itertools.product(range(q), repeat=n):
                    dist = sum(v != 1 for v in word[:h]) + sum(v != 0 for v in word[h:])
                    if dist <= tau:
                        total += math.prod(1 - exact_p if v == 0 else exact_p / (q - 1)
                                           for v in word)
                assert Fraction(numerators[h], den) == total, (tau, h)

    @pytest.mark.parametrize("code, sizes", [("rs:16:15:11", SIZES_1511),
                                             ("rs:64:63:51", SIZES_6351)],
                             ids=["15,11", "63,51"])
    @pytest.mark.parametrize("metric, user, conditions", [
        ("cep", None, None), ("sep", None, None),
        ("sep", 3, "free,free,free,free"), ("sep", 3, "zero,zero,free,free"),
        ("sep", 3, "zero,full,free,free"), ("sep", 3, "full,full,free,free"),
        ("sep", 2, "full,atmost:1/3,atmost:1/2,free")],
        ids=["cep", "sep", "free", "zero", "zero-full", "full", "atmost"])
    def test_printed_values_match_exact_oracle(self, capsys, code, sizes, metric, user,
                                               conditions):
        argv = ["errprob", "--code", code, "--metric", metric, "--snr", "4:8:0.25",
                "--format", "csv"]
        kw = {}
        if user is not None:
            argv += ["--partition", ",".join(map(str, sizes)), "--user", str(user),
                     "--condition", conditions]
            kw = dict(sizes=sizes, user=user - 1,
                      conditions=tuple(map(parse_condition, conditions.split(","))))
        assert cli.main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 17
        q, n, k = map(int, code.split(":")[1:])
        params = MdsParams(n, k, q)
        for row in rows:
            g, v = map(float, row.split(","))
            exact = exact_bm(params, metric, channel_map(g, n, k, bits_per_symbol(q)).p_symbol,
                             **kw)
            assert exact > 0 and abs(Fraction(v) - exact) <= Fraction(1e-14) * exact, g

    @pytest.mark.parametrize("params, metric, kw", [
        (P255_223, "cep", {}), (P255_223, "sep", {}),
        (P255_223, "sep", dict(sizes=SIZES_255, user=3, conditions=(FREE,) * 4)),
        (P255_223, "sep", dict(sizes=SIZES_255, user=2,
                               conditions=(ZERO, FULL, FREE, at_most(Fraction(1, 2))))),
        (MdsParams(255, 239, 256), "cep", {})],
        ids=["223-cep", "223-sep", "223-user", "223-conditioned", "239-cep"])
    def test_paper_scale_values_match_exact_oracle(self, params, metric, kw):
        # E(h) of the n = 255 codes is far beyond the float range; the
        # shares mu(w) are not.  Every value is below the McEliece-Swanson
        # bound 1/tau!, and the unconditioned curves fall with SNR.
        n, k, tau = params.n, params.k, (params.d - 1) // 2
        points = error_curve(params, [-1000.0, 3.0, 5.0, 12.0], metric, **kw).points
        values = [v for _, v in points]
        assert all(0.0 < v < 1 / math.factorial(tau) for v in values)
        if set(kw.get("conditions", (FREE,))) == {FREE}:
            assert values == sorted(values, reverse=True)
        for g, v in points:
            exact = exact_bm(params, metric, channel_map(g, n, k, 8).p_symbol, **kw)
            assert abs(Fraction(v) - exact) <= Fraction(1e-12) * exact, g

    def test_low_rate_value_matches_exact_oracle(self):
        # (255,31,256), tau = 112: a point whose terms p1^(h-j) of a
        # per-codeword-weight sum would underflow
        params = MdsParams(255, 31, 256)
        [(_, v)] = error_curve(params, [4.0], "cep").points
        exact = exact_bm(params, "cep", channel_map(4.0, 255, 31, 8).p_symbol)
        assert abs(Fraction(v) - exact) <= Fraction(1e-12) * exact

    def test_sep_below_cep(self):
        cep, sep = _coefficients(P1511, "cep"), _coefficients(P1511, "sep")
        for p in (0.01, 0.05, 0.2):
            assert _bm_sum(sep, 15, p) <= _bm_sum(cep, 15, p)

    def test_oracle_rejects_zero_code(self):
        zero = dual(code_from_generator(Field(2, 1), [[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="zero code"):
            BmSphereOracle(zero)


class TestMlUnionBounds:
    def test_high_snr_limit(self):
        assert _bep_point(P738, 40.0) < 1e-12

    def test_bit_coefficient_ratio(self):
        # the BEP coefficient is (h / mn) E~(h) for every weight: the
        # one-block profile at m bits per symbol
        avg = avg_binary_wgf(P738)
        assert _exact_profile(P738, (7,), 0, (FREE,), 3) == \
            {h: Fraction(h, 21) * avg[h] for h in range(1, 22) if avg[h]}

    @pytest.mark.parametrize("params", [P738, P1511, P6351], ids=["7,3", "15,11", "63,51"])
    def test_bep_curve_equals_spectrum_sum(self, params):
        # the one-block profile and the averaged spectrum give one exact
        # rational per weight, so the floats agree bit for bit
        grid = snr_grid(-5.0, 8.0, 0.5)
        assert error_curve(params, grid, "bep").points == \
            tuple((g, _bep_reference(params, g)) for g in grid)

    @pytest.mark.parametrize("gamma_db", [-5.0, 2.0, 6.0])
    def test_union_term_matches_reference_sum(self, gamma_db):
        # the one ML term: coeff(h) Q(sqrt(2 h R g)) with R = k/n and g the
        # linear SNR, summed over h and clipped to 1
        avg = avg_binary_wgf(P738)
        g = 10.0 ** (gamma_db / 10.0)
        reference = sum(float(Fraction(h, 21) * avg[h])
                        * 0.5 * math.erfc(math.sqrt(h * (3 / 7) * g))
                        for h in range(1, 22) if avg[h])
        assert _bep_point(P738, gamma_db) == pytest.approx(min(1.0, reference), rel=1e-12)


class TestConditionalPwgf:
    def test_paper_filter(self):
        poly = as_poly(pwgf(P738, (1, 1, 2, 3)))
        kept = conditional_pwgf(poly, (1, 1, 2, 3), (ZERO, FULL, FREE, FREE))
        assert kept.terms == {(0, 1, 1, 3): 14, (0, 1, 2, 2): 21, (0, 1, 2, 3): 21}

    def test_all_free_unchanged(self):
        poly = as_poly(pwgf(P738, (1, 1, 2, 3)))
        assert conditional_pwgf(poly, (1, 1, 2, 3), (FREE,) * 4) == poly

    def test_all_full_single_term(self):
        poly = as_poly(pwgf(P738, (1, 1, 2, 3)))
        kept = conditional_pwgf(poly, (1, 1, 2, 3), (FULL,) * 4)
        assert kept.terms == {(1, 1, 2, 3): 217}

    def test_at_most_fraction(self):
        poly = as_poly(pwgf(P738, (3, 4)))
        kept = conditional_pwgf(poly, (3, 4), (at_most(Fraction(1, 3)), FREE))
        assert all(e[0] <= 1 for e in kept.terms)

    def test_binary_full_weight(self):
        binary = avg_binary_pwgf(as_poly(pwgf(P738, (3, 4))), 3)
        kept = conditional_pwgf(binary, (3, 4), (FULL, FREE), binary=True, m=3)
        assert all(e[0] == 9 for e in kept.terms)
        assert len(kept) > 0

    def test_condition_count_mismatch(self):
        poly = as_poly(pwgf(P738, (3, 4)))
        with pytest.raises(ConditionCountMismatchError):
            conditional_pwgf(poly, (3, 4), (FREE,))

    def test_parse_condition(self):
        assert parse_condition("zero") == ZERO
        assert parse_condition("atmost:0.25") == at_most(Fraction(1, 4))
        with pytest.raises(ValueError):
            parse_condition("half")

    @pytest.mark.parametrize("args, message", [
        (("half",), "unknown condition kind 'half'"),
        (("atmost",), "exactly the 'atmost' condition carries a fraction"),
        (("free", Fraction(1, 2)), "exactly the 'atmost' condition carries a fraction"),
        (("atmost", Fraction(3, 2)), "fraction 3/2 not in [0, 1]"),
    ])
    def test_condition_validation(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Condition(*args)

    def test_records_are_tuples(self):
        assert ZERO == ("zero", None) and str(ZERO) == "zero"
        half = at_most(Fraction(1, 2))
        assert half == ("atmost", Fraction(1, 2)) and str(half) == "atmost:1/2"
        assert repr(half) == "Condition(kind='atmost', fraction=Fraction(1, 2))"
        point = channel_map(6.0, 7, 3, 1)
        assert isinstance(point, ChannelPoint) and point == (point.p_bit, point.p_symbol)
        curve = error_curve(P738, (6.0,), "cep")
        assert isinstance(curve, ErrorCurve)
        assert curve == (curve.decoder, curve.metric, curve.user, curve.conditions, curve.points)
        for record in (half, P738, curve):
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)


class TestUserIowe:
    def test_marginal_is_weight_distribution(self):
        poly = as_poly(pwgf(P1511, SIZES_1511))
        E = weight_distribution(P1511)
        for j in range(4):
            ow = user_iowe(poly, j)
            for h in range(16):
                assert sum(c for (w, hh), c in ow.items() if hh == h) == E[h]

    def test_user_index_validated(self):
        with pytest.raises(ValueError):
            user_iowe(as_poly(pwgf(P738, (3, 4))), 2)


class TestMultiuser:
    GRID = (4.0, 5.0, 6.5, 8.0)

    def test_unconditional_sep_equals_code_sep(self):
        # with all blocks free, O_h collapses to (h/n) E(h): the user SEP
        # is the plain symbol error probability, bit for bit
        for u in range(3):
            curve = error_curve(P1511, self.GRID, "sep", SIZES_1511, u, (FREE,) * 4)
            assert curve.points == tuple(
                (g, _sep_from_weights(P1511, channel_map(g, 15, 11, 4).p_symbol))
                for g in self.GRID)

    @pytest.mark.parametrize("metric", ["sep", "bep"])
    def test_all_free_user_curve_equals_code_curve(self, metric):
        # the all-free profile is (h/(mn)) E~(h) exactly at m = 1 and at
        # m = log2 q, so every user's curve is the code-level one bit for bit
        code = error_curve(P1511, self.GRID, metric)
        for u in range(4):
            assert error_curve(P1511, self.GRID, metric, SIZES_1511, u,
                               (FREE,) * 4).points == code.points

    @pytest.mark.parametrize("m", [1, 4])
    def test_user_capped_at_zero_has_empty_profile(self, m):
        # atmost:1/10 of 5 symbols caps the user's block at weight 0
        assert _user_profile(P1511, SIZES_1511, 2, (FREE, FREE, at_most("1/10"), FREE), m) \
            == ({}, (2**m - 1) ** 15 * m * 5)

    def test_all_free_profile_at_scale(self):
        # property A on (63,51,64): every user's all-free profile is
        # h E(h) / n at symbol level and (h/(mn)) E~(h) at m = 6, exactly
        E, avg = weight_distribution(P6351), avg_binary_wgf(P6351)
        symbol = {h: Fraction(h * E[h], 63) for h in range(1, 64) if E[h]}
        bits = {h: Fraction(h, 6 * 63) * avg[h] for h in range(1, 6 * 63 + 1) if avg[h]}
        for u in range(4):
            assert _exact_profile(P6351, SIZES_6351, u, (FREE,) * 4, 1) == symbol
            assert _exact_profile(P6351, SIZES_6351, u, (FREE,) * 4, 6) == bits

    def test_all_free_bit_profile_at_paper_scale(self):
        # (255,223,256), blocks (60,60,60,75): one 1-D convolution over
        # symbol weight, then the same exact identity as above
        params = MdsParams(255, 223, 256)
        avg = avg_binary_wgf(params)
        assert _exact_profile(params, (60, 60, 60, 75), 2, (FREE,) * 4, 8) == \
            {h: Fraction(h, 8 * 255) * avg[h] for h in range(1, 8 * 255 + 1) if avg[h]}

    @pytest.mark.parametrize("metric", ["sep", "bep"])
    def test_zero_error_channel(self, metric):
        # infinite SNR: p_bit = p_symbol = 0 exactly
        curve = error_curve(P1511, [math.inf], metric, SIZES_1511, 2,
                            (ZERO, FULL, FREE, FREE))
        assert curve.points == ((math.inf, 0.0),)

    def test_collapsed_bit_route_matches_literal_pipeline(self):
        # the production path convolves per-block symbol-weight rows and
        # contracts them against f(w); the literal pipeline materialises
        # the PWGF, substitutes into all blocks, filters at bit level, then
        # extracts
        half = at_most(Fraction(1, 2))
        cases = [(P738, (1, 1, 2, 3), user, conds)
                 for conds in [(FREE,) * 4, (ZERO, FULL, FREE, FREE),
                               (FREE, half, FREE, FREE), (FREE, FREE, half, FREE),
                               (at_most(0), FREE, FREE, at_most(1)),
                               (FREE, at_most(1), at_most(0), FREE),
                               (ZERO, FULL, half, FREE)]
                 for user in (0, 2, 3) if conds[user].kind not in ("zero", "full")]
        cases += [(P1511, SIZES_1511, 2, conds)
                  for conds in [(ZERO, ZERO, FREE, FREE), (ZERO, FULL, FREE, FREE),
                                (FULL, FULL, FREE, FREE)]]
        cases += [(P738, (7,), 0, (FREE,)), (P738, (7,), 0, (at_most(Fraction(3, 7)),))]
        cases += [(MdsParams(6, 3, 7), (1, 2, 3), user, conds)
                  for conds in [(FREE,) * 3, (ZERO, FREE, FULL), (FULL, half, FREE)]
                  for user in (1, 2) if conds[user].kind not in ("zero", "full")]
        for params, sizes, user, conds in cases:
            sym = conditional_pwgf(as_poly(pwgf(params, sizes)), sizes, conds)
            levels = [(1, sym)]
            if params.q & (params.q - 1) == 0:   # binary image over GF(2^m)
                m = bits_per_symbol(params.q)
                levels.append((m, conditional_pwgf(avg_binary_pwgf(sym, m), sizes, conds,
                                                   binary=True, m=m)))
            for scale, poly in levels:
                expected = {}
                for (w, h), c in user_iowe(poly, user).items():
                    if w:
                        expected[h] = expected.get(h, Fraction(0)) + \
                            Fraction(w, scale * sizes[user]) * c
                assert _exact_profile(params, sizes, user, conds, scale) == expected

    def test_user_condition_must_be_free_or_atmost(self):
        with pytest.raises(ValueError, match="free or atmost"):
            error_curve(P1511, self.GRID, "sep", SIZES_1511, 1, (ZERO, FULL, FREE, FREE))

    def test_condition_count_checked(self):
        with pytest.raises(ConditionCountMismatchError):
            error_curve(P1511, self.GRID, "sep", SIZES_1511, 0, (FREE, FREE))


class TestCurves:
    GRID = snr_grid(4.0, 8.0, 1.0)

    def test_snr_grid_inclusive(self):
        assert snr_grid(4.0, 8.0, 0.25)[0] == 4.0
        assert snr_grid(4.0, 8.0, 0.25)[-1] == 8.0
        assert len(snr_grid(4.0, 8.0, 0.25)) == 17

    @pytest.mark.parametrize("start, stop, step", [
        (4.0, math.inf, 1.0), (math.nan, 8.0, 1.0), (4.0, 8.0, math.nan), (4.0, 8.0, 0.0),
        (4.0, 8.0, -1.0), (8.0, 4.0, 0.5), (0.0, 1e6, 1e-6), (-1e308, 1e308, 1.0),
        (0.0, 1.0, 5e-324)])
    def test_snr_grid_rejects_bad_ranges(self, start, stop, step):
        with pytest.raises(ValueError):
            snr_grid(start, stop, step)

    def test_snr_grid_point_cap(self):
        assert len(snr_grid(0.0, 99_999.0, 1.0)) == 100_000
        with pytest.raises(ValueError, match="more than 100000 points"):
            snr_grid(0.0, 100_000.0, 1.0)

    @pytest.mark.parametrize("metric", ["cep", "sep", "bep"])
    def test_snr_beyond_float_range_is_error_free(self, metric):
        # 10^(g/10) overflows binary64 above ~3082.5 dB; the linear SNR is
        # then inf and the channel error-free, as at 3000 dB and at inf
        grid = [3000.0, 3083.0, 1e4, 1e308, math.inf]
        assert error_curve(P1511, grid, metric).points == tuple((g, 0.0) for g in grid)
        assert channel_map(1e4, 15, 11, 4) == (0.0, 0.0)

    def test_bep_curve_monotone(self):
        probs = [v for _, v in error_curve(P738, self.GRID, "bep").points]
        assert all(b <= a for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= v <= 1.0 for v in probs)

    @pytest.mark.parametrize("params", [P1511, P6351], ids=["15,11", "63,51"])
    def test_code_sep_equals_weight_list_sep(self, params):
        # the one-block profile and (h/n) E(h) from the weight list are one
        # exact rational per weight, so the two routes agree bit for bit
        n, k, m = params.n, params.k, bits_per_symbol(params.q)
        assert error_curve(params, self.GRID, "sep").points == tuple(
            (g, _sep_from_weights(params, channel_map(g, n, k, m).p_symbol))
            for g in self.GRID)

    def test_code_level_fields(self):
        for metric, decoder in [("cep", "bm"), ("sep", "bm"), ("bep", "ml-union")]:
            curve = error_curve(P738, self.GRID, metric)
            assert (curve.decoder, curve.metric, curve.user, curve.conditions) == \
                (decoder, metric, None, None)
        curve = error_curve(P738, self.GRID, "bep", (3, 4), 1, [ZERO, FREE])
        assert (curve.user, curve.conditions) == (1, (ZERO, FREE))

    def test_metric_validation(self):
        with pytest.raises(ValueError, match="not 'ber'"):
            error_curve(P1511, self.GRID, "ber")
        with pytest.raises(ValueError, match="^per-user metrics are sep and bep, not 'cep'$"):
            error_curve(P1511, self.GRID, "cep", SIZES_1511, 0, (FREE,) * 4)

    @pytest.mark.parametrize("sizes, user, conditions", [
        (SIZES_1511, None, None), (None, 0, None), (None, None, (FREE,) * 4),
        (SIZES_1511, 0, None)],
        ids=["sizes-only", "user-only", "conditions-only", "no-conditions"])
    def test_user_arguments_come_together(self, sizes, user, conditions):
        with pytest.raises(ValueError, match="exactly when a user is"):
            error_curve(P1511, self.GRID, "sep", sizes, user, conditions)

    @pytest.mark.parametrize("metric", ["cep", "sep", "bep"])
    def test_non_char_two_field_rejected(self, metric):
        with pytest.raises(NotCharTwoError, match="q=7 is not a power of two"):
            error_curve(MdsParams(6, 3, 7), self.GRID, metric)
