"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line with its runtime so the suite doubles
as a checklist; every tolerance is exact (integer/rational equality)
unless the criterion itself is statistical or floating-point.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mdswe.binary_avg import avg_binary_iowe, avg_binary_wgf, bits_per_symbol
from mdswe.duality import dual_property_a, macwilliams_pwe, property_a_check
from mdswe.errorprob import FREE, FULL, ZERO, _bm_sum, _coefficients, error_curve, snr_grid
from mdswe.gf import Field, field_from_order
from mdswe.linear_code import (Partition, brute_force_pwe, code_from_generator, dual,
                               rm1_code, rs_code)
from mdswe.mds_enum import MdsParams, pwgf
from mdswe.montecarlo import BmSphereOracle
from mdswe.nested_sum import check_convolution_identity, check_subset_identity, pwe_direct_table
from mdswe.poly import SparsePoly
from mdswe.verify import random_partition

from exact_bm import sphere_distance_prob
from literal_pipeline import as_poly, bit_substitution_poly, substitute

ROWS_53 = [[1, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1]]
ROWS_HAMMING74 = [[1, 1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 1, 0, 0],
                  [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0, 1]]


class _Timer:
    def __init__(self, name, limit_s):
        self.name, self.limit = name, limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} [{elapsed:.2f}s / limit {self.limit}s]")
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit}s"


def test_criterion_1_paper_example_exact():
    """The (7,3,5) RS code over GF(8), blocks (1,1,2,3): all 14
    coefficients and their sum, in under a second."""
    with _Timer("criterion-1 paper-example-exact", 1.0):
        table = pwgf(MdsParams(7, 3, 8), (1, 1, 2, 3))
        expected = {
            (0, 0, 0, 0): 1, (1, 1, 2, 1): 21, (1, 1, 1, 2): 42,
            (1, 0, 2, 2): 21, (0, 1, 2, 2): 21, (1, 1, 2, 2): 63,
            (1, 1, 0, 3): 7, (1, 0, 1, 3): 14, (0, 1, 1, 3): 14,
            (1, 1, 1, 3): 42, (0, 0, 2, 3): 7, (1, 0, 2, 3): 21,
            (0, 1, 2, 3): 21, (1, 1, 2, 3): 217,
        }
        assert table.counts == expected
        assert sorted(expected.values()) == sorted(
            [1, 21, 42, 21, 21, 63, 7, 14, 14, 42, 7, 21, 21, 217])
        assert table.total() == 512


def test_criterion_2_oracle_equivalence():
    """For q in {4, 8, 16}, every (n, k) with n <= q-1 and q^k <= 2^20,
    20 random partitions per code: the nested sum, the product form, and
    exhaustive enumeration agree coefficient for coefficient."""
    with _Timer("criterion-2 oracle-equivalence", 300.0):
        rng = random.Random(20260810)
        codes = 0
        for q in (4, 8, 16):
            field = field_from_order(q)
            for n in range(1, q):
                for k in range(1, n + 1):
                    if q**k > 1 << 20:
                        continue
                    codes += 1
                    code = rs_code(field, n, k)
                    params = MdsParams(n, k, q)
                    for _ in range(20):
                        part = random_partition(n, rng)
                        sizes = part.sizes
                        direct = pwe_direct_table(params, sizes)
                        product = pwgf(params, sizes).counts
                        brute = brute_force_pwe(code, part).counts
                        for profile in itertools.product(
                                *[range(s + 1) for s in sizes]):
                            assert direct.get(profile, 0) == product.get(profile, 0) \
                                == brute.get(profile, 0), (q, n, k, sizes, profile)
        assert codes == 98


def test_criterion_3_identity_suite():
    """Both combinatorial identities hold exactly (integer equality) for
    all d <= h <= n and 1 <= s <= k over four parameter sets."""
    with _Timer("criterion-3 identity-suite", 60.0):
        for prm in (MdsParams(7, 3, 8), MdsParams(7, 5, 8),
                    MdsParams(15, 11, 16), MdsParams(15, 7, 16)):
            for h in range(prm.d, prm.n + 1):
                res = check_convolution_identity(prm, h)
                assert res.holds, (prm, h, res)
                for s in range(1, prm.k + 1):
                    res = check_subset_identity(prm, s, h)
                    assert res.holds, (prm, s, h, res)


def test_criterion_4_property_a():
    """Uniform-coordinate-weight property holds for the listed codes,
    fails with a concrete witness for the (5,3) counterexample, and
    always agrees with the dual."""
    with _Timer("criterion-4 property-a", 120.0):
        f8 = Field(2, 3)
        f2 = Field(2, 1)
        holding = [rs_code(f8, 7, 3), rs_code(f8, 7, 5), rm1_code(3), rm1_code(4),
                   dual(rm1_code(3)), code_from_generator(f2, ROWS_HAMMING74)]
        for code in holding:
            assert property_a_check(code).holds, code
        counterexample = code_from_generator(f2, ROWS_53)
        report = property_a_check(counterexample)
        assert not report.holds and report.witnesses
        assert report.witnesses[0].observed != report.witnesses[0].expected
        for code in holding + [counterexample]:
            a, b = dual_property_a(code)
            assert a == b, code


def test_criterion_5_macwilliams():
    """MacWilliams transform of the brute-force enumerator equals the
    brute-force enumerator of the dual, for 12 random codes over
    GF(2)/GF(4)/GF(8) with n <= 10 plus the RS and counterexample codes."""
    with _Timer("criterion-5 macwilliams", 120.0):
        rng = random.Random(5)
        cases = []
        for q in (2, 4, 8):
            field = field_from_order(q)
            for _ in range(4):
                n = rng.randint(3, 10)
                k = rng.randint(1, min(n - 1, 4))
                while True:
                    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                    try:
                        cases.append(code_from_generator(field, rows))
                        break
                    except ValueError:
                        continue
        cases.append(rs_code(Field(2, 3), 7, 3))
        cases.append(rs_code(Field(2, 3), 7, 5))
        cases.append(code_from_generator(Field(2, 1), ROWS_53))
        assert len(cases) >= 12
        for code in cases:
            n1 = rng.randint(1, code.n - 1)
            part = Partition.contiguous((n1, code.n - n1))
            transformed = macwilliams_pwe(brute_force_pwe(code, part),
                                          code.field.order, code.k)
            assert transformed == brute_force_pwe(dual(code), part), code


def test_criterion_6_binary_average_consistency():
    """The closed-form averaged binary IOWE equals coefficient extraction
    from the substitution route for every (w_b, h_b) on (7,3,8) and
    (7,5,8) with s in {1,3}; the bit-weight share identity holds as exact
    rationals for all h_b."""
    with _Timer("criterion-6 binary-average-consistency", 120.0):
        for prm in (MdsParams(7, 3, 8), MdsParams(7, 5, 8)):
            m = bits_per_symbol(prm.q)
            f = bit_substitution_poly(m)
            f_xy = SparsePoly(2, {(e, e): c for (e,), c in f.terms.items()})
            f_y = SparsePoly(2, {(0, e): c for (e,), c in f.terms.items()})
            E_b = avg_binary_wgf(prm)
            for s in (1, 3):
                oracle = substitute(as_poly(pwgf(prm, (s, prm.n - s))), [f_xy, f_y])
                for w_b in range(m * s + 1):
                    for h_b in range(m * prm.n + 1):
                        assert avg_binary_iowe(prm, s, w_b, h_b) == \
                            oracle.coeff((w_b, h_b)), (prm, s, w_b, h_b)
                for h_b in range(m * prm.n + 1):
                    # m*n * sum_wb wb*O == (m*s) * h_b * E~(h_b): input size
                    # measured in bits; equivalent to the symbol-level form
                    lhs = m * prm.n * sum(
                        w_b * avg_binary_iowe(prm, s, w_b, h_b)
                        for w_b in range(1, m * s + 1))
                    assert lhs == (m * s) * h_b * E_b[h_b], (prm, s, h_b)


def test_criterion_7_channel_decoder():
    """Distance distribution sums to one within 1e-12; BM codeword and
    symbol error probabilities match a seeded 10^6-trial sphere-decoding
    simulation within three standard errors at p in {0.05, 0.1, 0.2}."""
    with _Timer("criterion-7 channel-decoder", 120.0):
        for q, n in ((2, 7), (8, 7), (16, 15)):
            for h in range(n + 1):
                for p in (0.01, 0.1, 0.4):
                    total = sum(sphere_distance_prob(n, q, h, t, p)
                                for t in range(n + 1))
                    assert abs(total - 1.0) <= 1e-12, (q, n, h, p)
        oracle = BmSphereOracle(rs_code(Field(2, 3), 7, 3))
        cep_coeffs, sep_coeffs = (_coefficients(MdsParams(7, 3, 8), metric)
                                  for metric in ("cep", "sep"))
        for p in (0.05, 0.1, 0.2):
            sim = oracle.simulate(p, 10**6, seed=7)
            cep = _bm_sum(cep_coeffs, 7, p)
            sep = _bm_sum(sep_coeffs, 7, p)
            assert sim.cep.within(cep, sigmas=3.0), (p, cep, sim.cep)
            assert sim.sep.within(sep, sigmas=3.0), (p, sep, sim.sep)


def test_criterion_8_multiuser_behavior():
    """(15,11) RS over GF(16), blocks (3,3,5,4), 4-8 dB grid: the
    unconditional SEP is identical for users 1-3, SEP <= CEP pointwise,
    and user 3's conditional SEP obeys (1,1) < (0,1) < (0,0) everywhere;
    the same ordering holds for the union-bound BEP."""
    with _Timer("criterion-8 multiuser-behavior", 300.0):
        prm = MdsParams(15, 11, 16)
        sizes = (3, 3, 5, 4)
        grid = snr_grid(4.0, 8.0, 0.25)

        unconditional = [error_curve(prm, grid, "sep", sizes, u, (FREE,) * 4)
                         for u in range(3)]
        assert unconditional[0].points == unconditional[1].points \
            == unconditional[2].points

        sep_pts = error_curve(prm, grid, "sep").points
        cep_pts = error_curve(prm, grid, "cep").points
        assert all(s <= c for (_, s), (_, c) in zip(sep_pts, cep_pts))

        cases = [(ZERO, ZERO, FREE, FREE), (ZERO, FULL, FREE, FREE),
                 (FULL, FULL, FREE, FREE)]
        for metric in ("sep", "bep"):
            c00, c01, c11 = (error_curve(prm, grid, metric, sizes, 2, conds)
                             for conds in cases)
            for (g, v00), (_, v01), (_, v11) in zip(c00.points, c01.points,
                                                    c11.points):
                assert v11 < v01 < v00, (metric, g, v11, v01, v00)


def test_criterion_9_sanity_and_verify_cli():
    """Every enumerator totals q^k, probabilities stay in [0,1], and the
    full built-in verification run exits 0."""
    with _Timer("criterion-9 sanity-and-verify", 600.0):
        for prm in (MdsParams(7, 3, 8), MdsParams(7, 5, 8), MdsParams(15, 11, 16)):
            assert pwgf(prm, (prm.n,)).total() == prm.q**prm.k
            assert sum(avg_binary_wgf(prm)) == prm.q**prm.k
        grid = snr_grid(2.0, 8.0, 0.5)
        for metric in ("cep", "sep"):
            for _, v in error_curve(MdsParams(15, 11, 16), grid, metric).points:
                assert 0.0 <= v <= 1.0
        proc = subprocess.run(
            [sys.executable, "-m", "mdswe.cli", "verify", "--suite", "all",
             "--seed", "7"],
            capture_output=True, text=True)
        print(proc.stdout)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout
