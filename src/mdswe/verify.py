"""Built-in verification suites behind ``mdswe verify``.

Each suite re-checks the package's exact invariants end to end: closed
forms against exhaustive enumeration, identities as integer equalities,
transforms against independently computed duals, and decoder curves
against a seeded Monte-Carlo channel.  Every check prints one line;
a failing check fails the run, and so does an exception raised inside a
suite, as one failed ``<suite>:raised`` check.

Each suite draws from its own ``random.Random(seed)``, so the suites are
independent: `run_suites` runs them in a pool of worker processes, one
per usable CPU.  The pool starts the longest suites first, ``oracle``
and then ``errorprob`` (`LONGEST_FIRST`), and the rest in the order asked
for, so the short suites fill in around the long ones.  The lines still
print in the order asked for, the same lines a one-at-a-time run prints:
each suite's lines as soon as it and every suite before it are done.  A
name asked for twice runs and prints twice.  When a suite asked for
loads numpy (`NUMPY_SUITES`), the parent imports it before the pool
forks, with OpenBLAS capped at one thread for that import: no suite
calls BLAS, and the pool already runs one worker per CPU.  So the
workers fork from a single-threaded parent and share its numpy in
place of importing their own, and a run of numpy-free suites loads
numpy in no process.  Each worker starts in `_init_worker`, which
ignores SIGINT.  A run of one suite, or on one CPU, stays in the
calling process.

`tests/test_verify_suites.py` runs every check of `SUITES` as one pytest
case; a unit test does not repeat what a check covers.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, TextIO

from . import binary_avg, duality, errorprob, mds_enum, nested_sum
from .gf import Field, field_from_order
from .linear_code import (DEFAULT_ENUMERATION_BUDGET, LinearCode, Partition,
                          RankDeficientError, brute_force_pwe, brute_force_pwes,
                          brute_force_weights, code_from_generator, dual, min_distance,
                          rm1_code, rs_code)
from .mds_enum import MdsParams
from .montecarlo import BmSphereOracle

PAPER_COUNTEREXAMPLE_ROWS = ((1, 0, 0, 1, 1), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1))
HAMMING74_ROWS = ((1, 1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 1, 0, 0),
                  (0, 0, 1, 1, 0, 1, 0), (0, 0, 0, 1, 1, 0, 1))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_code(field: Field, n: int, k: int, rng: random.Random) -> LinearCode:
    """Random (n, k) code over `field` (full-rank by rejection)."""
    q = field.order
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        try:
            return code_from_generator(field, rows)
        except RankDeficientError:
            continue


# The most blocks `random_partition` draws.
MAX_BLOCKS = 6
# Channel trials per crossover probability in the Monte-Carlo check.
MONTE_CARLO_TRIALS = 10**6


def random_partition(n: int, rng: random.Random) -> Partition:
    """Random partition of at most `MAX_BLOCKS` blocks, with scattered
    (non-contiguous) block assignment."""
    p = rng.randint(1, min(n, MAX_BLOCKS))
    cuts = sorted(rng.sample(range(1, n), p - 1))
    sizes = tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
    coords = list(range(n))
    rng.shuffle(coords)
    assignment = [0] * n
    pos = 0
    for b, s in enumerate(sizes):
        for j in coords[pos:pos + s]:
            assignment[j] = b
        pos += s
    return Partition(sizes, tuple(assignment))


# -- suites -------------------------------------------------------------------


def suite_gf(rng: random.Random, seed: int) -> list[CheckResult]:
    out = []
    small = [2, 3, 4, 5, 7, 8, 9, 16]
    larger = [27, 32, 64, 128, 256]

    ok = True
    for q in small + larger:
        f = field_from_order(q)
        if any(f.mul(a, f.inv(a)) != 1 for a in range(1, q)):
            ok = False
    out.append(CheckResult("gf:inverses-exhaustive", ok))

    ok = True
    for q in small:
        # the product and sum of every pair, by the field's own mul and add
        f = field_from_order(q)
        elems = range(q)
        mul = [[f.mul(a, b) for b in elems] for a in elems]
        add = [[f.add(a, b) for b in elems] for a in elems]
        for a in elems:
            for b in elems:
                for c in elems:
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        ok = False
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        ok = False
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        ok = False
    out.append(CheckResult("gf:associativity-distributivity", ok))

    ok = True
    for q in small + larger:
        f = field_from_order(q)
        g = f.generator()
        seen = set()
        v = 1
        for _ in range(q - 1):
            seen.add(v)
            v = f.mul(v, g)
        if seen != set(range(1, q)):
            ok = False
    out.append(CheckResult("gf:multiplicative-group-cyclic", ok))

    ok = True
    for q in (8, 16, 64, 256):
        f, raw = field_from_order(q), field_from_order(q)
        f.build_tables()   # raw keeps the table-free multiply and inverse
        for a in range(q):
            for b in range(q):
                if f.mul(a, b) != f._mul_raw(a, b):
                    ok = False
        if any(f.inv(a) != raw.inv(a) for a in range(1, q)):
            ok = False
    out.append(CheckResult("gf:table-path-agrees-with-raw", ok))
    return out


def suite_codes(rng: random.Random, seed: int) -> list[CheckResult]:
    out = []
    f8, f16 = Field(2, 3), Field(2, 4)
    samples = [rs_code(f8, 7, 3), rs_code(f8, 7, 5), rs_code(f16, 15, 5),
               rm1_code(3), rm1_code(4),
               code_from_generator(Field(2, 1), PAPER_COUNTEREXAMPLE_ROWS)]

    ok = all(sum(brute_force_weights(c)) == c.size for c in samples)
    out.append(CheckResult("codes:enumeration-total-q^k", ok))

    ok = True
    for (q, n, k) in [(8, 7, 3), (8, 7, 5), (8, 6, 4), (16, 15, 5), (16, 10, 4)]:
        c = rs_code(field_from_order(q), n, k)
        if min_distance(c) != n - k + 1:
            ok = False
    out.append(CheckResult("codes:rs-minimum-distance-singleton", ok))

    ok = True
    for c in samples + [random_code(field_from_order(q), rng.randint(4, 9), rng.randint(1, 3), rng)
                        for q in (2, 4, 8)]:
        cd = dual(c)
        if cd.k != c.n - c.k:
            ok = False
        fld = c.field
        for r1 in c.generator:
            for r2 in cd.generator:
                s = 0
                for a, b in zip(r1, r2):
                    s = fld.add(s, fld.mul(a, b))
                if s:
                    ok = False
    out.append(CheckResult("codes:dual-orthogonal-complement", ok))

    c = rs_code(f8, 7, 3)
    part = random_partition(7, rng)
    t1 = brute_force_pwe(c, part)
    coords = list(range(7))
    by_block: dict[int, list[int]] = {}
    for j, b in enumerate(part.assignment):
        by_block.setdefault(b, []).append(j)
    assignment = list(part.assignment)
    for block, js in by_block.items():
        shuffled = js[:]
        rng.shuffle(shuffled)
        for j_old, j_new in zip(js, shuffled):
            assignment[j_new] = part.assignment[j_old]
    t2 = brute_force_pwe(c, Partition(part.sizes, tuple(assignment)))
    out.append(CheckResult("codes:pwe-invariant-within-block-permutation", t1 == t2))

    g = f8.generator()
    pts = [f8.pow(g, i) for i in range(7)]
    alt = list(reversed(pts))
    ta = brute_force_pwe(rs_code(f8, 7, 3, eval_points=pts), Partition.contiguous((2, 5)))
    tb = brute_force_pwe(rs_code(f8, 7, 3, eval_points=alt), Partition.contiguous((2, 5)))
    out.append(CheckResult("codes:rs-eval-order-invariance", ta == tb))
    return out


def _oracle_codes():
    for q in (4, 8, 16):
        field = field_from_order(q)
        for n in range(1, q):
            for k in range(1, n + 1):
                if q**k <= 1 << 20:
                    yield field, q, n, k


def suite_oracle(rng: random.Random, seed: int,
                 partitions_per_code: int = 20) -> list[CheckResult]:
    """pwe_direct == pwe_product == brute force, coefficient for coefficient.

    Compares three whole tables per partition, `pwe_direct_table`, `pwgf`
    and the brute-force table, at every profile.  The first two depend only
    on the block sizes, so they are computed once per distinct sizes of a
    code; the brute-force tables of all a code's partitions come from one
    `brute_force_pwes` call.
    """
    failures = []
    codes = 0
    tables = 0
    for field, q, n, k in _oracle_codes():
        code = rs_code(field, n, k)
        params = MdsParams(n, k, q)
        codes += 1
        closed = {}   # sizes -> (pwe_direct_table, pwgf counts)
        parts = [random_partition(n, rng) for _ in range(partitions_per_code)]
        for part, table in zip(parts, brute_force_pwes(code, parts)):
            sizes = part.sizes
            if sizes not in closed:
                closed[sizes] = (nested_sum.pwe_direct_table(params, sizes),
                                 mds_enum.pwgf(params, sizes).counts)
            direct, prod = closed[sizes]
            brute = table.counts
            tables += 1
            if direct == prod == brute:   # all three drop zero counts
                continue
            for profile in itertools.product(*[range(s + 1) for s in sizes]):
                if not (direct.get(profile, 0) == prod.get(profile, 0)
                        == brute.get(profile, 0)):
                    failures.append((q, n, k, sizes, profile))
    detail = f"{codes} codes, {tables} tables" + (f"; failures: {failures[:3]}" if failures else "")
    return [CheckResult("oracle:direct==product==brute-force", not failures, detail)]


def _merge_blocks(counts: dict[tuple[int, ...], int], target: tuple[int, ...],
                  blocks: int) -> dict[tuple[int, ...], int]:
    """Enumerator counts with block i merged into block target[i] of `blocks`."""
    out: dict[tuple[int, ...], int] = {}
    for profile, c in counts.items():
        merged = [0] * blocks
        for w, t in zip(profile, target):
            merged[t] += w
        key = tuple(merged)
        out[key] = out.get(key, 0) + c
    return out


IDENTITY_PARAMS = [MdsParams(7, 3, 8), MdsParams(7, 5, 8),
                   MdsParams(15, 11, 16), MdsParams(15, 7, 16)]


def suite_identities(rng: random.Random, seed: int) -> list[CheckResult]:
    out = []

    ok = all(nested_sum.check_convolution_identity(prm, h).holds
             for prm in IDENTITY_PARAMS for h in range(prm.d, prm.n + 1))
    out.append(CheckResult("identities:psi-convolution", ok))

    ok = all(nested_sum.check_subset_identity(prm, s, h).holds
             for prm in IDENTITY_PARAMS
             for s in range(1, prm.k + 1)
             for h in range(prm.d, prm.n + 1))
    out.append(CheckResult("identities:psi-subset-weighted", ok))

    ok = True
    for prm in IDENTITY_PARAMS:
        E = mds_enum.weight_distribution(prm)
        for s in range(1, prm.n):
            for h in range(prm.n + 1):
                lhs = prm.n * sum(w * mds_enum.iowe(prm, s, w, h) for w in range(1, s + 1))
                if lhs != s * h * E[h]:
                    ok = False
    out.append(CheckResult("identities:s-coordinate-weight-share", ok))

    ok = True
    for prm in IDENTITY_PARAMS:
        E = mds_enum.weight_distribution(prm)
        for h in range(prm.n + 1):
            for s in (1, prm.k, prm.n - 1):
                lo, hi = max(0, h - (prm.n - s)), min(s, h)
                if sum(mds_enum.iowe(prm, s, w, h) for w in range(lo, hi + 1)) != E[h]:
                    ok = False
    out.append(CheckResult("identities:iowe-marginal-is-E(h)", ok))

    prm = MdsParams(15, 11, 16)
    merged = _merge_blocks(mds_enum.pwgf(prm, (3, 3, 5, 4)).counts, (0, 0, 1, 2), 3)
    direct = mds_enum.pwgf(prm, (6, 5, 4)).counts
    out.append(CheckResult("identities:pwgf-merge-blocks", merged == direct))

    ok = True
    for prm in (MdsParams(7, 3, 8), MdsParams(15, 11, 16)):
        sizes = (2, 2, prm.n - 4)
        for _ in range(50):
            w1, w2 = rng.randint(0, 2), rng.randint(0, 2)
            w3 = rng.randint(0, prm.n - 4)
            a = mds_enum.pwe_product(prm, sizes, (w1, w2, w3))
            b = mds_enum.pwe_product(prm, sizes, (w2, w1, w3))
            if a != b:
                ok = False
    out.append(CheckResult("identities:profile-permutation-symmetry", ok))

    ok = True
    for prm in IDENTITY_PARAMS:
        sizes = (prm.k, prm.n - prm.k)
        total = sum(mds_enum.pwe_product(prm, sizes, (w1, w2))
                    for w1 in range(sizes[0] + 1) for w2 in range(sizes[1] + 1))
        if total != prm.q**prm.k:
            ok = False
    out.append(CheckResult("identities:enumerator-total-q^k", ok))
    return out


def _avg_binary_split(prm: MdsParams, s: int) -> dict[tuple[int, int], Fraction]:
    """Averaged binary two-block table from the counts of pwgf(prm, (s, n - s)).

    A term c X1^w1 X2^w2 becomes c F(XY)^w1 F(Y)^w2, so it adds
    c P[w1][b1] P[w2][b2] / (2^m-1)^(w1+w2) at (b1, b1 + b2) = (input bits,
    total bits), with P the lists of `pattern_weight_powers(m)`.
    """
    m = binary_avg.bits_per_symbol(prm.q)
    den = (1 << m) - 1
    powers = list(itertools.islice(binary_avg.pattern_weight_powers(m), prm.n + 1))
    acc: dict[tuple[int, int], int] = {}
    for (w1, w2), c in mds_enum.pwgf(prm, (s, prm.n - s)).counts.items():
        scale = c * den ** (prm.n - w1 - w2)
        for b1, c1 in enumerate(powers[w1]):
            for b2, c2 in enumerate(powers[w2]):
                if c1 and c2:
                    key = (b1, b1 + b2)
                    acc[key] = acc.get(key, 0) + scale * c1 * c2
    return {key: Fraction(v, den**prm.n) for key, v in acc.items() if v}


def suite_binary(rng: random.Random, seed: int) -> list[CheckResult]:
    out = []
    ok = True
    for m in range(1, 9):
        # F(Z) = P[1](Z) / (2^m - 1) has F(0) = 0 and F(1) = 1, and is Z at m = 1
        g = next(itertools.islice(binary_avg.pattern_weight_powers(m), 1, None))
        if g[0] != 0 or sum(g) != (1 << m) - 1 or (m == 1 and g != [0, 1]):
            ok = False
    out.append(CheckResult("binary:substitution-poly-normalized", ok))

    ok = True
    for prm, s_values in [(MdsParams(7, 3, 8), (1, 3)), (MdsParams(7, 5, 8), (1, 3))]:
        m = binary_avg.bits_per_symbol(prm.q)
        for s in s_values:
            substituted = _avg_binary_split(prm, s)
            for w_b in range(m * s + 1):
                for h_b in range(m * prm.n + 1):
                    if binary_avg.avg_binary_iowe(prm, s, w_b, h_b) != \
                            substituted.get((w_b, h_b), 0):
                        ok = False
    out.append(CheckResult("binary:iowe-closed-form==substitution", ok))

    ok = True
    for prm in (MdsParams(7, 3, 8), MdsParams(7, 5, 8)):
        m = binary_avg.bits_per_symbol(prm.q)
        E_b = binary_avg.avg_binary_wgf(prm)
        for s in (1, 3):
            for h_b in range(m * prm.n + 1):
                lhs = prm.n * sum(w_b * binary_avg.avg_binary_iowe(prm, s, w_b, h_b)
                                  for w_b in range(1, m * s + 1))
                if lhs != s * h_b * E_b[h_b]:
                    ok = False
    out.append(CheckResult("binary:bit-weight-share-identity", ok))

    ok = True
    for prm in (MdsParams(7, 3, 8), MdsParams(15, 11, 16)):
        E_b = binary_avg.avg_binary_wgf(prm)
        if sum(E_b) != prm.q**prm.k or any(c < 0 for c in E_b):
            ok = False
        merged: dict[int, Fraction] = {}
        for (_, h_b), c in _avg_binary_split(prm, 3).items():
            merged[h_b] = merged.get(h_b, 0) + c
        if merged != {h: c for h, c in enumerate(E_b) if c}:
            ok = False
    out.append(CheckResult("binary:pwgf-collapse-matches-wgf", ok))
    return out


def suite_duality(rng: random.Random, seed: int) -> list[CheckResult]:
    out = []

    transform_cases = []
    for q in (2, 4, 8):
        field = field_from_order(q)
        for _ in range(4):
            while True:  # both the code and its dual are enumerated
                n = rng.randint(3, 10)
                k = rng.randint(1, min(n, 5 if q == 8 else n))
                if q ** max(k, n - k) <= DEFAULT_ENUMERATION_BUDGET:
                    break
            transform_cases.append(random_code(field, n, k, rng))
    transform_cases.append(rs_code(Field(2, 3), 7, 3))
    transform_cases.append(code_from_generator(Field(2, 1), PAPER_COUNTEREXAMPLE_ROWS))

    def transform_is_dual(c: LinearCode, part: Partition) -> bool:
        lhs = duality.macwilliams_pwe(brute_force_pwe(c, part), c.field.order, c.k)
        return lhs == brute_force_pwe(dual(c), part)

    ok = all(transform_is_dual(c, random_partition(c.n, rng)) for c in transform_cases)
    out.append(CheckResult(
        "duality:macwilliams==brute-force-dual",
        ok, f"{len(transform_cases)} codes over GF(2)/GF(4)/GF(8)"))

    ok = all(transform_is_dual(c, Partition.contiguous((c.n,))) for c in transform_cases[:6])
    out.append(CheckResult("duality:classical-wgf-transform", ok))

    # the dual of an MDS code is MDS: a check on codes no enumeration reaches
    ok = True
    for (n, k, q), sizes in [((15, 11, 16), (3, 3, 5, 4)), ((15, 4, 16), (3, 3, 5, 4)),
                             ((31, 25, 32), (10, 10, 11))]:
        table = mds_enum.pwgf(MdsParams(n, k, q), sizes)
        dual_table = mds_enum.pwgf(MdsParams(n, n - k, q), sizes)
        if duality.macwilliams_pwe(table, q, k).counts != dual_table.counts:
            ok = False
    out.append(CheckResult("duality:mds-dual-closed-form", ok))

    f8 = Field(2, 3)
    paper53 = code_from_generator(Field(2, 1), PAPER_COUNTEREXAMPLE_ROWS)
    hamming = code_from_generator(Field(2, 1), HAMMING74_ROWS)
    holding = [rs_code(f8, 7, 3), rs_code(f8, 7, 5), rm1_code(3), rm1_code(4),
               dual(rm1_code(3)), hamming]
    ok = all(duality.property_a_check(c).holds for c in holding)
    rep = duality.property_a_check(paper53)
    ok = ok and not rep.holds and len(rep.witnesses) > 0
    out.append(CheckResult("duality:property-a-classification", ok))

    ok = True
    for c in holding + [paper53]:
        a, b = duality.dual_property_a(c)
        if a != b:
            ok = False
    out.append(CheckResult("duality:property-a-dual-agreement", ok))
    return out


def suite_errorprob(rng: random.Random, seed: int) -> list[CheckResult]:
    out = []

    # at tau = n every word is in the sphere: each row N(h, .) is the
    # number of words of each weight
    ok = all(errorprob._sphere_spectrum(n, q, n, {h: 1})
             == [math.comb(n, w) * (q - 1) ** w for w in range(n + 1)]
             for q, n in ((2, 7), (8, 7), (16, 15)) for h in range(n + 1))
    out.append(CheckResult("errorprob:distance-distribution-total-1", ok))

    # the words of the literal decoder's spheres, by received weight,
    # against the integer spectra the curves divide: the word counts are the
    # CEP spectrum, and den times the information-weight sums are k times
    # the SEP numerators'
    p738 = MdsParams(7, 3, 8)
    oracle = BmSphereOracle(rs_code(Field(2, 3), 7, 3))
    words, info = oracle.weight_tally()
    (cep_exact, _), (sep_exact, den) = (errorprob._numerators(p738, metric)
                                        for metric in ("cep", "sep"))
    ok = (words == errorprob._sphere_spectrum(7, 8, 2, cep_exact)
          and [den * v for v in info]
          == [3 * v for v in errorprob._sphere_spectrum(7, 8, 2, sep_exact)])
    out.append(CheckResult("errorprob:sphere-table==spectrum", ok,
                           f"{oracle.sphere_size()} sphere words"))

    # the simulated decoder against the coefficients the curves print
    coeffs = [errorprob._coefficients(p738, metric) for metric in ("cep", "sep")]
    ok = True
    details = []
    for p in (0.05, 0.1, 0.2):
        sim = oracle.simulate(p, MONTE_CARLO_TRIALS, seed)
        cep, sep = (errorprob._bm_sum(c, 7, p) for c in coeffs)
        if not (sim.cep.within(cep) and sim.sep.within(sep)):
            ok = False
        details.append(f"p={p}: cep {(sim.cep.value - cep) / sim.cep.stderr:+.1f} sigma, "
                       f"sep {(sim.sep.value - sep) / sim.sep.stderr:+.1f} sigma")
    out.append(CheckResult("errorprob:monte-carlo-agreement", ok, "; ".join(details)))

    prm = MdsParams(15, 11, 16)
    sizes = (3, 3, 5, 4)
    table = mds_enum.pwgf(prm, sizes)
    # summed over the user's weight, every user's IOWE is the one marginal
    # over total weight, so it is checked once
    marginal = [0] * 16
    for exps, c in table.counts.items():
        marginal[sum(exps)] += c
    ok = marginal == mds_enum.weight_distribution(prm)
    out.append(CheckResult("errorprob:user-iowe-marginal-is-E(h)", ok))

    grid = errorprob.snr_grid(4.0, 8.0, 0.5)
    free = (errorprob.FREE,) * 4
    curves = [errorprob.error_curve(prm, grid, "sep", sizes, u, free)
              for u in range(3)]
    ok = curves[0].points == curves[1].points == curves[2].points
    out.append(CheckResult("errorprob:unconditional-sep-user-independent", ok))

    cep_curve = errorprob.error_curve(prm, grid, "cep")
    sep_curve = errorprob.error_curve(prm, grid, "sep")
    ok = all(s[1] <= c[1] for s, c in zip(sep_curve.points, cep_curve.points))
    out.append(CheckResult("errorprob:sep<=cep-pointwise", ok))

    Z, F_, R = errorprob.ZERO, errorprob.FULL, errorprob.FREE
    cases = [(Z, Z, R, R), (Z, F_, R, R), (F_, F_, R, R)]
    ok = True
    for metric in ("sep", "bep"):
        c00, c01, c11 = (errorprob.error_curve(prm, grid, metric, sizes, 2, conds)
                         for conds in cases)
        for (g, v00), (_, v01), (_, v11) in zip(c00.points, c01.points, c11.points):
            if not (v11 < v01 < v00):
                ok = False
    out.append(CheckResult("errorprob:conditional-ordering-(1,1)<(0,1)<(0,0)", ok))

    ok = True
    for curve in [cep_curve, sep_curve, errorprob.error_curve(prm, grid, "bep")] + curves:
        probs = [pt[1] for pt in curve.points]
        if any(not 0.0 <= v <= 1.0 for v in probs):
            ok = False
        if any(b > a for a, b in zip(probs, probs[1:])):
            ok = False
    out.append(CheckResult("errorprob:curves-in-range-and-monotone", ok))
    return out


# Every suite is called as suite(random.Random(seed), seed).
SUITES: dict[str, Callable[[random.Random, int], list[CheckResult]]] = {
    "gf": suite_gf,
    "codes": suite_codes,
    "oracle": suite_oracle,
    "identities": suite_identities,
    "binary": suite_binary,
    "duality": suite_duality,
    "errorprob": suite_errorprob,
}

# The suites that load numpy (the exhaustive tally and the Monte-Carlo
# oracle); `run_suites` loads it before the pool forks when one is asked for.
NUMPY_SUITES = frozenset({"codes", "oracle", "duality", "errorprob"})


def suite_names(names: list[str]) -> list[str]:
    """The suites `names` asks for, with 'all' expanded; ValueError on an
    unknown name."""
    if "all" in names:
        return list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{', '.join([*SUITES, 'all'])}")
    return names


def _run_suite(name: str, seed: int) -> list[CheckResult]:
    """One suite's checks; an exception inside it is one failed check.

    A suite of this module is called through its module attribute, so a
    wrapper bound over that name after import (the spans of
    ``perfbench/tracer.py``) sees the call.
    """
    suite = SUITES[name]
    if suite.__module__ == __name__:
        suite = globals()[suite.__name__]
    try:
        return suite(random.Random(seed), seed)
    except Exception as exc:
        return [CheckResult(f"{name}:raised", False, f"{type(exc).__name__}: {exc}")]


# The longest suites, started first so that no worker is left running one
# of them alone at the end of the run.
LONGEST_FIRST = ("oracle", "errorprob")


def _start_order(names: list[str]) -> list[int]:
    """Positions in `names`, the `LONGEST_FIRST` suites first, the rest as asked."""
    return ([i for first in LONGEST_FIRST for i, name in enumerate(names) if name == first]
            + [i for i, name in enumerate(names) if name not in LONGEST_FIRST])


def _init_worker() -> None:
    """Set up a pool worker: ignore SIGINT, which reaches the parent alone."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _import_numpy_one_thread() -> None:
    """Import numpy with OpenBLAS capped at one thread.

    The suites' only matrix products are on integers, which numpy does not
    hand to BLAS, so OpenBLAS's thread pool would only leave a thread in
    the process that forks the pool.  The variable is read at this import
    alone, so it is set for the import only: a value already set is kept,
    and `os.environ` is left as it was.
    """
    preset = "OPENBLAS_NUM_THREADS" in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        import numpy  # noqa: F401
    finally:
        if not preset:
            del os.environ["OPENBLAS_NUM_THREADS"]


def run_suites(names: list[str], seed: int, stream: Optional[TextIO] = None) -> bool:
    """Run the named suites; print one line per check.  True iff all pass.

    Every name is checked before any suite runs.  With more than one suite
    and more than one usable CPU the suites run in a pool of worker
    processes, started longest first (`LONGEST_FIRST`); each suite's lines
    print, in the order asked for, as soon as it and every suite before it
    are done.
    """
    stream = stream or sys.stdout
    names = suite_names(names)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(names), cpus)
    if workers <= 1:
        return _report((_run_suite(name, seed) for name in names), stream)
    import multiprocessing
    # numpy, when a suite asked for loads it, is imported once here with
    # BLAS capped at one thread, so the workers fork from a single-threaded
    # process and share the parent's numpy.  Leaving the block terminates
    # and joins the workers, also on an error.
    if NUMPY_SUITES.intersection(names):
        _import_numpy_one_thread()
    with multiprocessing.Pool(workers, initializer=_init_worker) as pool:
        pending: list = [None] * len(names)
        for i in _start_order(names):
            pending[i] = pool.apply_async(_run_suite, (names[i], seed))
        ok = _report((result.get() for result in pending), stream)
        pool.close()
        pool.join()
    return ok


def _report(results: Iterable[list[CheckResult]], stream: TextIO) -> bool:
    all_ok = True
    for checks in results:
        for check in checks:
            status = "ok" if check.passed else "FAIL"
            detail = f"  ({check.detail})" if check.detail else ""
            print(f"{status:4s} - {check.name}{detail}", file=stream)
            all_ok = all_ok and check.passed
    return all_ok
